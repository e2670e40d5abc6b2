/**
 * @file
 * End-to-end key recovery against the secret-bearing victim programs
 * (victim/victim.hh): the attacker plants a real secret in the
 * victim's memory, drives the victim's speculative execution round by
 * round, and feeds the recorded probe latencies to the key-recovery
 * ranking (analysis/key_recovery.hh).
 *
 * AES: one run per (key byte, known plaintext) pair. The harness
 * pokes the byte index and plaintext into the listing's data cells,
 * the victim's measured round transiently touches
 * T[b & 3][pt ^ key[b]], and the run's Flush+Reload tail hands back
 * one reload latency per table entry. rankKeyByte() then orders all
 * 256 candidates per byte.
 *
 * RSA: one run per exponent bit. Each run records both receivers —
 * the multiplier-line reload (cache channel) and the dependent-
 * multiply probe time (FU contention) — and recoverExponent() splits
 * either series into bit guesses.
 *
 * Like ContentionAttack, this object is built fresh by each trial
 * function (never cached in the Session or its CorePool), so it needs
 * no reset: every trial derives its state deterministically from the
 * spec + seed.
 */

#ifndef UNXPEC_ATTACK_VICTIM_ATTACK_HH
#define UNXPEC_ATTACK_VICTIM_ATTACK_HH

#include <array>
#include <cstdint>
#include <vector>

#include "analysis/key_recovery.hh"
#include "cpu/core.hh"
#include "victim/victim.hh"

namespace unxpec {

/** Attack-side knobs on top of the victim listing's shape. */
struct VictimAttackConfig
{
    VictimConfig victim;
    /** AES: known plaintexts per key byte (1..8). */
    unsigned plaintexts = 2;
    /** AES: best-vs-runner-up score floor for a confident byte. */
    double minMarginCycles = 16.0;
    /** RSA: cluster-gap floor for a confident bit split. */
    double minGapCycles = 8.0;
};

/** Per-byte AES recovery outcome. */
struct AesRecoveryResult
{
    std::array<std::uint8_t, 16> guess{};
    std::array<double, 16> margin{};
    std::array<bool, 16> confident{};
    unsigned confidentBytes = 0;
};

/** RSA exponent recovery outcome. */
struct RsaRecoveryResult
{
    std::uint64_t guess = 0;        //!< MSB-first recovered bits
    double gap = 0.0;               //!< widest cluster gap
    bool confident = false;         //!< gap cleared the floor
    std::vector<double> stats;      //!< per-bit receiver statistic
};

class VictimAttack
{
  public:
    VictimAttack(Core &core, const VictimAttackConfig &cfg);

    /** Plant the AES key in the victim's memory (AES listing only). */
    void setKey(const std::array<std::uint8_t, 16> &key);
    /** Plant the RSA exponent, MSB-first (RSA listing only). */
    void setExponent(std::uint64_t exponent);

    /** Recover all 16 key bytes, plaintext by plaintext. */
    AesRecoveryResult recoverAesKey();

    /** Recover the 64 exponent bits via the cache (default) or the
     *  FU-contention receiver. */
    RsaRecoveryResult recoverExponent(bool contention_receiver);

    std::uint64_t totalCycles() const { return totalCycles_; }
    /** Mean simulated cycles per victim run. */
    double cyclesPerSample() const;

  private:
    void runOnce();
    /** One (byte, plaintext) AES run: per-entry reload latencies. */
    std::vector<double> runAesProbe(unsigned byte, std::uint8_t pt);
    /** One RSA run for exponent bit `bit`: {contention, reload}. */
    std::pair<double, double> runRsaBit(unsigned bit);

    Core &core_;
    VictimAttackConfig cfg_;
    VictimListing listing_;
    std::uint64_t oobIndex_ = 0; //!< secret base - training base
    bool dataLoaded_ = false;
    unsigned totalRuns_ = 0;
    std::uint64_t totalCycles_ = 0;
};

} // namespace unxpec

#endif // UNXPEC_ATTACK_VICTIM_ATTACK_HH
