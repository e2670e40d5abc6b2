/**
 * @file
 * Secret-bearing victim programs (ROADMAP item 5). Unlike the
 * synthetic senders in src/attack/ — where the secret is a bit handed
 * to the attack object — these are real(istic) crypto kernels whose
 * memory and functional-unit footprint depends on a planted key, so
 * end-to-end key recovery can be demonstrated over the unXpec channel
 * against the whole defense zoo.
 *
 * Two programs, both emitted as assembler listings (cpu/assembler.hh)
 * so they exercise the text pipeline, the branch predictors, and much
 * longer programs than the hand-built gadgets:
 *
 *  - AES-128 T-table first round: 4 x 256-entry tables (derived from
 *    the FIPS-197 S-box) live in simulated memory one entry per cache
 *    line, and the measured round performs the key-dependent lookup
 *    T[b & 3][pt[b] ^ key[b]] under a mistrained bounds check. The
 *    key byte is reached out-of-bounds exactly like the unXpec
 *    gadget's secret, so training rounds only ever touch a zero
 *    training key. A Flush+Reload probe tail times every entry of the
 *    active table on the final round; under the unsafe baseline the
 *    transient install persists and pinpoints pt ^ key.
 *
 *  - RSA square-and-multiply: the exponent is scanned bit-serially;
 *    a transiently-read 1 bit redirects a trained "skip the multiply"
 *    branch into a multiply burst plus a multiplier-table load. The
 *    listing carries both receivers: a Flush+Reload probe of the
 *    multiplier line (cache channel) and a timed dependent-multiply
 *    chain (SpectreRewind-style FU contention, which survives
 *    cache-only defenses when the multiplier is non-pipelined).
 *
 * The harness pokes runtime parameters (key bytes, plaintext, byte
 * index, exponent bits) through the named data symbols the assembler
 * returns; see the k*Sym constants below.
 */

#ifndef UNXPEC_VICTIM_VICTIM_HH
#define UNXPEC_VICTIM_VICTIM_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "cpu/program.hh"

namespace unxpec {

/** Which victim kernel to build. */
enum class VictimKind { AesTtable, RsaSqMul };

/** Shape knobs shared by both victim listings. */
struct VictimConfig
{
    VictimKind kind = VictimKind::AesTtable;
    /** POISON loop length before the measured round. */
    unsigned mistrainIterations = 16;
    /** f(N) chase length feeding the bounds check. */
    unsigned conditionAccesses = 1;
    /** Dependent ALU padding after the chase: window length. */
    unsigned conditionPadding = 56;
    /** RSA: multiplies in the transient "multiply" step. Sized so the
     *  burst's reserved busy window on a non-pipelined multiplier
     *  (transientMuls x mulLatency from issue) outlasts the flushed
     *  f(N) chase (~memory latency + padding): the FU must still be
     *  busy when the post-squash contention probe issues. */
    unsigned transientMuls = 96;
    /** RSA: dependent multiplies in the contention probe. */
    unsigned probeMuls = 4;

    /** Every field takes part: victimListing()'s memo keys on it. */
    bool operator==(const VictimConfig &) const = default;
};

/**
 * A generated victim: listing text plus the assembled program. A
 * listing is never written after buildVictim() returns: the harness
 * pokes its runtime parameters into the Core's memory, not here, so
 * one listing serves every Core (victimListing()).
 */
struct VictimListing
{
    std::string source;                  //!< assembler text
    Program program;
    std::map<std::string, Addr> symbols; //!< data symbol -> address
    unsigned trials = 0;                 //!< mistrain rounds + 1

    /** Symbol address; fatal() when the listing lacks it. */
    Addr symbol(const std::string &name) const;
};

// Data-symbol names the harness pokes / reads (see the listing
// generators for the layout behind each).
inline constexpr const char *kAesTableSym = "ttab";
inline constexpr const char *kAesTrainKeySym = "ktab";
inline constexpr const char *kAesKeySym = "key";
inline constexpr const char *kAesPlaintextSym = "ptb";
inline constexpr const char *kAesTableBaseSym = "tsel";
inline constexpr const char *kAesFlushSym = "flushcell";
inline constexpr const char *kAesProbeOutSym = "probeout";
inline constexpr const char *kRsaTrainBitsSym = "dtab";
inline constexpr const char *kRsaExponentSym = "exp";
inline constexpr const char *kRsaMulTabSym = "multab";
inline constexpr const char *kRsaProbeOutSym = "probeout";
inline constexpr const char *kRsaContentionOutSym = "fuout";
inline constexpr const char *kIdxTabSym = "idxtab";
inline constexpr const char *kLatOutSym = "latout";

/** AES geometry: one table entry per cache line. */
inline constexpr unsigned kAesTableEntries = 256;
inline constexpr unsigned kAesNumTables = 4;
/** Bytes per table (entries * line size). */
std::size_t aesTableBytes();

/** RSA geometry: exponent bits recovered per run of the harness. */
inline constexpr unsigned kRsaExponentBits = 64;

/** The FIPS-197 S-box. */
const std::array<std::uint8_t, 256> &aesSbox();

/** T-table `table` (0..3) derived from the S-box (xtime rotations). */
std::uint32_t aesTtableEntry(unsigned table, unsigned index);

/** Build (and assemble) the configured victim listing. */
VictimListing buildVictim(const VictimConfig &cfg);

/**
 * The configured victim listing, built by buildVictim() on the
 * config's first claim in this process and shared read-only by every
 * later one (sim/shared_memo.hh). The reference stays valid until the
 * process exits. Thread-safe.
 */
const VictimListing &victimListing(const VictimConfig &cfg);

} // namespace unxpec

#endif // UNXPEC_VICTIM_VICTIM_HH
