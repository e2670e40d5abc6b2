/**
 * @file
 * Cross-core unXpec variant (paper §II-B's coherence channel, ported
 * onto the Machine layer). The sender runs the usual mistrained
 * transient branch on core 0; the transient body installs
 * P[secret*64] into core 0's private L1 (and, by inclusion, the
 * shared L2). The receiver then runs on core 1 and times a single
 * probe of P[64]:
 *
 *   sender (core 0)    POISON iterations; clflush f(N) chain and
 *                      P[64*1..64*n] machine-wide; out-of-bounds
 *                      round transiently loads P[secret*64*k]
 *   receiver (core 1)  FENCE; t0 = rdtscp; load P[64]; t1 = rdtscp
 *
 * Unsafe baseline: secret=1 leaves P[64] resident (snoop / shared-L2
 * hit, short t1-t0); secret=0 leaves it flushed (memory fill, long
 * t1-t0) — the bit is readable across cores. Undo-based defenses
 * roll the transient install back out of L1 and L2, and the
 * coherence engine's dummy-miss / delayed-downgrade path hides any
 * still-speculative copy, so both secrets time as misses.
 */

#ifndef UNXPEC_ATTACK_CROSS_CORE_HH
#define UNXPEC_ATTACK_CROSS_CORE_HH

#include <cstdint>
#include <vector>

#include "attack/unxpec.hh"
#include "cpu/program.hh"
#include "machine/machine.hh"
#include "sim/types.hh"

namespace unxpec {

/** Orchestrates cross-core unXpec rounds on a multi-core Machine. */
class CrossCoreAttack
{
  public:
    /** Requires machine.numCores() >= 2 (fatal otherwise). */
    CrossCoreAttack(Machine &machine, const UnxpecConfig &cfg = {});

    /** Write the one-bit secret the sender will transmit. */
    void setSecret(int bit);

    /**
     * One round: sender program on core 0, then the receiver probe on
     * core 1. Returns the receiver-observed probe latency t1 - t0.
     */
    double measureOnce();

    /** Collect `samples` measurements for a fixed secret. */
    std::vector<double> collect(int secret, unsigned samples);

    /**
     * Calibrate the decode threshold (receiver training phase). The
     * cross-core channel is inverted relative to the same-core
     * Flush+Reload decoders: secret=1 leaves the probe line resident
     * (snoop / shared-L2 hit), so it times FASTER. The returned
     * threshold therefore lives in the negated-latency domain and is
     * only meaningful to pass back into leak().
     */
    double calibrate(unsigned samples_per_secret);

    /**
     * ROC AUC of the receiver's classifier over `samples_per_secret`
     * fresh measurements per secret value (channel-quality metric:
     * 1.0 = perfectly separable, 0.5 = closed channel). Computed on
     * negated latencies so that, as everywhere else in the harness,
     * 1.0 (not 0.0) means a perfectly leaky channel.
     */
    double aucScore(unsigned samples_per_secret);

    /** Leak a bit string, one sample per bit (threshold from
     *  calibrate(); LeakResult::latencies stay raw cycles). */
    LeakResult leak(const std::vector<int> &secret_bits, double threshold);

    /** Mean simulated cycles consumed per measurement, both cores. */
    double cyclesPerSample() const;

    const Program &senderProgram() const { return sender_; }
    const Program &receiverProgram() const { return receiver_; }

  private:
    void buildPrograms();

    Machine &machine_;
    UnxpecConfig cfg_;
    Program sender_;
    Program receiver_;

    // Data-segment layout: allocated once by the sender's builder (the
    // cores share one MainMemory, so the receiver reuses the addresses
    // as immediates instead of re-allocating over them).
    Addr secretAddr_ = 0;
    Addr rxLatBase_ = 0;
    Addr rxT0Base_ = 0;
    unsigned trials_ = 0;

    bool dataLoaded_ = false;
    std::uint64_t totalRuns_ = 0;
    std::uint64_t totalCycles_ = 0;
};

} // namespace unxpec

#endif // UNXPEC_ATTACK_CROSS_CORE_HH
