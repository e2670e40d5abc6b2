/**
 * @file
 * SpectreRewind-style functional-unit contention receiver (Fustos et
 * al., 2020): a transient sender that issues a burst of multiplies on a
 * *non-pipelined* multiplier (CoreConfig::mulPipelined = false). The FU
 * busy window is physical — it survives the squash — so a receiver on
 * the correct path times a short dependent multiply chain right after
 * the squash and observes the leftover contention.
 *
 * Unlike unXpec this channel never touches the cache: the transient
 * body is pure ALU work and every load in the program hits. Defenses
 * that hide or roll back speculative *cache* state — SafeSpec, SpecBox,
 * InvisiSpec, CleanupSpec, CacheSquash, delay-on-miss — are blind to
 * it, which is exactly the point the attack x defense matrix makes:
 * closing the cache-state channel does not close speculation's timing
 * side effects in general.
 *
 * Program structure (one run = mistrainIterations in-bounds rounds plus
 * one measured out-of-bounds round):
 *
 *   outer   if (index < bound) ...     trained not-taken-to-skip; the
 *           bound is a warm pointer chase plus a dependent ALU padding
 *           chain, so resolution takes ~conditionPadding cycles and
 *           covers the transient body (all of it cache-warm);
 *   inner   if (secret == 0) goto skip trained taken (training secret
 *           A[0] = 0). secret=1 mispredicts transiently: the redirect
 *           falls into `transientMuls` independent multiplies that
 *           saturate the non-pipelined FU;
 *   skip    t0 = rdtscp; `probeMuls` multiplies dependent on t0 (so
 *           they can never issue transiently); t1 = rdtscp.
 *
 * secret=0: no transient multiplies, t1-t0 is the bare probe chain.
 * secret=1: the probe queues behind the squashed burst's busy window.
 * With a pipelined multiplier (the default core) the busy window never
 * forms and the channel vanishes — the negative control.
 */

#ifndef UNXPEC_ATTACK_CONTENTION_HH
#define UNXPEC_ATTACK_CONTENTION_HH

#include <cstdint>
#include <vector>

#include "cpu/core.hh"
#include "cpu/program.hh"
#include "sim/types.hh"

namespace unxpec {

/** Contention-receiver parameters. */
struct ContentionConfig
{
    /** Transient multiply burst saturating the non-pipelined FU. */
    unsigned transientMuls = 24;
    /** Dependent multiplies in the receiver's probe chain. */
    unsigned probeMuls = 4;
    /** Warm pointer-chase accesses in the outer branch condition. */
    unsigned conditionAccesses = 1;
    /**
     * Dependent ALU padding after the chase: sets the outer branch's
     * resolution time, i.e. how long the transient window stays open
     * for the burst to issue. Cache-independent by construction.
     */
    unsigned conditionPadding = 48;
    /** In-bounds trainings before the out-of-bounds round. */
    unsigned mistrainIterations = 16;
};

/** Orchestrates contention rounds on a core. */
class ContentionAttack
{
  public:
    /**
     * The core should be configured with mulPipelined = false for the
     * channel to exist; a pipelined core is accepted (it is the
     * negative control) and simply measures nothing.
     */
    ContentionAttack(Core &core, const ContentionConfig &cfg = {});

    /** Write the one-bit secret the sender will transmit. */
    void setSecret(int bit);

    /** One program run (training + one measured round). @return the
     *  receiver-observed probe latency t1 - t0. */
    double measureOnce();

    /** Collect `samples` measurements for a fixed secret. */
    std::vector<double> collect(int secret, unsigned samples);

    /** Mean simulated cycles consumed per measurement (sample). */
    double cyclesPerSample() const;

    const Program &program() const { return program_; }

  private:
    void buildProgram();

    Core &core_;
    ContentionConfig cfg_;
    Program program_;

    // Data-segment layout.
    Addr secretAddr_ = 0;
    Addr latBase_ = 0;
    unsigned trials_ = 0;

    bool dataLoaded_ = false;
    std::uint64_t totalRuns_ = 0;
    std::uint64_t totalCycles_ = 0;
};

} // namespace unxpec

#endif // UNXPEC_ATTACK_CONTENTION_HH
