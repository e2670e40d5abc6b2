/**
 * @file
 * The unXpec attack (paper §V, Fig. 4). One program run performs
 * `mistrainIterations` in-bounds executions of the sender branch (the
 * POISON phase) followed by one out-of-bounds round whose observed
 * latency encodes the secret bit:
 *
 *   preparation   mistrain branch; clflush the f(N) chain and
 *                 P[64*1..64*n]; load P[0]; (optionally prime the L1
 *                 sets of P[64*k] with eviction sets)
 *   measurement   FENCE; t0 = rdtscp; resolve `if (index < f(N))`
 *                 while the transient body loads P[secret*64*k];
 *                 mis-speculation detected -> CleanupSpec rollback;
 *                 t1 = rdtscp on the redirected correct path
 *
 * secret=0: the transient loads hit P[0] (pre-loaded), nothing to roll
 * back, t1-t0 is short. secret=1: the loads install P[64*k] (flushed),
 * rollback invalidates them (and restores primed victims), t1-t0 is
 * ~22 (or ~32 with eviction sets) cycles longer.
 */

#ifndef UNXPEC_ATTACK_UNXPEC_HH
#define UNXPEC_ATTACK_UNXPEC_HH

#include <cstdint>
#include <vector>

#include "cpu/core.hh"
#include "cpu/program.hh"
#include "sim/types.hh"

namespace unxpec {

/** Attack parameters (paper §V-C discusses their tuning). */
struct UnxpecConfig
{
    /** Loads inside the transient branch (n of Algorithm 2). */
    unsigned inBranchLoads = 1;
    /** Dependent memory accesses in the branch condition (N of f(N)). */
    unsigned conditionAccesses = 1;
    /**
     * Dependent ALU operations appended to f(N) before the compare;
     * the paper's knob for making branch resolution "sufficiently long
     * to cover the execution of transient instructions" (§IV-A).
     */
    unsigned conditionPadding = 37;
    /** Prime P[64*k] sets to force restorations (§V-B optimization). */
    bool useEvictionSets = false;
    /** In-bounds POISON executions before the out-of-bounds round. */
    unsigned mistrainIterations = 16;
    /**
     * Flush+Reload persistence tail: after the squash window, time a
     * reload of P[64] (the k=1 transient target) and fold it into the
     * reported latency. Defenses that leave transient installs behind
     * (the unsafe baseline) make the reload hit iff secret=1 — the
     * classic persistent-state channel; undo and invisible defenses
     * make it miss either way, adding only a constant. Off by default:
     * the figure benches measure the bare rollback window.
     */
    bool probePersistence = false;

    /** Every field takes part: CorePool's attack cache and the matrix
     *  trial memo key on it. */
    bool operator==(const UnxpecConfig &) const = default;
};

/**
 * Named preset of the attack, registered for selection by name from
 * the experiment harness (`--mode`-style CLI flags, ExperimentSpec
 * files). New variants defined here become selectable everywhere
 * without touching the harness.
 */
struct UnxpecVariant
{
    const char *name;        //!< registry key, e.g. "unxpec-evset"
    const char *description; //!< one-line help text
    void (*apply)(UnxpecConfig &cfg); //!< configure a base UnxpecConfig
};

/** Built-in attack variants (paper §V-B/§V-C operating points). */
const std::vector<UnxpecVariant> &unxpecVariants();

/** Per-round instrumentation extracted from the cleanup log. */
struct RoundDetail
{
    double latency = 0.0;        //!< receiver-observed t1 - t0
    Cycle t0 = 0;                //!< first timestamp (absolute cycle)
    Cycle branchResolution = 0;  //!< T1-T2: t0 to mis-speculation detect
    Cycle cleanupStall = 0;      //!< T5 stall charged by the rollback
    unsigned invalidationsL1 = 0;
    unsigned invalidationsL2 = 0;
    unsigned restores = 0;
    bool valid = false;          //!< squash located in the cleanup log
};

/** Outcome of leaking a bit string. */
struct LeakResult
{
    std::vector<int> guesses;
    std::vector<double> latencies;
    double accuracy = 0.0;
};

/** Orchestrates unXpec rounds on a core. */
class UnxpecAttack
{
  public:
    UnxpecAttack(Core &core, const UnxpecConfig &cfg = {});

    /** Write the one-bit secret the sender will transmit. */
    void setSecret(int bit);

    /** One program run (POISON + one measured round). */
    double measureOnce();

    /** Instrumentation for the most recent measured round. */
    const RoundDetail &lastDetail() const { return last_; }

    /** Collect `samples` measurements for a fixed secret. */
    std::vector<double> collect(int secret, unsigned samples);

    /**
     * Calibrate the decode threshold from `samples` measurements per
     * secret value (the receiver's training phase).
     */
    double calibrate(unsigned samples_per_secret);

    /**
     * Leak a bit string (paper §VI-C), deciding each bit by majority
     * vote over `samples_per_bit` measurements (§VI-D: more samples
     * suppress noise; one sample is a plain threshold decode).
     * LeakResult::latencies keeps each bit's first measurement.
     */
    LeakResult leak(const std::vector<int> &secret_bits, double threshold,
                    unsigned samples_per_bit = 1);

    /** Mean simulated cycles consumed per measurement (sample). */
    double cyclesPerSample() const;

    /**
     * Restore freshly-constructed per-trial state so a cached attack
     * can serve a new trial on the same (re-seeded) core. The program
     * and data layout are a pure function of (core config, cfg) — no
     * randomness enters construction — so only the mutable trial
     * state needs clearing; a reset attack behaves bit-identically to
     * a newly constructed one (CorePool attack cache).
     */
    void resetTrialState();

    const Program &program() const { return program_; }

  private:
    void buildProgram();

    Core &core_;
    UnxpecConfig cfg_;
    Program program_;

    // Data-segment addresses read after the build.
    Addr secretAddr_ = 0;
    Addr latBase_ = 0;
    Addr t0Base_ = 0;
    unsigned trials_ = 0;

    bool dataLoaded_ = false;
    RoundDetail last_;
    std::uint64_t totalRuns_ = 0;
    std::uint64_t totalCycles_ = 0;
};

} // namespace unxpec

#endif // UNXPEC_ATTACK_UNXPEC_HH
