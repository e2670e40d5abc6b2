/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * All stochastic behaviour in the simulator (random replacement, CEASER
 * index keys, DRAM jitter, noise spikes, workload generation) draws from
 * an explicitly seeded Xoshiro256** generator so every experiment is
 * reproducible from its seed.
 *
 * The seed reaches a simulated run only through these consumers: the
 * Core's Rng (ReplPolicy::Random, MemoryConfig::jitterSigma,
 * CleanupTiming::fuzzyMaxCycles and interrupt noise) and the CEASER
 * index keys derived from SystemConfig::seed. The overhead memo
 * (workload/synth_spec.hh, seedFree()) relies on this list to share one
 * run between seeds, so a new consumer must be added there too. The
 * memo's guard panics on a missed Rng draw, but it cannot see a new
 * direct use of the seed.
 */

#ifndef UNXPEC_SIM_RNG_HH
#define UNXPEC_SIM_RNG_HH

#include <cstdint>

namespace unxpec {

/**
 * Xoshiro256** PRNG (Blackman & Vigna). Small, fast, and good enough
 * statistical quality for microarchitectural simulation.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded via SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Re-seed the generator, fully resetting its state. */
    void seed(std::uint64_t seed);

    /**
     * Derive the seed of an independent stream from a master seed.
     * Stream k receives the k-th output of a SplitMix64 generator
     * seeded with `master`, so per-trial generators are decorrelated
     * yet fully reproducible: the same (master, stream) pair always
     * yields the same seed, regardless of derivation order — the
     * property the parallel TrialRunner relies on for bit-identical
     * serial and multi-threaded results.
     */
    static std::uint64_t deriveSeed(std::uint64_t master,
                                    std::uint64_t stream);

    /**
     * Seed for retry `attempt` of a trial stream. Attempt 0 is exactly
     * deriveSeed(master, stream), so campaigns without retries are
     * bit-identical to the pre-retry harness; attempt k > 0 derives a
     * fresh stream from the trial's own seed in a salted namespace that
     * cannot collide with any first-attempt stream of the same master.
     * Deterministic: resuming a campaign re-derives the same sequence.
     */
    static std::uint64_t deriveRetrySeed(std::uint64_t master,
                                         std::uint64_t stream,
                                         unsigned attempt);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound), bound > 0. Debiased via rejection. */
    std::uint64_t range(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Standard normal variate (Box-Muller, cached pair). */
    double gaussian();

    /** Gaussian with explicit mean and standard deviation. */
    double gaussian(double mean, double sigma) { return mean + sigma * gaussian(); }

    /** Bernoulli trial with probability p of returning true. */
    bool chance(double p) { return uniform() < p; }

    /** Equal state: the two generators yield the same stream. */
    bool operator==(const Rng &) const = default;

  private:
    std::uint64_t state_[4];
    double cachedGaussian_ = 0.0;
    bool hasCachedGaussian_ = false;
};

} // namespace unxpec

#endif // UNXPEC_SIM_RNG_HH
