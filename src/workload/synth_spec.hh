/**
 * @file
 * Synthetic stand-ins for the SPEC CPU 2017 rate suite used by the
 * paper's Figure 12 (the real benchmarks are license-protected and,
 * as in the paper's own artifact, not distributable). Each profile
 * pins the two quantities the constant-time-rollback overhead actually
 * depends on — squash frequency (hard-to-predict branch density) and
 * memory behaviour (working-set size, load/store density) — so the
 * overhead *shape* across the suite is preserved even though the
 * computation itself is synthetic.
 */

#ifndef UNXPEC_WORKLOAD_SYNTH_SPEC_HH
#define UNXPEC_WORKLOAD_SYNTH_SPEC_HH

#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "cpu/program.hh"
#include "sim/config.hh"

namespace unxpec {

/** Instruction-mix profile of one synthetic benchmark. */
struct WorkloadProfile
{
    std::string name;
    /** Data-dependent (hence ~50 % mispredicted) branches per 1000
     *  emitted instructions. */
    unsigned ddBranchesPerK = 10;
    /** Load elements per 1000 instructions. */
    unsigned loadsPerK = 150;
    /** Store elements per 1000 instructions. */
    unsigned storesPerK = 50;
    /** Working-set size touched by the memory stream. */
    unsigned workingSetKB = 256;
    /** Fraction of ALU filler using the long-latency multiplier. */
    double mulFraction = 0.1;
    /**
     * Fraction of loads hitting a small hot region (locality). Keeps
     * the CleanupSpec property that >95 % of transient loads hit the
     * cache and need no rollback (paper §VI-E).
     */
    double hotFraction = 0.85;
};

/** Generators for the SPEC-2017-like suite. */
class SynthSpec
{
  public:
    /** The twelve profiles mirroring the paper's Figure 12 suite. */
    static std::vector<WorkloadProfile> suite();

    /** Profile by benchmark name; fatal on unknown names. */
    static WorkloadProfile profile(const std::string &name);

    /**
     * Generate a looped program realizing the profile. The loop body
     * holds roughly `body_instructions` instructions; the program
     * loops `iterations` times (run with RunOptions::maxInstructions
     * to cap work instead, as the Fig. 12 harness does).
     */
    static Program generate(const WorkloadProfile &profile,
                            std::uint64_t seed,
                            unsigned body_instructions = 1000,
                            std::uint64_t iterations = 1u << 30);
};

/** Program-generation seed of every overhead measurement. */
constexpr std::uint64_t kOverheadProgramSeed = 42;

/**
 * True when a run on `cfg` never reads its seed: no cache uses
 * IndexPolicy::Ceaser or ReplPolicy::Random, DRAM has no jitter and
 * squashes get no fuzzy stall. These are every seed consumer that
 * src/sim/rng.hh lists except interrupt noise, which no overhead core
 * gets. Such a run returns the same cycles for every seed, so the
 * overhead memo may share one simulation between all of them.
 */
bool seedFree(const SystemConfig &cfg);

/**
 * One claim on an overhead run: the post-warmup cycles of a fresh Core
 * on `cfg`, seeded with `seed`, running the `profile` program
 * (generated from kOverheadProgramSeed) for `instructions`
 * instructions after dropping the cycles of the first `warmup`.
 *
 * A seed-free configuration goes through a process-wide memo keyed on
 * the configuration without its seed, the profile and both counts. Its
 * first claimant simulates in the constructor; every later claimant
 * shares that result, and cycles() waits only while the first is still
 * in flight. Any other configuration simulates in cycles(). A trial
 * therefore claims at its start and reads after its attack: the first
 * rep of a key pays for the run, the others overlap it.
 */
class OverheadClaim
{
  public:
    OverheadClaim(SystemConfig cfg, const std::string &profile,
                  std::uint64_t seed, std::uint64_t instructions = 40000,
                  std::uint64_t warmup = 8000);

    /** The post-warmup cycles. Read once: a claim outside the memo
     *  simulates on every call. */
    double cycles();

  private:
    SystemConfig cfg_;
    std::string profile_;
    std::uint64_t instructions_;
    std::uint64_t warmup_;
    /** The memo's result; invalid when the claim is outside the memo. */
    std::shared_future<double> shared_;
};

/**
 * Post-warmup cycles of one synthetic workload, through the memo when
 * `cfg` is seed-free (see OverheadClaim). An overhead is the ratio of
 * two of these, a defense's over the unsafe baseline's.
 */
double postWarmupCycles(SystemConfig cfg, const std::string &profile,
                        std::uint64_t seed,
                        std::uint64_t instructions = 40000,
                        std::uint64_t warmup = 8000);

/** Overhead simulations this process has run: memo misses plus every
 *  run of a configuration that is not seed-free. */
std::uint64_t overheadSimulations();

} // namespace unxpec

#endif // UNXPEC_WORKLOAD_SYNTH_SPEC_HH
