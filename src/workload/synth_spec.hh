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
 * Post-warmup cycles of one synthetic workload: a fresh Core on `cfg`,
 * seeded with `seed`, runs the `profile` program (generated from
 * kOverheadProgramSeed) for `instructions` instructions and drops the
 * cycles of the first `warmup`. An overhead is the ratio of two of
 * these, a defense's over the unsafe baseline's.
 */
double postWarmupCycles(SystemConfig cfg, const std::string &profile,
                        std::uint64_t seed,
                        std::uint64_t instructions = 40000,
                        std::uint64_t warmup = 8000);

} // namespace unxpec

#endif // UNXPEC_WORKLOAD_SYNTH_SPEC_HH
