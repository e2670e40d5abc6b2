/**
 * @file
 * Figure 12: performance overhead of relaxed constant-time rollback
 * over the SPEC-CPU-2017-like synthetic suite, for constants of 25,
 * 30, 35, 45, and 65 cycles, normalized to the unsafe baseline.
 * Paper: average 22.4 % at 25 cycles up to 72.8 % at 65 cycles; the
 * "no const" CleanupSpec bar is small.
 *
 * The real SPEC CPU 2017 binaries are license-protected (the paper's
 * artifact excludes them too); see DESIGN.md for the substitution.
 */

#include <iostream>
#include <vector>

#include "analysis/table.hh"
#include "harness/cli.hh"
#include "harness/session.hh"
#include "workload/synth_spec.hh"

using namespace unxpec;

namespace {

constexpr unsigned kConstants[] = {0, 25, 30, 35, 45, 65};

} // namespace

int
main(int argc, char **argv)
{
    HarnessCli cli("fig12_const_rollback_overhead",
                   "Figure 12: constant-time rollback overhead over the "
                   "synthetic SPEC-2017 suite");
    cli.scaleOption("instructions per benchmark", 100000);
    const HarnessOptions opt = cli.parse(argc, argv);
    const std::uint64_t max_inst = opt.scale;
    const std::uint64_t warmup = max_inst / 5;

    std::vector<ExperimentSpec> specs;
    const std::vector<WorkloadProfile> suite = SynthSpec::suite();
    for (std::size_t w = 0; w < suite.size(); ++w) {
        for (std::size_t c = 0; c < std::size(kConstants); ++c) {
            const unsigned constant = kConstants[c];
            ExperimentSpec spec = cli.baseSpec(opt);
            spec.label = suite[w].name + "/const=" +
                         std::to_string(constant);
            spec.workload = suite[w].name;
            spec.attack = "none";
            spec.tweak = [constant](SystemConfig &cfg) {
                cfg.cleanupTiming.constantTimeCycles = constant;
            };
            spec.with("workload", static_cast<double>(w))
                .with("constant", constant);
            specs.push_back(std::move(spec));
        }
    }

    const ExperimentResult result = runExperiment(
        cli, opt, specs, [max_inst, warmup](const TrialContext &ctx) {
            // The unsafe baseline shares the trial seed so jittered
            // components (if any) see the same randomness.
            const double base =
                postWarmupCycles(makeDefense("unsafe"), ctx.spec.workload,
                                 ctx.seed, max_inst, warmup);

            const Program program = SynthSpec::generate(
                SynthSpec::profile(ctx.spec.workload), kOverheadProgramSeed);
            RunOptions options;
            options.maxInstructions = max_inst;
            options.warmupInstructions = warmup;
            Session session(ctx);
            const RunResult run = session.core().run(program, options);
            const double measured =
                static_cast<double>(run.cycles - run.warmupCycles);

            TrialOutput out;
            out.metric("overhead_pct", (measured / base - 1.0) * 100.0);
            out.metric("cycles", measured);
            out.metric("baseline_cycles", base);
            return out;
        });

    std::cout << "=== Figure 12: constant-time rollback overhead "
              << "(" << max_inst << " insts/benchmark, " << warmup
              << " warmup) ===\n\n";

    TextTable table({"benchmark", "no const", "const=25", "const=30",
                     "const=35", "const=45", "const=65"});
    std::vector<double> sums(std::size(kConstants), 0.0);
    for (std::size_t w = 0; w < suite.size(); ++w) {
        std::vector<std::string> row = {suite[w].name};
        for (std::size_t c = 0; c < std::size(kConstants); ++c) {
            const double overhead =
                result.rowAt({{"workload", static_cast<double>(w)},
                              {"constant", kConstants[c]}})
                    .mean("overhead_pct");
            sums[c] += overhead;
            row.push_back(TextTable::num(overhead) + "%");
        }
        table.addRow(row);
    }

    std::vector<std::string> avg = {"AVERAGE"};
    for (const double sum : sums)
        avg.push_back(TextTable::num(sum / suite.size()) + "%");
    table.addRow(avg);
    table.print(std::cout);

    std::cout << "\npaper averages: 22.4% (const=25) ... 72.8% (const=65); "
                 "plain CleanupSpec ~5%\n";
    return finishExperiment(result, opt);
}
