/**
 * @file
 * Countermeasure exploration (paper §VI-E and §VII): sweep relaxed
 * constant-time rollback and the fuzzy dummy-cleanup mitigation, and
 * chart the security/performance trade-off: attack accuracy on one
 * axis, workload slowdown on the other. Every mitigation is one
 * ExperimentSpec; the TrialRunner measures them in parallel.
 *
 *   $ ./mitigation_sweep [--reps N] [--threads T] [--json out]
 */

#include <iostream>
#include <vector>

#include "analysis/table.hh"
#include "harness/cli.hh"
#include "harness/session.hh"
#include "sim/rng.hh"
#include "workload/synth_spec.hh"

using namespace unxpec;

namespace {

/** Seed of the fixed random secret (same pattern as the seed bench). */
constexpr std::uint64_t kSecretSeed = 99;

constexpr unsigned kBits = 150;

/** Attack accuracy over kBits random bits under the spec's mitigation
 *  (evaluation noise, like the paper's §VI setting). */
double
attackAccuracy(const ExperimentSpec &spec, std::uint64_t seed)
{
    ExperimentSpec noisy = spec;
    noisy.noise = "evaluation";
    Session session(noisy, seed);
    UnxpecAttack &attack = session.unxpec();
    const double threshold = attack.calibrate(100);
    Rng rng(kSecretSeed);
    std::vector<int> secret;
    for (unsigned i = 0; i < kBits; ++i)
        secret.push_back(static_cast<int>(rng.range(2)));
    return attack.leak(secret, threshold).accuracy;
}

/** Mean slowdown of a small workload sample vs the unsafe baseline. */
double
workloadSlowdown(const SystemConfig &cfg, std::uint64_t seed)
{
    const std::vector<const char *> picks = {"mcf_r", "leela_r",
                                             "imagick_r"};
    double total = 0.0;
    for (const char *name : picks) {
        const double base = postWarmupCycles(makeDefense("unsafe"), name, seed);
        total += postWarmupCycles(cfg, name, seed) / base;
    }
    return (total / picks.size() - 1.0) * 100.0;
}

} // namespace

int
main(int argc, char **argv)
{
    HarnessCli cli("mitigation_sweep",
                   "Mitigation trade-off: attack accuracy vs workload "
                   "overhead per countermeasure");
    const HarnessOptions opt = cli.parse(argc, argv);

    std::vector<ExperimentSpec> specs;
    {
        ExperimentSpec spec = cli.baseSpec(opt);
        spec.label = "none (plain CleanupSpec)";
        specs.push_back(std::move(spec));
    }
    for (const unsigned constant : {25u, 45u, 65u}) {
        ExperimentSpec spec = cli.baseSpec(opt);
        spec.label = "constant-time " + std::to_string(constant) +
                     " cycles";
        spec.tweak = [constant](SystemConfig &cfg) {
            cfg.cleanupTiming.constantTimeCycles = constant;
        };
        spec.with("constant", constant);
        specs.push_back(std::move(spec));
    }
    for (const unsigned fuzzy : {20u, 40u, 80u}) {
        ExperimentSpec spec = cli.baseSpec(opt);
        spec.label = "fuzzy dummy-cleanup <=" + std::to_string(fuzzy) +
                     " cycles";
        spec.tweak = [fuzzy](SystemConfig &cfg) {
            cfg.cleanupTiming.fuzzyMaxCycles = fuzzy;
        };
        spec.with("fuzzy", fuzzy);
        specs.push_back(std::move(spec));
    }

    const ExperimentResult result = runExperiment(
        cli, opt, specs, [](const TrialContext &ctx) {
            TrialOutput out;
            out.metric("accuracy",
                       attackAccuracy(ctx.spec,
                                      Rng::deriveSeed(ctx.seed, 0)));
            out.metric("overhead_pct",
                       workloadSlowdown(
                           Session::configFor(ctx.spec,
                                              Rng::deriveSeed(ctx.seed, 1)),
                           Rng::deriveSeed(ctx.seed, 1)));
            return out;
        });

    std::cout << "=== Mitigation trade-off: accuracy vs overhead ===\n\n";
    TextTable table({"mitigation", "attack accuracy", "workload overhead"});
    for (const ResultRow &row : result.rows) {
        table.addRow({row.label,
                      TextTable::num(row.mean("accuracy") * 100) + "%",
                      TextTable::num(row.mean("overhead_pct")) + "%"});
    }
    table.print(std::cout);

    std::cout << "\nReading: constant-time rollback closes the channel "
                 "(accuracy ~50 %) but costs 20-70 %\nperformance; the "
                 "paper's §VII fuzzy-cleanup idea degrades the attack at "
                 "a fraction of the cost\n(more samples per bit would "
                 "recover some accuracy — see §VI-D).\n";
    return finishExperiment(result, opt);
}
