/**
 * @file
 * Tests of the matrix-trial memo behind matrixTrialFn: a memoized
 * trial equals a fresh simulation on every registered defense,
 * receiver and noise profile, the key tells apart every input but the
 * seed, each ineligibility alone makes every claim simulate,
 * concurrent claimants of one key share a single simulation, and the
 * TrialRunner dispatches every spec's first rep before the rest
 * without changing any output at any thread count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "harness/matrix.hh"
#include "harness/session.hh"
#include "harness/spec.hh"
#include "harness/trial_runner.hh"
#include "sim/rng.hh"
#include "sim/trace.hh"
#include "workload/synth_spec.hh"

namespace unxpec {
namespace {

// Few samples keep the sweep fast; the memo is keyed per closure, and
// every closure here uses the same sample count.
constexpr unsigned kSamples = 3;

/** The matrix spec of one cell under `noise` on `cores` cores. */
ExperimentSpec
cellSpec(const std::string &defense, const std::string &receiver,
         const std::string &noise = "quiet", unsigned cores = 1)
{
    ExperimentSpec base;
    base.noise = noise;
    base.cores = cores;
    for (ExperimentSpec &spec : matrixSpecs(base, true)) {
        if (spec.label == defense + "/" + receiver)
            return spec;
    }
    ADD_FAILURE() << "no matrix cell " << defense << "/" << receiver;
    return base;
}

/** Run `fn` on `spec` as rep `rep` with `seed`, outside a runner. */
TrialOutput
runTrial(const TrialFn &fn, const ExperimentSpec &spec, std::uint64_t seed,
         unsigned rep = 0, Tracer *tracer = nullptr)
{
    TrialContext ctx{spec, 0, rep, seed, 1, nullptr};
    ctx.tracer = tracer;
    return fn(ctx);
}

/** The trial simulated afresh: a new closure has an empty memo. */
TrialOutput
freshTrial(const ExperimentSpec &spec, std::uint64_t seed)
{
    return runTrial(matrixTrialFn(kSamples), spec, seed);
}

void
expectSameMeasurements(const TrialOutput &a, const TrialOutput &b,
                       const std::string &what)
{
    EXPECT_EQ(a.metrics, b.metrics) << what;
    EXPECT_EQ(a.series, b.series) << what;
}

/** True when the cell's trial may use the memo on its own config. */
bool
seedFreeCell(const ExperimentSpec &spec)
{
    return seedFree(Session::configFor(spec, 1)) &&
           noiseProfile(spec.noise).interruptProbPerCycle == 0.0;
}

TEST(TrialMemoTest, MemoizedEqualsFreshOnEveryDefenseReceiverAndNoise)
{
    unsigned memoized = 0;
    for (const unsigned cores : {1u, 4u}) {
        for (const auto &[defense, d_desc] : defenseNames()) {
            for (const std::string &receiver : matrixReceivers()) {
                for (const auto &[noise, n_desc] : noiseNames()) {
                    // Four cores only under quiet: the wide machine
                    // adds no seed consumer, and the sweep stays short.
                    if (cores > 1 && noise != "quiet")
                        continue;
                    const ExperimentSpec spec =
                        cellSpec(defense, receiver, noise, cores);
                    const TrialFn memo = matrixTrialFn(kSamples);
                    const std::uint64_t before = matrixTrialSimulations();
                    for (const std::uint64_t seed : {1ull, 7ull, 99ull}) {
                        const std::string what = spec.label + " / " +
                            noise + " / " + std::to_string(cores) +
                            " cores / seed " + std::to_string(seed);
                        expectSameMeasurements(runTrial(memo, spec, seed),
                                               freshTrial(spec, seed), what);
                    }
                    // The three memo claims plus three fresh runs.
                    const std::uint64_t simulated =
                        matrixTrialSimulations() - before;
                    if (seedFreeCell(spec)) {
                        ++memoized;
                        EXPECT_EQ(simulated, 4u) << spec.label << " / "
                                                 << noise;
                    } else {
                        EXPECT_EQ(simulated, 6u) << spec.label << " / "
                                                 << noise;
                    }
                }
            }
        }
    }
    // The sweep must exercise the memo, not only the fallback.
    EXPECT_GT(memoized, 0u);
}

TEST(TrialMemoTest, KeyHoldsEveryInputButTheSeed)
{
    const ExperimentSpec base = cellSpec("unsafe", "unxpec");
    // Each variant differs from `base` in one key field only; the
    // configs stay equal.
    ExperimentSpec label = base;
    label.label = "unsafe/contention"; // the label picks the receiver
    ExperimentSpec attack = base;
    attack.attack = "unxpec";
    ExperimentSpec attack_cfg = base;
    attack_cfg.attackCfg.conditionPadding += 8;
    registerNoise("trial_memo_silent", "quiet under another name",
                  NoiseProfile::quiet());
    ExperimentSpec noise = base;
    noise.noise = "trial_memo_silent";

    const TrialFn fn = matrixTrialFn(kSamples);
    const std::uint64_t before = matrixTrialSimulations();
    for (const ExperimentSpec &spec :
         {base, label, attack, attack_cfg, noise}) {
        ASSERT_TRUE(seedFreeCell(spec));
        const std::string what =
            spec.label + " / " + spec.attack + " / " + spec.noise;
        expectSameMeasurements(runTrial(fn, spec, 3), freshTrial(spec, 3),
                               what);
    }
    // Five distinct keys, each simulated once, plus five fresh runs.
    EXPECT_EQ(matrixTrialSimulations() - before, 10u);
}

/** Simulations of two claims (seeds 1 and 2) of `spec` on one memo. */
std::uint64_t
simulationsOfTwoClaims(const ExperimentSpec &spec, Tracer *tracer = nullptr)
{
    const TrialFn fn = matrixTrialFn(kSamples);
    const std::uint64_t before = matrixTrialSimulations();
    for (const std::uint64_t seed : {1ull, 2ull})
        runTrial(fn, spec, seed, 0, tracer);
    return matrixTrialSimulations() - before;
}

TEST(TrialMemoTest, EachIneligibilityAloneSimulatesEveryClaim)
{
    const ExperimentSpec base = cellSpec("unsafe", "unxpec");
    ASSERT_TRUE(seedFreeCell(base));
    EXPECT_EQ(simulationsOfTwoClaims(base), 1u);

    Tracer tracer;
    EXPECT_EQ(simulationsOfTwoClaims(base, &tracer), 2u) << "tracer";

    // Interrupts alone: a seed-free config under a profile whose only
    // noise is the Core's interrupt draw.
    NoiseProfile interrupts;
    interrupts.interruptProbPerCycle = 0.001;
    interrupts.interruptStallMin = 10;
    interrupts.interruptStallMax = 40;
    registerNoise("trial_memo_interrupts", "interrupts, no DRAM jitter",
                  interrupts);
    ExperimentSpec noisy = base;
    noisy.noise = "trial_memo_interrupts";
    ASSERT_TRUE(seedFree(Session::configFor(noisy, 1)));
    EXPECT_EQ(simulationsOfTwoClaims(noisy), 2u) << "interrupt noise";

    // One seed consumer alone: random L1D replacement.
    ExperimentSpec random = base;
    random.tweak = [](SystemConfig &cfg) {
        cfg.l1d.repl = ReplPolicy::Random;
    };
    ASSERT_FALSE(seedFree(Session::configFor(random, 1)));
    EXPECT_EQ(simulationsOfTwoClaims(random), 2u) << "not seed-free";
}

TEST(TrialMemoTest, ConcurrentClaimantsShareOneSimulation)
{
    const ExperimentSpec spec = cellSpec("safespec", "contention");
    ASSERT_TRUE(seedFreeCell(spec));
    const TrialFn fn = matrixTrialFn(kSamples);
    const std::uint64_t before = matrixTrialSimulations();

    std::vector<TrialOutput> outputs(4);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < outputs.size(); ++i) {
        threads.emplace_back([&outputs, &fn, &spec, i] {
            // Each claimant brings its own seed and rep: the key
            // ignores both.
            outputs[i] = runTrial(fn, spec, Rng::deriveSeed(9, i), i);
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(matrixTrialSimulations() - before, 1u);
    for (const TrialOutput &output : outputs)
        expectSameMeasurements(output, outputs[0], "claimant");
    expectSameMeasurements(outputs[0], freshTrial(spec, 5), "fresh");
}

TEST(TrialRunnerOrderTest, FirstRepOfEverySpecStartsFirst)
{
    std::vector<ExperimentSpec> specs(5);
    for (std::size_t i = 0; i < specs.size(); ++i)
        specs[i].label.append("s").append(std::to_string(i));
    constexpr unsigned reps = 3;

    // One worker starts trials in dispatch order.
    std::atomic<unsigned> counter{0};
    std::vector<unsigned> start(specs.size() * reps);
    TrialRunner(1).run(specs, reps, 42, [&](const TrialContext &ctx) {
        start[ctx.specIndex * reps + ctx.rep] = counter++;
        return TrialOutput{};
    });

    for (std::size_t s = 0; s < specs.size(); ++s) {
        // Rep 0 of spec s is the s-th trial to start...
        EXPECT_EQ(start[s * reps], s) << "spec " << s;
        // ...and the later reps follow in job order.
        for (unsigned rep = 1; rep < reps; ++rep) {
            EXPECT_EQ(start[s * reps + rep],
                      specs.size() + s * (reps - 1) + rep - 1)
                << "spec " << s << " rep " << rep;
        }
    }
}

TEST(TrialRunnerOrderTest, MatrixOutputsMatchAtAnyThreadCount)
{
    const std::vector<ExperimentSpec> specs =
        matrixSpecs(ExperimentSpec{}, false);
    constexpr unsigned reps = 3;
    std::vector<std::vector<TrialOutput>> reference;
    for (const unsigned threads : {1u, 3u, 4u}) {
        const auto outputs =
            TrialRunner(threads).run(specs, reps, 1, matrixTrialFn(kSamples));
        if (threads == 1) {
            reference = outputs;
            continue;
        }
        for (std::size_t s = 0; s < specs.size(); ++s) {
            for (unsigned rep = 0; rep < reps; ++rep) {
                const std::string what = specs[s].label + " rep " +
                    std::to_string(rep) + " at " +
                    std::to_string(threads) + " threads";
                expectSameMeasurements(outputs[s][rep], reference[s][rep],
                                       what);
            }
        }
    }
}

} // namespace
} // namespace unxpec
