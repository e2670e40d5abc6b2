/**
 * @file
 * Tests of the overhead memo behind postWarmupCycles: a memoized value
 * equals a fresh simulation on every registered defense and noise
 * profile, every seed consumer alone makes a configuration ineligible,
 * and concurrent claimants of one key share a single simulation.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "cpu/core.hh"
#include "harness/session.hh"
#include "harness/spec.hh"
#include "sim/rng.hh"
#include "workload/synth_spec.hh"

namespace unxpec {
namespace {

// Short runs keep the sweep fast; the memo keys on both counts.
constexpr std::uint64_t kInstructions = 6000;
constexpr std::uint64_t kWarmup = 1500;

/** The overhead run without the memo: a fresh Core, simulated here. */
double
directCycles(SystemConfig cfg, std::uint64_t seed,
             std::uint64_t instructions = kInstructions)
{
    cfg.seed = seed;
    RunOptions options;
    options.maxInstructions = instructions;
    options.warmupInstructions = kWarmup;
    Core core(cfg);
    const RunResult run = core.run(
        SynthSpec::generate(SynthSpec::profile("mcf_r"),
                            kOverheadProgramSeed),
        options);
    return static_cast<double>(run.cycles - run.warmupCycles);
}

TEST(OverheadMemoTest, MemoizedEqualsDirectOnEveryDefenseAndNoise)
{
    unsigned seed_free = 0;
    for (const auto &[defense, d_desc] : defenseNames()) {
        for (const auto &[noise, n_desc] : noiseNames()) {
            ExperimentSpec spec;
            spec.defense = defense;
            spec.noise = noise;
            for (const std::uint64_t seed : {1ull, 7ull, 123456789ull}) {
                const SystemConfig cfg = Session::configFor(spec, seed);
                seed_free += seedFree(cfg);
                EXPECT_EQ(postWarmupCycles(cfg, "mcf_r", seed,
                                           kInstructions, kWarmup),
                          directCycles(cfg, seed))
                    << defense << " / " << noise << " / seed " << seed;
            }
        }
    }
    // The sweep must exercise the memo, not only the fallback.
    EXPECT_GT(seed_free, 0u);
}

TEST(OverheadMemoTest, EverySeedConsumerAloneIsIneligible)
{
    const SystemConfig base = SystemConfig::makeUnsafeBaseline();
    ASSERT_TRUE(seedFree(base));
    EXPECT_FALSE(seedFree(SystemConfig::makeDefault()));
    EXPECT_FALSE(seedFree(SystemConfig::makeNoisyHost()));

    for (CacheConfig SystemConfig::*cache :
         {&SystemConfig::l1i, &SystemConfig::l1d, &SystemConfig::l2}) {
        SystemConfig random = base;
        (random.*cache).repl = ReplPolicy::Random;
        EXPECT_FALSE(seedFree(random)) << (base.*cache).name << " Random";
        SystemConfig ceaser = base;
        (ceaser.*cache).index = IndexPolicy::Ceaser;
        EXPECT_FALSE(seedFree(ceaser)) << (base.*cache).name << " CEASER";
    }
    SystemConfig jitter = base;
    jitter.memory.jitterSigma = 0.5;
    EXPECT_FALSE(seedFree(jitter));
    SystemConfig fuzzy = base;
    fuzzy.cleanupTiming.fuzzyMaxCycles = 1;
    EXPECT_FALSE(seedFree(fuzzy));

    // What no run reads keeps a config seed-free.
    SystemConfig other = base;
    other.cleanupTiming.constantTimeCycles = 40;
    other.core.mulPipelined = false;
    other.numCores = 4;
    EXPECT_TRUE(seedFree(other));
}

TEST(OverheadMemoTest, ConcurrentClaimantsShareOneSimulation)
{
    // A key no other test uses: an instruction count of its own.
    constexpr std::uint64_t instructions = kInstructions + 1;
    const SystemConfig cfg = SystemConfig::makeUnsafeBaseline();
    const std::uint64_t before = overheadSimulations();

    std::vector<double> values(4, -1.0);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < values.size(); ++i) {
        threads.emplace_back([&values, &cfg, i] {
            // Each claimant brings its own seed: the key ignores it.
            OverheadClaim claim(cfg, "mcf_r", Rng::deriveSeed(9, i),
                                instructions, kWarmup);
            values[i] = claim.cycles();
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(overheadSimulations() - before, 1u);
    for (const double v : values)
        EXPECT_EQ(v, values[0]);
    EXPECT_EQ(values[0], directCycles(cfg, 5, instructions));
}

TEST(OverheadMemoTest, SeedDependentConfigSimulatesEveryClaim)
{
    const SystemConfig cfg = SystemConfig::makeDefault();
    const std::uint64_t before = overheadSimulations();
    const double a = postWarmupCycles(cfg, "mcf_r", 1, kInstructions, kWarmup);
    const double b = postWarmupCycles(cfg, "mcf_r", 1, kInstructions, kWarmup);
    EXPECT_EQ(overheadSimulations() - before, 2u);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, directCycles(cfg, 1));
}

} // namespace
} // namespace unxpec
