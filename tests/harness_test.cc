/**
 * @file
 * Unit tests for the experiment harness: seed derivation, registry
 * lookups, session construction, and — the load-bearing property —
 * TrialRunner results that are bit-identical at any thread count.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <set>

#include "cpu/assembler.hh"
#include "harness/cli.hh"
#include "harness/session.hh"
#include "harness/trial_runner.hh"
#include "sim/rng.hh"

namespace unxpec {
namespace {

// --- seed derivation ----------------------------------------------------

TEST(DeriveSeedTest, StableAcrossCalls)
{
    EXPECT_EQ(Rng::deriveSeed(1, 0), Rng::deriveSeed(1, 0));
    EXPECT_EQ(Rng::deriveSeed(12345, 7), Rng::deriveSeed(12345, 7));
}

TEST(DeriveSeedTest, MatchesSplitMixStream)
{
    // deriveSeed(master, k) must be the k-th output of a SplitMix64
    // stream seeded with `master`, so per-trial seeds are as
    // statistically independent as the generator itself.
    std::uint64_t state = 42;
    auto splitmix = [&state] {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    for (std::uint64_t k = 0; k < 8; ++k)
        EXPECT_EQ(Rng::deriveSeed(42, k), splitmix());
}

TEST(DeriveSeedTest, DistinctAcrossStreamsAndMasters)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t master : {0ull, 1ull, 2ull, 999ull}) {
        for (std::uint64_t stream = 0; stream < 64; ++stream)
            seen.insert(Rng::deriveSeed(master, stream));
    }
    EXPECT_EQ(seen.size(), 4u * 64u);
}

// --- registries ---------------------------------------------------------

TEST(RegistryTest, KnownDefenses)
{
    for (const char *name :
         {"unsafe", "cleanup_l1", "cleanup_l1l2", "cleanup_full",
          "invisispec", "delay_on_miss", "noisy_host", "cleanup_const65",
          "cleanup_fuzzy40"}) {
        EXPECT_TRUE(knownDefense(name)) << name;
    }
    EXPECT_FALSE(knownDefense("no-such-defense"));
}

TEST(RegistryTest, DefenseFactoriesConfigure)
{
    EXPECT_EQ(makeDefense("unsafe").cleanupMode,
              CleanupMode::UnsafeBaseline);
    EXPECT_EQ(makeDefense("cleanup_l1l2").cleanupMode,
              CleanupMode::Cleanup_FOR_L1L2);
    EXPECT_EQ(makeDefense("cleanup_const65").cleanupTiming
                  .constantTimeCycles,
              65u);
}

TEST(RegistryTest, KnownNoisesAndAttacks)
{
    EXPECT_TRUE(knownNoise("quiet"));
    EXPECT_TRUE(knownNoise("evaluation"));
    EXPECT_TRUE(knownNoise("noisy_host"));
    EXPECT_FALSE(knownNoise("hurricane"));

    EXPECT_TRUE(knownAttack("unxpec"));
    EXPECT_TRUE(knownAttack("unxpec-evset"));
    EXPECT_TRUE(knownAttack("spectre_v1"));
    EXPECT_FALSE(knownAttack("meltdown"));

    UnxpecConfig cfg;
    applyAttackVariant("unxpec-evset", cfg);
    EXPECT_TRUE(cfg.useEvictionSets);
}

TEST(RegistryTest, CustomRegistration)
{
    registerDefense("test_tiny_l1", "test-only defense", [] {
        SystemConfig cfg = SystemConfig::makeDefault();
        cfg.l1d.sizeBytes = 16 * 1024;
        return cfg;
    });
    ASSERT_TRUE(knownDefense("test_tiny_l1"));
    EXPECT_EQ(makeDefense("test_tiny_l1").l1d.sizeBytes, 16u * 1024u);
}

// --- session ------------------------------------------------------------

TEST(SessionTest, ConfigForAppliesSpec)
{
    ExperimentSpec spec;
    spec.defense = "cleanup_l1l2";
    spec.tweak = [](SystemConfig &cfg) {
        cfg.cleanupTiming.constantTimeCycles = 33;
    };
    const SystemConfig cfg = Session::configFor(spec, 77);
    EXPECT_EQ(cfg.seed, 77u);
    EXPECT_EQ(cfg.cleanupMode, CleanupMode::Cleanup_FOR_L1L2);
    EXPECT_EQ(cfg.cleanupTiming.constantTimeCycles, 33u);
}

TEST(SessionTest, VariantReachesAttack)
{
    ExperimentSpec spec;
    spec.attack = "unxpec-wide";
    Session session(spec, 1);
    UnxpecConfig wide;
    wide.useEvictionSets = true;
    wide.inBranchLoads = 8;
    Core core(Session::configFor(spec, 1));
    EXPECT_EQ(session.unxpec().program().listing(),
              UnxpecAttack(core, wide).program().listing());
}

// --- attack determinism -------------------------------------------------

TEST(DeterminismTest, MeasureOnceSequenceRepeats)
{
    ExperimentSpec spec;
    spec.noise = "evaluation"; // jitter active: the hard case
    auto sequence = [&spec] {
        Session session(spec, 2024);
        UnxpecAttack &attack = session.unxpec();
        std::vector<double> values;
        for (int secret : {0, 1, 1, 0, 1}) {
            attack.setSecret(secret);
            values.push_back(attack.measureOnce());
        }
        return values;
    };
    EXPECT_EQ(sequence(), sequence());
}

// --- trial runner -------------------------------------------------------

std::vector<ExperimentSpec>
smallSweep()
{
    std::vector<ExperimentSpec> specs;
    for (unsigned loads : {1u, 2u, 3u}) {
        ExperimentSpec spec;
        spec.label = "loads=" + std::to_string(loads);
        spec.noise = "evaluation";
        spec.attackCfg.inBranchLoads = loads;
        spec.with("loads", loads);
        specs.push_back(std::move(spec));
    }
    return specs;
}

TrialOutput
deltaTrial(const TrialContext &ctx)
{
    Session session(ctx);
    UnxpecAttack &attack = session.unxpec();
    attack.setSecret(0);
    const double zero = attack.measureOnce();
    attack.setSecret(1);
    const double one = attack.measureOnce();
    TrialOutput out;
    out.metric("delta", one - zero);
    out.metric("seed_echo", static_cast<double>(ctx.seed & 0xffff));
    return out;
}

TEST(TrialRunnerTest, SerialEqualsParallel)
{
    const auto specs = smallSweep();
    TrialRunner serial(1);
    TrialRunner parallel(4);
    const ExperimentResult a =
        serial.runAll("t", "", specs, 3, 9001, deltaTrial);
    const ExperimentResult b =
        parallel.runAll("t", "", specs, 3, 9001, deltaTrial);

    ASSERT_EQ(a.rows.size(), b.rows.size());
    for (std::size_t i = 0; i < a.rows.size(); ++i) {
        EXPECT_EQ(a.rows[i].label, b.rows[i].label);
        EXPECT_EQ(a.rows[i].values("delta"), b.rows[i].values("delta"));
        EXPECT_EQ(a.rows[i].values("seed_echo"),
                  b.rows[i].values("seed_echo"));
    }
}

TEST(TrialRunnerTest, RepsGetDistinctSeeds)
{
    TrialRunner runner(2);
    const ExperimentResult result =
        runner.runAll("t", "", smallSweep(), 4, 5, deltaTrial);
    for (const ResultRow &row : result.rows) {
        const std::vector<double> &seeds = row.values("seed_echo");
        EXPECT_EQ(std::set<double>(seeds.begin(), seeds.end()).size(),
                  seeds.size());
    }
}

TEST(TrialRunnerTest, MasterSeedChangesResults)
{
    TrialRunner runner(2);
    ExperimentSpec spec;
    spec.noise = "evaluation";
    const auto a = runner.runAll("t", "", {spec}, 2, 1, deltaTrial);
    const auto b = runner.runAll("t", "", {spec}, 2, 2, deltaTrial);
    EXPECT_NE(a.rows[0].values("seed_echo"), b.rows[0].values("seed_echo"));
}

TEST(TrialRunnerTest, AggregatesSeriesInRepOrder)
{
    TrialRunner runner(4);
    ExperimentSpec spec;
    const ExperimentResult result = runner.runAll(
        "t", "", {spec}, 5, 1, [](const TrialContext &ctx) {
            TrialOutput out;
            out.samples("rep", {static_cast<double>(ctx.rep)});
            return out;
        });
    EXPECT_EQ(result.rows[0].values("rep"),
              (std::vector<double>{0, 1, 2, 3, 4}));
}

// --- cycle-limit safety valve -------------------------------------------

TEST(RunOptionsTest, CycleLimitDiagnostic)
{
    // An infinite loop must trip the cycle budget and come back with
    // the partial-result flag set instead of hanging or dying.
    Core core(makeDefense("unsafe"));
    const Program program = Assembler::assemble(R"(
        li r2, 0
        li r3, 1
    loop:
        blt r2, r3, loop
        halt
    )");
    RunOptions options;
    options.maxCycles = 5000;
    const RunResult result = core.run(program, options);
    EXPECT_TRUE(result.cycleLimitReached);
    EXPECT_GE(result.cycles, 5000u);
    EXPECT_EQ(RunOptions{}.maxCycles, RunOptions::kDefaultMaxCycles);
}

// --- CLI ----------------------------------------------------------------

TEST(HarnessCliTest, ParsesSharedFlags)
{
    HarnessCli cli("test", "test");
    cli.scaleOption("size", 10);
    const char *argv[] = {"test",     "--reps", "7",      "--seed",
                          "99",       "--threads", "3",   "--mode",
                          "unsafe",   "--json", "/tmp/x.json", "42"};
    const HarnessOptions opt =
        cli.parse(static_cast<int>(std::size(argv)),
                  const_cast<char **>(argv));
    EXPECT_EQ(opt.reps, 7u);
    EXPECT_EQ(opt.seed, 99u);
    EXPECT_EQ(opt.threads, 3u);
    EXPECT_EQ(opt.mode, "unsafe");
    EXPECT_EQ(opt.jsonPath, "/tmp/x.json");
    EXPECT_EQ(opt.scale, 42u);

    const ExperimentSpec spec = cli.baseSpec(opt);
    EXPECT_EQ(spec.defense, "unsafe");
}

} // namespace
} // namespace unxpec
