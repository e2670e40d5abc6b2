/**
 * @file
 * Property-based (parameterized) suites over the simulator's central
 * invariants:
 *  - the security property: after a CleanupSpec rollback the L1/L2
 *    contents are bit-for-bit independent of the secret, while the
 *    unsafe baseline provably leaks;
 *  - the relaxed constant-time floor holds on every squash;
 *  - cache structural invariants under random access streams;
 *  - constant-time overhead grows monotonically with the constant.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "attack/unxpec.hh"
#include "memory/cache.hh"
#include "workload/synth_spec.hh"

namespace unxpec {
namespace {

// --------------------------------------------------------------------
// Security property: cache state after a round is secret-independent
// under CleanupSpec and secret-dependent on the unsafe baseline.
// --------------------------------------------------------------------

using FootprintParams = std::tuple<unsigned /*loads*/, bool /*evsets*/>;

class RollbackFootprintTest
    : public ::testing::TestWithParam<FootprintParams>
{
};

std::vector<Addr>
residentAfterRound(CleanupMode mode, int secret, unsigned loads,
                   bool evsets, int level)
{
    SystemConfig cfg = SystemConfig::makeDefault();
    cfg.cleanupMode = mode;
    Core core(cfg);
    UnxpecConfig ucfg;
    ucfg.inBranchLoads = loads;
    ucfg.useEvictionSets = evsets;
    UnxpecAttack attack(core, ucfg);
    attack.setSecret(secret);
    attack.measureOnce();
    return level == 1 ? core.hierarchy().l1d().residentLines()
                      : core.hierarchy().l2().residentLines();
}

TEST_P(RollbackFootprintTest, CleanupSpecLeavesNoSecretDependentState)
{
    const auto [loads, evsets] = GetParam();
    for (int level = 1; level <= 2; ++level) {
        const auto zero = residentAfterRound(
            CleanupMode::Cleanup_FOR_L1L2, 0, loads, evsets, level);
        const auto one = residentAfterRound(
            CleanupMode::Cleanup_FOR_L1L2, 1, loads, evsets, level);
        EXPECT_EQ(zero, one) << "level L" << level << " diverges";
    }
}

TEST_P(RollbackFootprintTest, UnsafeBaselineLeaksFootprint)
{
    const auto [loads, evsets] = GetParam();
    const auto zero = residentAfterRound(CleanupMode::UnsafeBaseline, 0,
                                         loads, evsets, 1);
    const auto one = residentAfterRound(CleanupMode::UnsafeBaseline, 1,
                                        loads, evsets, 1);
    EXPECT_NE(zero, one)
        << "the unprotected cache should retain the transient installs";
}

INSTANTIATE_TEST_SUITE_P(
    FootprintSweep, RollbackFootprintTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<FootprintParams> &param_info) {
        return "loads" + std::to_string(std::get<0>(param_info.param)) +
               (std::get<1>(param_info.param) ? "_evset" : "_plain");
    });

// --------------------------------------------------------------------
// Determinism: identical seeds and programs give identical
// measurements on fresh cores — the bedrock every calibration test
// stands on.
// --------------------------------------------------------------------

class DeterminismTest : public ::testing::TestWithParam<bool>
{
};

TEST_P(DeterminismTest, FreshCoresAgreeExactly)
{
    const bool evsets = GetParam();
    auto run_once = [evsets]() {
        Core core(SystemConfig::makeDefault());
        UnxpecConfig cfg;
        cfg.useEvictionSets = evsets;
        UnxpecAttack attack(core, cfg);
        std::vector<double> trace;
        for (const int secret : {0, 1, 1, 0, 1}) {
            attack.setSecret(secret);
            trace.push_back(attack.measureOnce());
        }
        return trace;
    };
    EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(Variants, DeterminismTest, ::testing::Bool());

// --------------------------------------------------------------------
// Invisible schemes leave no secret-dependent footprint either — the
// full defense taxonomy passes the same functional contract.
// --------------------------------------------------------------------

class InvisibleFootprintTest
    : public ::testing::TestWithParam<CleanupMode>
{
};

TEST_P(InvisibleFootprintTest, NoSecretDependentState)
{
    const CleanupMode mode = GetParam();
    auto resident = [mode](int secret) {
        SystemConfig cfg = SystemConfig::makeInvisiSpec();
        cfg.cleanupMode = mode;
        Core core(cfg);
        UnxpecAttack attack(core);
        attack.setSecret(secret);
        attack.measureOnce();
        return core.hierarchy().l1d().residentLines();
    };
    EXPECT_EQ(resident(0), resident(1));
}

INSTANTIATE_TEST_SUITE_P(Schemes, InvisibleFootprintTest,
                         ::testing::Values(CleanupMode::InvisiSpec,
                                           CleanupMode::DelayOnMiss));

// --------------------------------------------------------------------
// Constant-time floor: with an XX-cycle constant, every logged squash
// stalls at least XX cycles — the defense's defining guarantee.
// --------------------------------------------------------------------

class ConstantTimeFloorTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ConstantTimeFloorTest, EverySquashStallsAtLeastTheConstant)
{
    const unsigned constant = GetParam();
    SystemConfig cfg = SystemConfig::makeDefault();
    cfg.cleanupTiming.constantTimeCycles = constant;
    Core core(cfg);
    core.cleanup().enableLog(true);

    const Program p = SynthSpec::generate(
        SynthSpec::profile("deepsjeng_r"), 3);
    RunOptions options;
    options.maxInstructions = 8000;
    core.run(p, options);

    const auto &log = core.cleanup().log();
    ASSERT_GT(log.size(), 10u) << "workload produced too few squashes";
    for (const SquashLog &entry : log)
        EXPECT_GE(entry.stall, constant);
}

INSTANTIATE_TEST_SUITE_P(ConstSweep, ConstantTimeFloorTest,
                         ::testing::Values(25u, 30u, 35u, 45u, 65u));

// --------------------------------------------------------------------
// Cache structural invariants under random access streams.
// --------------------------------------------------------------------

using CacheParams = std::tuple<ReplPolicy, IndexPolicy, unsigned /*ways*/>;

class CacheInvariantTest : public ::testing::TestWithParam<CacheParams>
{
};

TEST_P(CacheInvariantTest, OccupancyAndUniquenessHold)
{
    const auto [repl, index, ways] = GetParam();
    CacheConfig cfg;
    cfg.name = "prop";
    cfg.ways = ways;
    cfg.sizeBytes = 16 * ways * kLineBytes; // 16 sets
    cfg.repl = repl;
    cfg.index = index;
    Rng rng(99);
    Cache cache(cfg, rng, 0x1234);

    Rng stream(7);
    for (int i = 0; i < 4000; ++i) {
        const Addr line = stream.range(256) << kLineShift;
        if (cache.probe(line) != nullptr) {
            cache.touch(line);
        } else {
            cache.install(line, i, stream.chance(0.3), i);
        }
        if (stream.chance(0.05))
            cache.invalidate(stream.range(256) << kLineShift);
    }

    // No set exceeds its ways; no duplicate resident lines; every
    // resident line probes back to itself.
    for (unsigned set = 0; set < cfg.numSets(); ++set)
        EXPECT_LE(cache.setOccupancy(set), cfg.ways);
    const auto resident = cache.residentLines();
    for (std::size_t i = 1; i < resident.size(); ++i)
        EXPECT_LT(resident[i - 1], resident[i]);
    for (const Addr line : resident) {
        const CacheLine *hit = cache.probe(line);
        ASSERT_NE(hit, nullptr);
        EXPECT_TRUE(hit->valid);
    }
}

INSTANTIATE_TEST_SUITE_P(
    CacheSweep, CacheInvariantTest,
    ::testing::Combine(::testing::Values(ReplPolicy::LRU,
                                         ReplPolicy::Random),
                       ::testing::Values(IndexPolicy::Modulo,
                                         IndexPolicy::Ceaser),
                       ::testing::Values(2u, 4u, 8u)));

// --------------------------------------------------------------------
// Timing-channel presence across the attack parameter grid.
// --------------------------------------------------------------------

using ChannelParams = std::tuple<unsigned /*loads*/, unsigned /*fN*/>;

class ChannelPresenceTest : public ::testing::TestWithParam<ChannelParams>
{
};

TEST_P(ChannelPresenceTest, SecretDependentDeltaExists)
{
    const auto [loads, accesses] = GetParam();
    Core core(SystemConfig::makeDefault());
    UnxpecConfig cfg;
    cfg.inBranchLoads = loads;
    cfg.conditionAccesses = accesses;
    UnxpecAttack attack(core, cfg);
    attack.setSecret(0);
    attack.measureOnce();
    const double zero = attack.measureOnce();
    attack.setSecret(1);
    attack.measureOnce();
    const double one = attack.measureOnce();
    EXPECT_GT(one - zero, 15.0);
    EXPECT_LT(one - zero, 40.0);
}

INSTANTIATE_TEST_SUITE_P(
    ChannelSweep, ChannelPresenceTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(1u, 2u)));

// --------------------------------------------------------------------
// Overhead monotonicity in the constant-time parameter.
// --------------------------------------------------------------------

class OverheadMonotonicTest
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(OverheadMonotonicTest, LongerConstantNeverCheaper)
{
    const Program p =
        SynthSpec::generate(SynthSpec::profile(GetParam()), 11);
    RunOptions options;
    options.maxInstructions = 15000;

    Cycle previous = 0;
    for (const unsigned constant : {0u, 25u, 45u, 65u}) {
        SystemConfig cfg = SystemConfig::makeDefault();
        cfg.cleanupTiming.constantTimeCycles = constant;
        Core core(cfg);
        const Cycle cycles = core.run(p, options).cycles;
        EXPECT_GE(cycles + 50, previous)
            << "const=" << constant << " got cheaper";
        previous = cycles;
    }
}

INSTANTIATE_TEST_SUITE_P(WorkloadSweep, OverheadMonotonicTest,
                         ::testing::Values("mcf_r", "leela_r", "xz_r",
                                           "imagick_r"));

} // namespace
} // namespace unxpec
