/**
 * @file
 * Calibration pins: the full-system attack must reproduce the paper's
 * headline timing numbers on the default (Table I) configuration.
 * These tests run the actual attack programs on the simulated core —
 * if a timing-model change shifts the channel, they fail.
 */

#include <gtest/gtest.h>

#include "attack/unxpec.hh"
#include "sim/config.hh"

namespace unxpec {
namespace {

double
meanDelta(Core &core, const UnxpecConfig &cfg, unsigned reps = 3)
{
    UnxpecAttack attack(core, cfg);
    double zeros = 0.0, ones = 0.0;
    for (unsigned i = 0; i < reps; ++i) {
        attack.setSecret(0);
        zeros += attack.measureOnce();
    }
    for (unsigned i = 0; i < reps; ++i) {
        attack.setSecret(1);
        ones += attack.measureOnce();
    }
    return (ones - zeros) / reps;
}

TEST(CalibrationTest, SingleLoadDeltaIsTwentyTwoCycles)
{
    Core core(SystemConfig::makeDefault());
    EXPECT_NEAR(meanDelta(core, UnxpecConfig{}), 22.0, 1.0);
}

TEST(CalibrationTest, EvictionSetDeltaIsThirtyTwoCycles)
{
    Core core(SystemConfig::makeDefault());
    UnxpecConfig cfg;
    cfg.useEvictionSets = true;
    EXPECT_NEAR(meanDelta(core, cfg), 32.0, 1.0);
}

TEST(CalibrationTest, DeltaGrowsSlowlyWithoutEvictionSets)
{
    // Paper Fig. 3: 22 -> ~25 cycles over 1..8 squashed loads.
    Core core1(SystemConfig::makeDefault());
    UnxpecConfig one;
    const double delta1 = meanDelta(core1, one);

    Core core8(SystemConfig::makeDefault());
    UnxpecConfig eight;
    eight.inBranchLoads = 8;
    const double delta8 = meanDelta(core8, eight);

    EXPECT_GT(delta8, delta1);
    EXPECT_LT(delta8 - delta1, 8.0);
}

TEST(CalibrationTest, DeltaGrowsSteeplyWithEvictionSets)
{
    // Paper Fig. 6: 32 -> ~64 cycles over 1..8 squashed loads.
    Core core1(SystemConfig::makeDefault());
    UnxpecConfig one;
    one.useEvictionSets = true;
    const double delta1 = meanDelta(core1, one);

    Core core8(SystemConfig::makeDefault());
    UnxpecConfig eight;
    eight.useEvictionSets = true;
    eight.inBranchLoads = 8;
    const double delta8 = meanDelta(core8, eight);

    EXPECT_GT(delta8, delta1 + 20.0);
    EXPECT_NEAR(delta8, 64.0, 8.0);
}

TEST(CalibrationTest, ObservedLatencyInPaperRange)
{
    // Fig. 7's x-axis spans 130..250 cycles; the quiet-machine means
    // must land inside it.
    Core core(SystemConfig::makeDefault());
    UnxpecAttack attack(core, UnxpecConfig{});
    attack.setSecret(0);
    const double zero = attack.measureOnce();
    attack.setSecret(1);
    const double one = attack.measureOnce();
    EXPECT_GT(zero, 130.0);
    EXPECT_LT(one, 250.0);
}

TEST(CalibrationTest, BranchResolutionConstantAcrossSecrets)
{
    // §IV-A observation one: T1-T2 does not depend on the secret.
    Core core(SystemConfig::makeDefault());
    UnxpecAttack attack(core, UnxpecConfig{});
    attack.setSecret(0);
    attack.measureOnce();
    attack.measureOnce();
    const Cycle res0 = attack.lastDetail().branchResolution;
    attack.setSecret(1);
    attack.measureOnce();
    const Cycle res1 = attack.lastDetail().branchResolution;
    EXPECT_NEAR(static_cast<double>(res0), static_cast<double>(res1), 2.0);
}

TEST(CalibrationTest, BranchResolutionLinearInConditionAccesses)
{
    // §IV-A observation two: T1-T2 grows linearly with f(N) depth.
    double res[3];
    for (unsigned c = 1; c <= 3; ++c) {
        Core core(SystemConfig::makeDefault());
        UnxpecConfig cfg;
        cfg.conditionAccesses = c;
        UnxpecAttack attack(core, cfg);
        attack.setSecret(1);
        attack.measureOnce();
        attack.measureOnce();
        res[c - 1] = static_cast<double>(attack.lastDetail().branchResolution);
    }
    const double step1 = res[1] - res[0];
    const double step2 = res[2] - res[1];
    EXPECT_GT(step1, 50.0);
    EXPECT_NEAR(step1, step2, 6.0);
}

TEST(CalibrationTest, ConstantRollbackOverheadBandMatchesPaper)
{
    // §VI-E: the per-squash extra stall is exactly the constant when
    // nothing needs rolling back.
    SystemConfig cfg = SystemConfig::makeDefault();
    cfg.cleanupTiming.constantTimeCycles = 65;
    Core core(cfg);

    UnxpecAttack attack(core, UnxpecConfig{});
    attack.setSecret(0);
    const double zero = attack.measureOnce();
    attack.setSecret(1);
    const double one = attack.measureOnce();
    // Constant-time rollback hides the channel: both secrets observe
    // the same (long) stall.
    EXPECT_NEAR(one - zero, 0.0, 2.0);
    EXPECT_EQ(attack.lastDetail().cleanupStall, 65u);
}

} // namespace
} // namespace unxpec
