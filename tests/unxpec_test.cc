/**
 * @file
 * Tests of the unXpec attack orchestration: the secret actually
 * decides the latency, leaks decode correctly, instrumentation is
 * coherent, and the defense comparison behaves as the paper claims.
 */

#include <gtest/gtest.h>

#include "attack/channel.hh"
#include "attack/unxpec.hh"

namespace unxpec {
namespace {

TEST(UnxpecTest, SecretOneIsSlower)
{
    Core core(SystemConfig::makeDefault());
    UnxpecAttack attack(core);
    const auto zeros = attack.collect(0, 5);
    const auto ones = attack.collect(1, 5);
    for (const double z : zeros) {
        for (const double o : ones)
            EXPECT_LT(z, o);
    }
}

TEST(UnxpecTest, QuietMachineMeasurementsAreStable)
{
    Core core(SystemConfig::makeDefault());
    UnxpecAttack attack(core);
    const auto zeros = attack.collect(0, 6);
    for (const double z : zeros)
        EXPECT_EQ(z, zeros.front());
}

TEST(UnxpecTest, DetailReportsRollbackWork)
{
    Core core(SystemConfig::makeDefault());
    UnxpecConfig cfg;
    cfg.inBranchLoads = 3;
    UnxpecAttack attack(core, cfg);
    attack.setSecret(1);
    attack.measureOnce();
    const RoundDetail &detail = attack.lastDetail();
    ASSERT_TRUE(detail.valid);
    EXPECT_EQ(detail.invalidationsL1, 3u);
    EXPECT_EQ(detail.invalidationsL2, 3u);
    EXPECT_GT(detail.cleanupStall, 0u);
    EXPECT_GT(detail.branchResolution, 100u);
}

TEST(UnxpecTest, SecretZeroRollbackIsFree)
{
    Core core(SystemConfig::makeDefault());
    UnxpecAttack attack(core);
    attack.setSecret(0);
    attack.measureOnce();
    const RoundDetail &detail = attack.lastDetail();
    ASSERT_TRUE(detail.valid);
    EXPECT_EQ(detail.cleanupStall, 0u);
    EXPECT_EQ(detail.invalidationsL1, 0u);
}

TEST(UnxpecTest, EvictionSetsForceRestores)
{
    Core core(SystemConfig::makeDefault());
    UnxpecConfig cfg;
    cfg.useEvictionSets = true;
    cfg.inBranchLoads = 2;
    UnxpecAttack attack(core, cfg);
    attack.setSecret(1);
    attack.measureOnce();
    EXPECT_EQ(attack.lastDetail().restores, 2u);
}

TEST(UnxpecTest, LeakDecodesPerfectlyOnQuietMachine)
{
    Core core(SystemConfig::makeDefault());
    UnxpecAttack attack(core);
    const double threshold = attack.calibrate(4);
    const std::vector<int> secret = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1};
    const LeakResult result = attack.leak(secret, threshold);
    EXPECT_DOUBLE_EQ(result.accuracy, 1.0);
    EXPECT_EQ(result.guesses, secret);
}

TEST(UnxpecTest, ChannelClosedOnUnsafeBaseline)
{
    // Without rollback there is nothing secret-dependent to time:
    // the unXpec channel only exists against Undo defenses.
    Core core(SystemConfig::makeUnsafeBaseline());
    UnxpecAttack attack(core);
    attack.setSecret(0);
    attack.measureOnce();
    const double zero = attack.measureOnce();
    attack.setSecret(1);
    attack.measureOnce();
    const double one = attack.measureOnce();
    EXPECT_NEAR(one - zero, 0.0, 3.0);
}

TEST(UnxpecTest, ConstantTimeRollbackClosesChannel)
{
    Core core(SystemConfig::makeDefault());
    core.cleanup().timing().constantTimeCycles = 65;
    UnxpecAttack attack(core);
    attack.setSecret(0);
    attack.measureOnce();
    const double zero = attack.measureOnce();
    attack.setSecret(1);
    attack.measureOnce();
    const double one = attack.measureOnce();
    EXPECT_NEAR(one - zero, 0.0, 2.0);
}

TEST(UnxpecTest, CyclesPerSampleAccounted)
{
    Core core(SystemConfig::makeDefault());
    UnxpecAttack attack(core);
    EXPECT_EQ(attack.cyclesPerSample(), 0.0);
    attack.collect(0, 3);
    EXPECT_GT(attack.cyclesPerSample(), 500.0);
}

TEST(UnxpecTest, MoreMistrainingCostsMoreCycles)
{
    Core core_short(SystemConfig::makeDefault());
    UnxpecConfig short_cfg;
    short_cfg.mistrainIterations = 4;
    UnxpecAttack short_attack(core_short, short_cfg);
    short_attack.collect(0, 3);

    Core core_long(SystemConfig::makeDefault());
    UnxpecConfig long_cfg;
    long_cfg.mistrainIterations = 48;
    UnxpecAttack long_attack(core_long, long_cfg);
    long_attack.collect(0, 3);

    EXPECT_GT(long_attack.cyclesPerSample(),
              2 * short_attack.cyclesPerSample());
}

TEST(UnxpecTest, LeakBytesRoundTrip)
{
    Core core(SystemConfig::makeDefault());
    UnxpecAttack attack(core);
    const double threshold = attack.calibrate(4);
    const std::vector<std::uint8_t> secret = {'u', 'n', 'X', 0x00, 0xFF};
    EXPECT_EQ(attack.leakBytes(secret, threshold), secret);
}

TEST(UnxpecTest, MultiSampleMatchesSingleOnQuietMachine)
{
    Core core(SystemConfig::makeDefault());
    UnxpecAttack attack(core);
    const double threshold = attack.calibrate(4);
    const std::vector<int> secret = {1, 0, 0, 1, 1};
    const LeakResult multi = attack.leak(secret, threshold, 3);
    EXPECT_DOUBLE_EQ(multi.accuracy, 1.0);
    EXPECT_EQ(multi.guesses, secret);
}

TEST(UnxpecTest, RejectsDegenerateConfigs)
{
    Core core(SystemConfig::makeDefault());
    UnxpecConfig no_loads;
    no_loads.inBranchLoads = 0;
    EXPECT_DEATH({ UnxpecAttack attack(core, no_loads); }, "");
}

TEST(UnxpecTest, FuzzyMitigationBlursChannel)
{
    // §VII future work: dummy cleanup noise should reduce the mean
    // separation relative to the deterministic 22 cycles... actually
    // it keeps the mean but adds variance, raising the error rate.
    Core core(SystemConfig::makeDefault());
    core.cleanup().timing().fuzzyMaxCycles = 40;
    UnxpecAttack attack(core);
    const auto zeros = attack.collect(0, 20);
    const auto ones = attack.collect(1, 20);
    // Distributions now overlap: at least one zero-measurement exceeds
    // at least one one-measurement.
    double max_zero = 0.0, min_one = 1e18;
    for (const double z : zeros)
        max_zero = std::max(max_zero, z);
    for (const double o : ones)
        min_one = std::min(min_one, o);
    EXPECT_GT(max_zero, min_one);
}

} // namespace
} // namespace unxpec
