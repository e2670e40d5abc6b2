/**
 * @file
 * Tests that the default configuration reproduces Table I.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>

#include "sim/config.hh"

namespace unxpec {
namespace {

TEST(ConfigTest, TableOneGeometry)
{
    const SystemConfig cfg = SystemConfig::makeDefault();
    EXPECT_DOUBLE_EQ(cfg.clockGHz, 2.0);
    EXPECT_EQ(cfg.core.robEntries, 192u);

    EXPECT_EQ(cfg.l1i.sizeBytes, 32u * 1024);
    EXPECT_EQ(cfg.l1i.ways, 4u);
    EXPECT_EQ(cfg.l1i.numSets(), 128u);

    EXPECT_EQ(cfg.l1d.sizeBytes, 32u * 1024);
    EXPECT_EQ(cfg.l1d.ways, 8u);
    EXPECT_EQ(cfg.l1d.numSets(), 64u);

    EXPECT_EQ(cfg.l2.sizeBytes, 2u * 1024 * 1024);
    EXPECT_EQ(cfg.l2.ways, 16u);
    EXPECT_EQ(cfg.l2.numSets(), 2048u);

    // 50 ns at 2 GHz.
    EXPECT_EQ(cfg.memory.accessLatency, 100u);
}

TEST(ConfigTest, CleanupSpecPoliciesOnByDefault)
{
    const SystemConfig cfg = SystemConfig::makeDefault();
    EXPECT_EQ(cfg.cleanupMode, CleanupMode::Cleanup_FOR_L1L2);
    EXPECT_EQ(cfg.l1d.repl, ReplPolicy::Random);
    EXPECT_EQ(cfg.l2.index, IndexPolicy::Ceaser);
}

TEST(ConfigTest, UnsafeBaselineDisablesProtections)
{
    const SystemConfig cfg = SystemConfig::makeUnsafeBaseline();
    EXPECT_EQ(cfg.cleanupMode, CleanupMode::UnsafeBaseline);
    EXPECT_EQ(cfg.l1d.repl, ReplPolicy::LRU);
    EXPECT_EQ(cfg.l2.index, IndexPolicy::Modulo);
}

TEST(ConfigTest, NoisyHostIsSlowerAndJittery)
{
    const SystemConfig host = SystemConfig::makeNoisyHost();
    const SystemConfig base = SystemConfig::makeDefault();
    EXPECT_GT(host.memory.accessLatency, base.memory.accessLatency);
    EXPECT_GT(host.memory.jitterSigma, 0.0);
}

TEST(ConfigTest, CleanupTimingDefaultsMatchHeadlineNumbers)
{
    const CleanupTiming t;
    // One landed transient load in Cleanup_FOR_L1L2:
    // trigger + max(L1 walk, L2 walk) = 4 + 18 = 22 cycles.
    EXPECT_DOUBLE_EQ(t.mshrCleanCost + t.invFirstL2, 22.0);
    // Plus one restoration: 32 cycles.
    EXPECT_DOUBLE_EQ(t.mshrCleanCost + t.invFirstL2 + t.restoreFirst, 32.0);
}

TEST(ConfigTest, ModeNames)
{
    EXPECT_STREQ(toString(CleanupMode::UnsafeBaseline), "UnsafeBaseline");
    EXPECT_STREQ(toString(CleanupMode::Cleanup_FOR_L1), "Cleanup_FOR_L1");
    EXPECT_STREQ(toString(CleanupMode::Cleanup_FOR_L1L2),
                 "Cleanup_FOR_L1L2");
}

TEST(ConfigTest, ValidateAcceptsAllPresets)
{
    SystemConfig::makeDefault().validate();
    SystemConfig::makeUnsafeBaseline().validate();
    SystemConfig::makeInvisiSpec().validate();
    SystemConfig::makeDelayOnMiss().validate();
    SystemConfig::makeNoisyHost().validate();
}

TEST(ConfigDeathTest, ValidateRejectsBadGeometry)
{
    SystemConfig bad_ways = SystemConfig::makeDefault();
    bad_ways.l1d.ways = 0;
    EXPECT_DEATH({ bad_ways.validate(); }, "ways");

    SystemConfig bad_size = SystemConfig::makeDefault();
    bad_size.l2.sizeBytes = 1000; // not a multiple of ways x 64
    EXPECT_DEATH({ bad_size.validate(); }, "multiple");

    SystemConfig bad_width = SystemConfig::makeDefault();
    bad_width.core.issueWidth = 0;
    EXPECT_DEATH({ bad_width.validate(); }, "width");
}

TEST(ConfigTest, EqualIgnoringSeedComparesEverythingButTheSeed)
{
    // The Machine pool reuses a Machine exactly when this holds, so a
    // seed-only difference must compare equal and any other must not.
    const SystemConfig base = SystemConfig::makeDefault();
    SystemConfig reseeded = base;
    reseeded.seed = base.seed + 41;
    EXPECT_TRUE(equalIgnoringSeed(base, reseeded));
    EXPECT_FALSE(base == reseeded);

    using Tweak = void (*)(SystemConfig &);
    const Tweak tweaks[] = {
        [](SystemConfig &c) { c.clockGHz = 3.0; },
        [](SystemConfig &c) { c.numCores = 2; },
        [](SystemConfig &c) { c.cleanupMode = CleanupMode::Cleanup_FOR_L1; },
        [](SystemConfig &c) { c.core.decodeDepth += 1; },
        [](SystemConfig &c) { c.core.mulPipelined = false; },
        [](SystemConfig &c) { c.l1i.hitLatency += 1; },
        [](SystemConfig &c) { c.l2.index = IndexPolicy::Modulo; },
        [](SystemConfig &c) { c.memory.jitterSigma = 1.5; },
        [](SystemConfig &c) { c.cleanupTiming.fuzzyMaxCycles = 40; },
        [](SystemConfig &c) { c.cleanupTiming.restoreNext = 4.0; },
    };
    for (std::size_t i = 0; i < std::size(tweaks); ++i) {
        SystemConfig changed = reseeded;
        tweaks[i](changed);
        EXPECT_FALSE(equalIgnoringSeed(base, changed)) << "tweak " << i;
    }
}

TEST(ConfigTest, PrintMentionsEveryModule)
{
    std::ostringstream oss;
    SystemConfig::makeDefault().print(oss);
    const std::string text = oss.str();
    EXPECT_NE(text.find("Processor"), std::string::npos);
    EXPECT_NE(text.find("L1 I cache"), std::string::npos);
    EXPECT_NE(text.find("L1 D cache"), std::string::npos);
    EXPECT_NE(text.find("L2 cache"), std::string::npos);
    EXPECT_NE(text.find("Memory"), std::string::npos);
}

} // namespace
} // namespace unxpec
