/**
 * @file
 * Tests of the hypothetical Cleanup_FULL mode (L2 restoration), a
 * corner the paper reasons about: CleanupSpec rejects L2 restoration
 * for cost (§III-A).
 */

#include <gtest/gtest.h>

#include "attack/unxpec.hh"
#include "cpu/core.hh"
#include "workload/synth_spec.hh"

namespace unxpec {
namespace {

TEST(CleanupFullTest, L2VictimRestored)
{
    SystemConfig cfg = SystemConfig::makeDefault();
    cfg.cleanupMode = CleanupMode::Cleanup_FULL;
    Rng rng(1);
    MemoryHierarchy hier(cfg, rng);
    CleanupEngine engine(CleanupMode::Cleanup_FULL, cfg.cleanupTiming,
                         rng);

    // Fill one L2 set completely with committed lines, then displace
    // one with a speculative fill.
    Cycle now = 100;
    const unsigned target_set = hier.l2().setOf(0x800000);
    std::vector<Addr> conflicting;
    Addr candidate = 0x800000;
    while (conflicting.size() < cfg.l2.ways) {
        if (hier.l2().setOf(candidate) == target_set) {
            conflicting.push_back(candidate);
            now = hier.access(candidate, now, false, false,
                              conflicting.size()).ready + 1;
        }
        candidate += kLineBytes;
    }
    // Find another conflicting line for the speculative intruder.
    Addr intruder = candidate;
    while (hier.l2().setOf(intruder) != target_set)
        intruder += kLineBytes;
    const auto record = hier.access(intruder, now, false, true, 99);
    ASSERT_TRUE(record.l2VictimValid);

    const CleanupJob job =
        SpecTracker::buildJob(record.ready + 5, {record});
    engine.rollback(hier, job, 0);

    EXPECT_EQ(hier.l2().probe(record.lineAddr), nullptr);
    EXPECT_NE(hier.l2().probe(record.l2Victim), nullptr);
}

TEST(CleanupFullTest, FullRestorationCostsMore)
{
    const CleanupTiming timing;
    Rng rng(1);
    CleanupEngine engine(CleanupMode::Cleanup_FULL, timing, rng);
    const double without = engine.rollbackDuration(1, 1, 1, 0);
    const double with_l2 = engine.rollbackDuration(1, 1, 1, 1);
    EXPECT_DOUBLE_EQ(with_l2 - without, timing.restoreL2First);
    // Eight L2 restores cost more than a DRAM access — exactly why
    // CleanupSpec never restores L2.
    EXPECT_GT(engine.rollbackDuration(8, 8, 8, 8) -
                  engine.rollbackDuration(8, 8, 8, 0),
              100.0);
}

TEST(CleanupFullTest, ChannelAtLeastAsWideAsL1L2)
{
    // More rollback work can only widen the secret-dependent timing
    // difference (the paper's core insight taken to its limit).
    auto delta = [](CleanupMode mode) {
        SystemConfig cfg = SystemConfig::makeDefault();
        cfg.cleanupMode = mode;
        Core core(cfg);
        UnxpecConfig ucfg;
        ucfg.useEvictionSets = true;
        UnxpecAttack attack(core, ucfg);
        attack.setSecret(0);
        attack.measureOnce();
        const double zero = attack.measureOnce();
        attack.setSecret(1);
        attack.measureOnce();
        const double one = attack.measureOnce();
        return one - zero;
    };
    EXPECT_GE(delta(CleanupMode::Cleanup_FULL),
              delta(CleanupMode::Cleanup_FOR_L1L2));
}

} // namespace
} // namespace unxpec
