/**
 * @file
 * Unit tests for the composed L1I/L1D/L2/DRAM hierarchy: latency
 * composition, MSHR merging, flush, speculative install bookkeeping,
 * and the cleanup-support operations (invalidate/restore/undo).
 */

#include <gtest/gtest.h>

#include "memory/hierarchy.hh"

namespace unxpec {
namespace {

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyTest()
        : cfg_(SystemConfig::makeDefault()), rng_(1), hier_(cfg_, rng_)
    {
    }

    Cycle l1Hit() const { return cfg_.l1d.hitLatency; }
    Cycle l2Hit() const { return cfg_.l2.hitLatency; }
    Cycle dram() const { return cfg_.memory.accessLatency; }

    SystemConfig cfg_;
    Rng rng_;
    MemoryHierarchy hier_;
};

TEST_F(HierarchyTest, ColdMissGoesToDram)
{
    const auto record = hier_.access(0x10000, 100, false, false, 1);
    EXPECT_FALSE(record.l1Hit);
    EXPECT_FALSE(record.l2Hit);
    EXPECT_TRUE(record.l1Installed);
    EXPECT_TRUE(record.l2Installed);
    EXPECT_EQ(record.ready, 100 + l1Hit() + l2Hit() + dram());
}

TEST_F(HierarchyTest, SecondAccessHitsL1)
{
    const auto miss = hier_.access(0x10000, 100, false, false, 1);
    const auto hit = hier_.access(0x10000, miss.ready + 1, false, false, 2);
    EXPECT_TRUE(hit.l1Hit);
    EXPECT_FALSE(hit.l1Installed);
    EXPECT_EQ(hit.latency(), l1Hit());
}

TEST_F(HierarchyTest, L2HitAfterL1Invalidate)
{
    const auto miss = hier_.access(0x10000, 100, false, false, 1);
    hier_.l1d().invalidate(lineAlign(0x10000));
    const auto l2hit = hier_.access(0x10000, miss.ready + 1, false, false,
                                    2);
    EXPECT_FALSE(l2hit.l1Hit);
    EXPECT_TRUE(l2hit.l2Hit);
    EXPECT_TRUE(l2hit.l1Installed);
    EXPECT_FALSE(l2hit.l2Installed);
    EXPECT_EQ(l2hit.latency(), l1Hit() + l2Hit());
}

TEST_F(HierarchyTest, SameLineAccessesMergeInMshr)
{
    const auto first = hier_.access(0x10000, 100, false, false, 1);
    // Second access while the fill is in flight.
    const auto merged = hier_.access(0x10000, 110, false, false, 2);
    EXPECT_TRUE(merged.merged);
    EXPECT_FALSE(merged.l1Installed);
    EXPECT_EQ(merged.ready, first.ready);
}

TEST_F(HierarchyTest, SubLineOffsetsShareOneLine)
{
    hier_.access(0x10000, 100, false, false, 1);
    const auto hit = hier_.access(0x10020, 300, false, false, 2);
    EXPECT_TRUE(hit.l1Hit);
}

TEST_F(HierarchyTest, WriteDirtiesL1)
{
    hier_.access(0x10000, 100, true, false, 1);
    const CacheLine *line = hier_.l1d().probe(lineAlign(0x10000));
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(line->dirty);
}

TEST_F(HierarchyTest, FlushRemovesFromAllLevels)
{
    const auto miss = hier_.access(0x10000, 100, true, false, 1);
    const bool dirty = hier_.flushLine(0x10000);
    EXPECT_TRUE(dirty);
    (void)miss;
    EXPECT_EQ(hier_.l1d().probe(lineAlign(0x10000)), nullptr);
    EXPECT_EQ(hier_.l2().probe(lineAlign(0x10000)), nullptr);
    // Subsequent access is a full miss again.
    const auto again = hier_.access(0x10000, 10000, false, false, 2);
    EXPECT_EQ(again.latency(), l1Hit() + l2Hit() + dram());
}

TEST_F(HierarchyTest, FlushCleanLineReportsNotDirty)
{
    hier_.access(0x10000, 100, false, false, 1);
    EXPECT_FALSE(hier_.flushLine(0x10000));
}

TEST_F(HierarchyTest, SpeculativeInstallMarkedAndCommitted)
{
    const auto record = hier_.access(0x10000, 100, false, true, 5);
    const CacheLine *line = hier_.l1d().probe(record.lineAddr);
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(line->speculative);
    hier_.commitInstall(record);
    EXPECT_FALSE(hier_.l1d().probe(record.lineAddr)->speculative);
    EXPECT_FALSE(hier_.l2().probe(record.lineAddr)->speculative);
}

TEST_F(HierarchyTest, CleanupInvalidateRemovesTransientLine)
{
    const auto record = hier_.access(0x10000, 100, false, true, 5);
    EXPECT_TRUE(hier_.cleanupInvalidateL1(record));
    EXPECT_TRUE(hier_.cleanupInvalidateL2(record));
    EXPECT_EQ(hier_.l1d().probe(record.lineAddr), nullptr);
    EXPECT_EQ(hier_.l2().probe(record.lineAddr), nullptr);
}

TEST_F(HierarchyTest, CleanupRestorePutsVictimBack)
{
    // Fill one L1 set completely, then displace a line with a
    // speculative fill and restore it.
    const unsigned sets = cfg_.l1d.numSets();
    std::vector<Addr> fillers;
    Cycle now = 100;
    for (unsigned i = 0; i < cfg_.l1d.ways; ++i) {
        const Addr addr = 0x100000 + i * sets * kLineBytes;
        fillers.push_back(lineAlign(addr));
        now = hier_.access(addr, now, false, false, i).ready + 1;
    }
    const Addr intruder = 0x100000 + cfg_.l1d.ways * sets * kLineBytes;
    const auto record = hier_.access(intruder, now, false, true, 99);
    ASSERT_TRUE(record.l1VictimValid);

    hier_.cleanupInvalidateL1(record);
    hier_.cleanupRestoreL1(record, record.ready + 10);
    EXPECT_NE(hier_.l1d().probe(record.l1Victim), nullptr);
    EXPECT_EQ(hier_.l1d().probe(record.lineAddr), nullptr);
}

TEST_F(HierarchyTest, UndoInflightErasesEagerInstall)
{
    const auto record = hier_.access(0x10000, 100, false, true, 5);
    // Squash "before" the fill lands.
    hier_.undoInflight(record);
    EXPECT_EQ(hier_.l1d().probe(record.lineAddr), nullptr);
    EXPECT_EQ(hier_.l2().probe(record.lineAddr), nullptr);
    EXPECT_EQ(hier_.l1d().mshr().find(record.lineAddr), nullptr);
}

TEST_F(HierarchyTest, FetchPathInstallsIntoL1I)
{
    const Addr pc_addr = 0x400000;
    const Cycle cold = hier_.fetchReady(pc_addr, 100);
    EXPECT_GT(cold, 100 + cfg_.l1i.hitLatency);
    const Cycle warm = hier_.fetchReady(pc_addr, cold + 1);
    EXPECT_EQ(warm, cold + 1 + cfg_.l1i.hitLatency);
}

TEST_F(HierarchyTest, FetchInflightDoesNotDuplicate)
{
    const Addr pc_addr = 0x400000;
    hier_.fetchReady(pc_addr, 100);
    hier_.fetchReady(pc_addr, 101); // still filling
    unsigned copies = 0;
    for (const Addr line : hier_.l1i().residentLines()) {
        if (line == lineAlign(pc_addr))
            ++copies;
    }
    EXPECT_EQ(copies, 1u);
}

TEST_F(HierarchyTest, MshrBackpressureDelaysNewMiss)
{
    // Saturate the L1 MSHRs with distinct lines.
    const unsigned capacity = cfg_.l1d.mshrs;
    Cycle expected_first_ready = 0;
    for (unsigned i = 0; i <= capacity; ++i) {
        const auto record =
            hier_.access(0x200000 + i * 8192, 100 + i, false, false, i);
        if (i == 0)
            expected_first_ready = record.ready;
        if (i == capacity) {
            // The overflow miss cannot start before an entry frees.
            EXPECT_GE(record.ready,
                      expected_first_ready + cfg_.l2.hitLatency);
        }
    }
}

} // namespace
} // namespace unxpec
