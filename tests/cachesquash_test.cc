/**
 * @file
 * Tests for the CacheSquash defense (squash propagates into the MSHR
 * and cancels in-flight fills) and the SpecBox defense (label-based
 * isolation with a zero-cost flash clear). Covers the MshrFile::cancel
 * primitive, the accessCacheSquash hierarchy path, cancellation racing
 * the rollback auditor, SpecBox's label visibility under cross-core
 * probes, and both defenses' closed unXpec channel.
 */

#include <gtest/gtest.h>

#include "attack/unxpec.hh"
#include "cpu/core.hh"
#include "memory/coherence.hh"
#include "memory/hierarchy.hh"
#include "memory/mshr.hh"

namespace unxpec {
namespace {

// --- MshrFile::cancel unit tests ----------------------------------------

TEST(MshrCancelTest, CancelsSpeculativeEntryByInstaller)
{
    MshrFile file(4);
    file.allocate(0x1000, 50, true, 7);
    EXPECT_TRUE(file.cancel(0x1000, 7));
    EXPECT_FALSE(file.cancel(0x1000, 7));
    EXPECT_EQ(file.inflight(), 0u);
}

TEST(MshrCancelTest, WrongInstallerIsUntouched)
{
    // A fill parked by an older (surviving) load must not be cancelled
    // by a younger squashed one that merged with it.
    MshrFile file(4);
    file.allocate(0x1000, 50, true, 3);
    EXPECT_FALSE(file.cancel(0x1000, 9));
    EXPECT_EQ(file.inflight(), 1u);
    EXPECT_NE(file.find(0x1000), nullptr);
}

TEST(MshrCancelTest, NonSpeculativeEntryIsUntouched)
{
    MshrFile file(4);
    file.allocate(0x1000, 50, false, 7);
    EXPECT_FALSE(file.cancel(0x1000, 7));
    EXPECT_EQ(file.inflight(), 1u);
}

// --- hierarchy path -----------------------------------------------------

TEST(CacheSquashTest, SpeculativeMissParksInMshrOnly)
{
    SystemConfig cfg = SystemConfig::makeCacheSquash();
    Rng rng(1);
    MemoryHierarchy hier(cfg, rng);
    const auto record = hier.accessCacheSquash(0x10000, 100, 1);
    EXPECT_TRUE(record.mshrOnly);
    EXPECT_FALSE(record.l1Installed);
    EXPECT_FALSE(record.l2Installed);
    EXPECT_TRUE(hier.l1d().residentLines().empty());
    EXPECT_TRUE(hier.l2().residentLines().empty());
    EXPECT_EQ(hier.l1d().mshr().inflight(), 1u);
}

TEST(CacheSquashTest, SecondSpeculativeLoadMergesWithParkedFill)
{
    SystemConfig cfg = SystemConfig::makeCacheSquash();
    Rng rng(1);
    MemoryHierarchy hier(cfg, rng);
    hier.accessCacheSquash(0x10000, 100, 1);
    const auto merged = hier.accessCacheSquash(0x10000, 101, 2);
    EXPECT_TRUE(merged.merged);
    EXPECT_EQ(hier.l1d().mshr().inflight(), 1u);
}

TEST(CacheSquashTest, SquashCancelsAndSatisfiesTheAuditor)
{
    SystemConfig cfg = SystemConfig::makeCacheSquash();
    Rng rng(1);
    MemoryHierarchy hier(cfg, rng);
    const auto record = hier.accessCacheSquash(0x10000, 100, 5);
    EXPECT_TRUE(hier.cancelPendingFill(record));
    EXPECT_FALSE(hier.cancelPendingFill(record));
    EXPECT_EQ(hier.l1d().mshr().inflight(), 0u);
    // The auditor's MSHR clause: after the squash of everything
    // younger than branch seq 4, no speculative entry may remain —
    // cancellation is exactly what makes this pass mid-flight
    // (readyCycle 100+ is still in the future at audit time).
    EXPECT_NO_THROW(hier.auditRollbackComplete(4, 101));
}

TEST(CacheSquashTest, CommitInstallsParkedFill)
{
    SystemConfig cfg = SystemConfig::makeCacheSquash();
    Rng rng(1);
    MemoryHierarchy hier(cfg, rng);
    const auto record = hier.accessCacheSquash(0x10000, 100, 1);
    hier.commitPendingFill(record, record.ready + 1);
    EXPECT_TRUE(hier.l1d().present(record.lineAddr, record.ready + 2));
    EXPECT_TRUE(hier.l2().present(record.lineAddr, record.ready + 2));
    EXPECT_EQ(hier.l1d().mshr().inflight(), 0u);
}

TEST(CacheSquashTest, UnxpecChannelClosed)
{
    Core core(SystemConfig::makeCacheSquash());
    UnxpecAttack attack(core);
    attack.setSecret(0);
    attack.measureOnce();
    const double zero = attack.measureOnce();
    attack.setSecret(1);
    attack.measureOnce();
    const double one = attack.measureOnce();
    EXPECT_NEAR(one - zero, 0.0, 3.0);
}

// --- SpecBox ------------------------------------------------------------

TEST(SpecBoxTest, SpeculativeLineHiddenFromCrossCoreProbe)
{
    // Label isolation: a speculatively installed line must read as a
    // dummy miss to another core until the installer commits. Two
    // hierarchies share one L2 and one engine, wired as Machine does.
    const SystemConfig cfg = SystemConfig::makeSpecBox();
    Rng rng0(1);
    Rng rng1(2);
    MemoryHierarchy installer(cfg, rng0);
    MemoryHierarchy prober(cfg, rng1);
    CoherenceEngine engine(cfg);
    prober.bindShared(&installer.l2(), &installer.mem());
    installer.setCoherence(&engine, 0);
    prober.setCoherence(&engine, 1);

    const auto record = installer.access(0x10000, 100, false, true, 5);
    const auto probe = engine.remoteRead(1, 0x10000, record.ready + 1);
    EXPECT_TRUE(probe.dummyMiss);

    // Once committed, the label clears and the line is visible.
    installer.commitInstall(record);
    const auto after = engine.remoteRead(1, 0x10000, record.ready + 2);
    EXPECT_TRUE(after.hit);
    EXPECT_FALSE(after.dummyMiss);
}

TEST(SpecBoxTest, SquashInvalidatesLabeledLinesEverywhere)
{
    // The flash clear still removes the footprint from both levels —
    // it just charges no stall for doing so.
    auto resident = [](int secret) {
        Core core(SystemConfig::makeSpecBox());
        UnxpecAttack attack(core);
        attack.setSecret(secret);
        attack.measureOnce();
        return core.hierarchy().l1d().residentLines();
    };
    EXPECT_EQ(resident(0), resident(1));
}

TEST(SpecBoxTest, UnxpecChannelClosed)
{
    // SpecBox does the full rollback walk but charges zero cycles (the
    // flash clear): nothing secret-dependent to time.
    Core core(SystemConfig::makeSpecBox());
    UnxpecAttack attack(core);
    attack.setSecret(0);
    attack.measureOnce();
    const double zero = attack.measureOnce();
    attack.setSecret(1);
    attack.measureOnce();
    const double one = attack.measureOnce();
    EXPECT_NEAR(one - zero, 0.0, 3.0);
}

} // namespace
} // namespace unxpec
