/**
 * @file
 * Tests for the §II-B in-window protections: MESI-ish state tracking,
 * dummy-miss service for cross-core hits on speculative lines, and
 * delayed M/E->S downgrades, over the real CoherenceEngine with two
 * hierarchies sharing one L2 (the full MESI transition table).
 */

#include <gtest/gtest.h>

#include "memory/coherence.hh"
#include "memory/hierarchy.hh"

namespace unxpec {
namespace {

class CoherenceTest : public ::testing::Test
{
  protected:
    CoherenceTest()
        : cfg_(SystemConfig::makeDefault()), rng_(1), hier_(cfg_, rng_)
    {
    }

    SystemConfig cfg_;
    Rng rng_;
    MemoryHierarchy hier_;
};

TEST_F(CoherenceTest, CleanFillIsExclusive)
{
    const auto record = hier_.access(0x10000, 100, false, false, 1);
    const CacheLine *line = hier_.l1d().probe(record.lineAddr);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->coh, CohState::Exclusive);
}

TEST_F(CoherenceTest, WriteUpgradesToModified)
{
    const auto record = hier_.access(0x10000, 100, true, false, 1);
    EXPECT_EQ(hier_.l1d().probe(record.lineAddr)->coh,
              CohState::Modified);
}

// --- CoherenceEngine: two hierarchies sharing one L2 --------------------

/**
 * Two MemoryHierarchy instances wired the way Machine wires them:
 * core 1 shares core 0's L2/memory and both attach one engine. Drives
 * the real snoop path through MemoryHierarchy::access.
 */
class EngineTest : public ::testing::Test
{
  protected:
    explicit EngineTest(SystemConfig cfg = SystemConfig::makeDefault())
        : cfg_(cfg), rng0_(1), rng1_(2), h0_(cfg_, rng0_),
          h1_(cfg_, rng1_, &h0_), engine_(cfg_)
    {
        h0_.setCoherence(&engine_, 0);
        h1_.setCoherence(&engine_, 1);
    }

    /** Committed (non-speculative) read; returns the access record. */
    MemAccessRecord read(MemoryHierarchy &h, Addr addr)
    {
        const auto record = h.access(addr, now_, false, false, seq_++);
        now_ = std::max(now_, record.ready) + 1;
        return record;
    }

    /** Committed (non-speculative) write. */
    MemAccessRecord write(MemoryHierarchy &h, Addr addr)
    {
        const auto record = h.access(addr, now_, true, false, seq_++);
        now_ = std::max(now_, record.ready) + 1;
        return record;
    }

    /** Speculative access (write = false unless stated). */
    MemAccessRecord spec(MemoryHierarchy &h, Addr addr, bool write = false)
    {
        const auto record = h.access(addr, now_, write, true, seq_++);
        now_ = std::max(now_, record.ready) + 1;
        return record;
    }

    CohState stateIn(MemoryHierarchy &h, Addr line)
    {
        const CacheLine *slot = h.l1d().probe(line);
        return slot == nullptr ? CohState::Invalid : slot->coh;
    }

    SystemConfig cfg_;
    Rng rng0_;
    Rng rng1_;
    MemoryHierarchy h0_;
    MemoryHierarchy h1_;
    CoherenceEngine engine_;
    SeqNum seq_ = 1;
    Cycle now_ = 100;
};

constexpr Addr kLine = 0x10000;

// --- MESI transition table: local column --------------------------------

TEST_F(EngineTest, InvalidLocalReadFillsExclusive)
{
    read(h0_, kLine);
    EXPECT_EQ(stateIn(h0_, kLine), CohState::Exclusive);
}

TEST_F(EngineTest, InvalidLocalWriteAllocatesModified)
{
    write(h0_, kLine);
    EXPECT_EQ(stateIn(h0_, kLine), CohState::Modified);
}

TEST_F(EngineTest, ExclusiveLocalReadStaysExclusive)
{
    read(h0_, kLine);
    const auto again = read(h0_, kLine);
    EXPECT_TRUE(again.l1Hit);
    EXPECT_EQ(stateIn(h0_, kLine), CohState::Exclusive);
}

TEST_F(EngineTest, ExclusiveLocalWriteUpgradesToModified)
{
    read(h0_, kLine);
    write(h0_, kLine);
    EXPECT_EQ(stateIn(h0_, kLine), CohState::Modified);
}

TEST_F(EngineTest, ModifiedLocalAccessesStayModified)
{
    write(h0_, kLine);
    read(h0_, kLine);
    EXPECT_EQ(stateIn(h0_, kLine), CohState::Modified);
    write(h0_, kLine);
    EXPECT_EQ(stateIn(h0_, kLine), CohState::Modified);
}

TEST_F(EngineTest, SharedLocalReadStaysShared)
{
    read(h0_, kLine);
    read(h1_, kLine); // E -> S on both
    const auto again = read(h0_, kLine);
    EXPECT_TRUE(again.l1Hit);
    EXPECT_EQ(stateIn(h0_, kLine), CohState::Shared);
}

TEST_F(EngineTest, SharedLocalWriteInvalidatesOtherSharers)
{
    read(h0_, kLine);
    read(h1_, kLine);
    ASSERT_EQ(stateIn(h1_, kLine), CohState::Shared);
    write(h1_, kLine); // S -> M upgrade on core 1
    EXPECT_EQ(stateIn(h1_, kLine), CohState::Modified);
    EXPECT_EQ(h0_.l1d().probe(kLine), nullptr);
}

// --- MESI transition table: remote column -------------------------------

TEST_F(EngineTest, ExclusiveRemoteReadSharesBothCopies)
{
    read(h0_, kLine);
    const auto remote = read(h1_, kLine);
    EXPECT_TRUE(remote.servedBySnoop);
    EXPECT_EQ(remote.snoopOwner, 0u);
    EXPECT_EQ(stateIn(h0_, kLine), CohState::Shared);
    EXPECT_EQ(stateIn(h1_, kLine), CohState::Shared);
}

TEST_F(EngineTest, ModifiedRemoteReadSharesBothCopies)
{
    write(h0_, kLine);
    const auto remote = read(h1_, kLine);
    EXPECT_TRUE(remote.servedBySnoop);
    EXPECT_EQ(stateIn(h0_, kLine), CohState::Shared);
    EXPECT_EQ(stateIn(h1_, kLine), CohState::Shared);
}

TEST_F(EngineTest, SharedRemoteReadLeavesSharers)
{
    read(h0_, kLine);
    read(h1_, kLine);
    // A third read from core 0 hits locally; both stay S.
    read(h0_, kLine);
    EXPECT_EQ(stateIn(h0_, kLine), CohState::Shared);
    EXPECT_EQ(stateIn(h1_, kLine), CohState::Shared);
}

TEST_F(EngineTest, ExclusiveRemoteWriteInvalidates)
{
    read(h0_, kLine);
    write(h1_, kLine);
    EXPECT_EQ(h0_.l1d().probe(kLine), nullptr);
    EXPECT_EQ(stateIn(h1_, kLine), CohState::Modified);
}

TEST_F(EngineTest, ModifiedRemoteWriteInvalidates)
{
    write(h0_, kLine);
    write(h1_, kLine);
    EXPECT_EQ(h0_.l1d().probe(kLine), nullptr);
    EXPECT_EQ(stateIn(h1_, kLine), CohState::Modified);
}

TEST_F(EngineTest, SharedRemoteWriteInvalidatesEverySharer)
{
    read(h0_, kLine);
    read(h1_, kLine);
    write(h0_, kLine); // upgrade through invalidateRemote
    EXPECT_EQ(stateIn(h0_, kLine), CohState::Modified);
    EXPECT_EQ(h1_.l1d().probe(kLine), nullptr);
}

// --- MESI transition table: eviction column -----------------------------

TEST_F(EngineTest, SharedL2EvictionBackInvalidatesAllL1Copies)
{
    read(h0_, kLine);
    read(h1_, kLine);
    engine_.backInvalidate(kLine);
    EXPECT_EQ(h0_.l1d().probe(kLine), nullptr);
    EXPECT_EQ(h1_.l1d().probe(kLine), nullptr);
}

TEST_F(EngineTest, FlushIsMachineWide)
{
    read(h0_, kLine);
    read(h1_, kLine);
    h0_.flushLine(kLine);
    EXPECT_EQ(h0_.l1d().probe(kLine), nullptr);
    EXPECT_EQ(h1_.l1d().probe(kLine), nullptr);
    EXPECT_EQ(h0_.l2().probe(kLine), nullptr);
}

// --- defense semantics on the engine path -------------------------------

TEST_F(EngineTest, SpeculativeRemoteHitIsDummyMiss)
{
    const auto install = spec(h0_, kLine);
    const auto probe = read(h1_, kLine);
    EXPECT_TRUE(probe.dummyMiss);
    EXPECT_FALSE(probe.servedBySnoop);
    // Nothing was installed on the prober's side...
    EXPECT_FALSE(probe.l1Installed);
    EXPECT_EQ(h1_.l1d().probe(kLine), nullptr);
    // ...and the owner kept its state, with the downgrade deferred.
    const CacheLine *owner = h0_.l1d().probe(install.lineAddr);
    ASSERT_NE(owner, nullptr);
    EXPECT_EQ(owner->coh, CohState::Exclusive);
    EXPECT_TRUE(owner->pendingDowngrade);
}

TEST_F(EngineTest, DummyMissTimingMatchesHonestMiss)
{
    spec(h0_, kLine);
    const Cycle when = now_;
    const auto hidden = h1_.access(kLine, when, false, false, seq_++);
    const auto honest = h1_.access(0x99000, when, false, false, seq_++);
    ASSERT_TRUE(hidden.dummyMiss);
    ASSERT_FALSE(honest.l2Hit);
    EXPECT_EQ(hidden.latency(), honest.latency());
}

TEST_F(EngineTest, DelayedDowngradeAppliedAtCommit)
{
    const auto install = spec(h0_, kLine);
    read(h1_, kLine); // dummy miss; downgrade deferred
    h0_.commitInstall(install);
    const CacheLine *owner = h0_.l1d().probe(install.lineAddr);
    ASSERT_NE(owner, nullptr);
    EXPECT_EQ(owner->coh, CohState::Shared);
    EXPECT_FALSE(owner->pendingDowngrade);
}

TEST_F(EngineTest, SquashedSpeculativeReadUndoesDowngrade)
{
    write(h0_, kLine); // committed M owner
    const auto transient = spec(h1_, kLine);
    ASSERT_TRUE(transient.snoopDowngrade);
    EXPECT_EQ(transient.snoopOwner, 0u);
    EXPECT_EQ(transient.snoopPrevState, CohState::Modified);
    EXPECT_EQ(stateIn(h0_, kLine), CohState::Shared);
    // CleanupSpec rollback gives the owner its pre-snoop state back.
    h1_.undoSnoopDowngrade(transient);
    EXPECT_EQ(stateIn(h0_, kLine), CohState::Modified);
}

TEST_F(EngineTest, RemoteReadHidesSpeculativeCopies)
{
    spec(h0_, kLine);
    // From core 1 the probe finds core 0's speculative L1 copy; from
    // core 0 itself it sees only the shared L2's speculative copy.
    // Both stay hidden.
    for (const unsigned requester : {1u, 0u}) {
        const auto probe = engine_.remoteRead(requester, kLine, now_);
        EXPECT_FALSE(probe.hit);
        EXPECT_TRUE(probe.dummyMiss);
    }
}

TEST_F(EngineTest, AbsentLineIsAnHonestMiss)
{
    // No core holds the line: a plain miss at memory latency, not a
    // dummy miss (there is nothing to hide).
    const auto probe = engine_.remoteRead(1, 0x77000, now_);
    EXPECT_FALSE(probe.hit);
    EXPECT_FALSE(probe.dummyMiss);
    EXPECT_EQ(probe.observed, CohState::Invalid);
    EXPECT_EQ(probe.ready - now_, cfg_.l1d.hitLatency +
                                      cfg_.l2.hitLatency +
                                      cfg_.memory.accessLatency);
}

TEST_F(EngineTest, EngineAuditAcceptsLegitimateSharing)
{
    read(h0_, kLine);
    read(h1_, kLine);
    write(h0_, 0x20000);
    EXPECT_NO_THROW(engine_.auditInvariants(now_));
}

/** Same wiring, protections off: the channel the defenses close. */
class UnsafeEngineTest : public EngineTest
{
  protected:
    UnsafeEngineTest() : EngineTest(SystemConfig::makeUnsafeBaseline()) {}
};

TEST_F(UnsafeEngineTest, SpeculativeRemoteHitIsServed)
{
    spec(h0_, kLine);
    const auto probe = read(h1_, kLine);
    EXPECT_FALSE(probe.dummyMiss);
    EXPECT_TRUE(probe.servedBySnoop);
    // The unprotected machine leaks presence: the prober's latency is
    // an L2-hit fill, far below a memory fill.
    EXPECT_TRUE(probe.l2Hit);
}

} // namespace
} // namespace unxpec
