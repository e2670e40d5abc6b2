/**
 * @file
 * Tests for the microarchitectural invariant auditor (sim/audit.hh).
 * Every auditor must (a) stay silent on legitimately evolved state and
 * (b) fire on deliberately corrupted state: a ROB set bit for a dead
 * slot, a dropped ready bit, an entry parked on a blocker that is
 * already done, a written set missing from the cache's touched-set
 * list (so a reset would skip it), a desynced or duplicated cache
 * tag, an LRU stamp collision, an inconsistent MSHR entry, and an
 * incomplete rollback. Corruption that the public API correctly
 * refuses to produce is injected through the AuditTap friend hooks
 * below.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cleanup/cleanup_engine.hh"
#include "cleanup/spec_tracker.hh"
#include "cpu/core.hh"
#include "cpu/rob.hh"
#include "memory/cache.hh"
#include "memory/coherence.hh"
#include "memory/hierarchy.hh"
#include "sim/audit.hh"

namespace unxpec {

/** Test-only corruption hooks (friend of the audited classes). */
struct AuditTap
{
    /** Set the unissued bit of the free slot after the youngest entry
     *  (a bit for a dead slot; funnel bypass). */
    static void
    injectDeadSlotBit(ReorderBuffer &rob)
    {
        ReorderBuffer::setSlot(rob.unissued_, rob.slotAt(rob.size()));
    }

    /** Clear the ready bit of a ready entry (a lost wakeup). */
    static void
    dropReadyBit(ReorderBuffer &rob, SeqNum seq)
    {
        ReorderBuffer::clearSlot(rob.readyUnissued_,
                                 rob.slotOf(*rob.find(seq)));
    }

    /** Make a line valid in the row `set` maps to without claiming a
     *  row, so an unwritten set writes the shared empty row 0, which
     *  a reset skips. */
    static void
    installUntracked(Cache &cache, unsigned set, unsigned way,
                     Addr line_addr)
    {
        const std::size_t idx = cache.rowBase(set) + way;
        cache.tags_[idx] = Cache::tagKey(line_addr);
        cache.lines_[idx].valid = true;
    }

    /** Empty a tag slot under a valid line, desyncing the SoA
     *  mirror. */
    static void
    dropTag(Cache &cache, unsigned set, unsigned way)
    {
        cache.tags_[cache.rowBase(set) + way] = Cache::kEmptyTag;
    }

    /** LRU stamp of (set, way), via the cache's private state. */
    static std::uint64_t
    stamp(const Cache &cache, unsigned set, unsigned way)
    {
        return cache.repl_.auditStamp(cache.rowOf_[set], way);
    }

    /** Force (set, way) to a chosen LRU stamp. */
    static void
    smashStamp(Cache &cache, unsigned set, unsigned way, std::uint64_t value)
    {
        cache.repl_.stamps_[cache.rowBase(set) + way] = value;
    }
};

namespace {

CacheConfig
lruConfig()
{
    CacheConfig cfg;
    cfg.name = "audit-test";
    cfg.sizeBytes = 4 * 1024; // 16 sets x 4 ways
    cfg.ways = 4;
    cfg.hitLatency = 2;
    cfg.mshrs = 4;
    cfg.repl = ReplPolicy::LRU;
    return cfg;
}

RobEntry
aluEntry(SeqNum seq)
{
    RobEntry entry;
    entry.seq = seq;
    entry.inst.op = Opcode::ADD;
    return entry;
}

/** The ready unissued set, oldest first. */
std::vector<SeqNum>
readySeqs(ReorderBuffer &rob)
{
    std::vector<SeqNum> seqs;
    rob.forEachReadyUnissued([&](const RobEntry &entry) {
        seqs.push_back(entry.seq);
        return true;
    });
    return seqs;
}

// --- period knob ------------------------------------------------------

TEST(AuditPeriod, SetAndClampToOne)
{
    const Cycle saved = audit::period();
    audit::setPeriod(128);
    EXPECT_EQ(audit::period(), 128u);
    audit::setPeriod(0); // zero would mean "audit never": clamp to 1
    EXPECT_EQ(audit::period(), 1u);
    audit::setPeriod(saved);
}

// --- ROB --------------------------------------------------------------

TEST(RobAudit, CleanOnLegitimateState)
{
    ReorderBuffer rob(8);
    rob.push(aluEntry(0));
    rob.push(aluEntry(1));
    rob.markIssued(*rob.find(0));
    EXPECT_NO_THROW(rob.auditInvariants(1));
}

TEST(RobAudit, DetectsBitForDeadSlot)
{
    ReorderBuffer rob(8);
    rob.push(aluEntry(0));
    rob.push(aluEntry(1));
    AuditTap::injectDeadSlotBit(rob); // the slot seq 2 would claim
    EXPECT_THROW(rob.auditInvariants(1), AuditError);
}

TEST(RobAudit, DetectsDroppedReadyBit)
{
    ReorderBuffer rob(8);
    rob.push(aluEntry(0));
    rob.push(aluEntry(1));
    AuditTap::dropReadyBit(rob, 1); // seq 1 would never issue
    EXPECT_THROW(rob.auditInvariants(1), AuditError);
}

TEST(RobAudit, DetectsIssueFunnelBypass)
{
    ReorderBuffer rob(8);
    rob.push(aluEntry(0));
    rob.push(aluEntry(1));
    // Flipping the flag directly leaves seq 0 on the unissued list —
    // exactly the desync markIssued() exists to prevent.
    rob.find(0)->issued = true;
    EXPECT_THROW(rob.auditInvariants(1), AuditError);
}

TEST(RobAudit, CleanWhileParkedOnPendingBlocker)
{
    ReorderBuffer rob(8);
    RobEntry fence = aluEntry(0);
    fence.inst.op = Opcode::FENCE;
    rob.push(std::move(fence));
    RobEntry load = aluEntry(1);
    load.inst.op = Opcode::LOAD;
    rob.push(std::move(load));
    rob.park(*rob.find(1), 0);
    EXPECT_EQ(readySeqs(rob), std::vector<SeqNum>{0});
    EXPECT_NO_THROW(rob.auditInvariants(1));

    // The blocker's markDone puts the parked load back.
    rob.markIssued(*rob.find(0));
    rob.markDone(*rob.find(0));
    EXPECT_EQ(rob.find(1)->orderBlocker, kSeqNone);
    EXPECT_EQ(readySeqs(rob), std::vector<SeqNum>{1});
    EXPECT_NO_THROW(rob.auditInvariants(2));
}

TEST(RobAudit, DetectsMissedOrderingWakeup)
{
    ReorderBuffer rob(8);
    RobEntry fence = aluEntry(0);
    fence.inst.op = Opcode::FENCE;
    rob.push(std::move(fence));
    RobEntry load = aluEntry(1);
    load.inst.op = Opcode::LOAD;
    rob.push(std::move(load));
    rob.markIssued(*rob.find(0));
    rob.markDone(*rob.find(0));
    // Parked on a blocker that is already done: no markDone will ever
    // release the load.
    rob.park(*rob.find(1), 0);
    EXPECT_THROW(rob.auditInvariants(2), AuditError);
}

TEST(RobAudit, CleanAcrossSquash)
{
    ReorderBuffer rob(8);
    for (SeqNum seq = 0; seq < 6; ++seq) {
        RobEntry entry = aluEntry(seq);
        if (seq == 2)
            entry.inst.op = Opcode::BEQ;
        rob.push(std::move(entry));
    }
    rob.squashYoungerThan(2);
    EXPECT_NO_THROW(rob.auditInvariants(1));
}

// --- Cache ------------------------------------------------------------

TEST(CacheAudit, CleanAfterInstallsAndEvictions)
{
    Rng rng(1);
    Cache cache(lruConfig(), rng, 0);
    const unsigned sets = cache.config().numSets();
    // Overfill one set so evictions and LRU churn both happen.
    for (unsigned i = 0; i < 6; ++i)
        cache.install(0x4000 + i * sets * kLineBytes, 0, false, kSeqNone);
    cache.touch(0x4000 + 5 * sets * kLineBytes);
    EXPECT_NO_THROW(cache.auditInvariants(10));
}

TEST(CacheAudit, DetectsTagMirrorDesync)
{
    Rng rng(1);
    Cache cache(lruConfig(), rng, 0);
    const FillResult fill = cache.install(0x4000, 0, false, kSeqNone);
    AuditTap::dropTag(cache, fill.set, fill.way);
    EXPECT_THROW(cache.auditInvariants(1), AuditError);
}

TEST(CacheAudit, DetectsDuplicateTagInSet)
{
    Rng rng(1);
    Cache cache(lruConfig(), rng, 0);
    const FillResult fill = cache.install(0x4000, 0, false, kSeqNone);
    // A second copy of the same line in another way is a ghost line:
    // probe() can only ever reach the first one.
    cache.installAt(fill.set, fill.way + 1, 0x4000, false, 0);
    EXPECT_THROW(cache.auditInvariants(1), AuditError);
}

TEST(CacheAudit, DetectsLruStampCollision)
{
    Rng rng(1);
    Cache cache(lruConfig(), rng, 0);
    const unsigned sets = cache.config().numSets();
    const FillResult a = cache.install(0x4000, 0, false, kSeqNone);
    const FillResult b =
        cache.install(0x4000 + sets * kLineBytes, 0, false, kSeqNone);
    ASSERT_EQ(a.set, b.set);
    AuditTap::smashStamp(cache, b.set, b.way,
                         AuditTap::stamp(cache, a.set, a.way));
    EXPECT_THROW(cache.auditInvariants(1), AuditError);
}

TEST(CacheAudit, FreshAfterReseed)
{
    Rng rng(1);
    Cache cache(lruConfig(), rng, 0);
    const unsigned sets = cache.config().numSets();
    for (unsigned i = 0; i < 40; ++i)
        cache.install(0x4000 + i * (sets + 1) * kLineBytes, 0, false,
                      kSeqNone);
    cache.mshr().allocate(0x4000, 100, false, kSeqNone);
    EXPECT_THROW(cache.auditFresh(1), AuditError);
    cache.reseed(7);
    EXPECT_NO_THROW(cache.auditFresh(1));
}

TEST(CacheAudit, DetectsWriteOutsideTouchedSets)
{
    Rng rng(1);
    Cache cache(lruConfig(), rng, 0);
    AuditTap::installUntracked(cache, 3, 1, 0x4000);
    EXPECT_THROW(cache.auditInvariants(1), AuditError);
}

TEST(CacheAudit, DetectsTouchedSetSkippedByReset)
{
    Rng rng(1);
    Cache cache(lruConfig(), rng, 0);
    cache.install(0x4000, 0, false, kSeqNone);
    AuditTap::installUntracked(cache, cache.setOf(0x4000) + 1, 0, 0x8000);
    cache.reseed(0);
    EXPECT_THROW(cache.auditFresh(1), AuditError);
}

TEST(CacheAudit, DetectsSpeculativeMshrEntryWithoutInstaller)
{
    Rng rng(1);
    Cache cache(lruConfig(), rng, 0);
    cache.mshr().allocate(0x4000, 100, true, kSeqNone);
    EXPECT_THROW(cache.auditInvariants(1), AuditError);
}

TEST(CacheAudit, DetectsZeroTargetMshrEntry)
{
    Rng rng(1);
    Cache cache(lruConfig(), rng, 0);
    MshrEntry &entry = cache.mshr().allocate(0x4000, 100, false, kSeqNone);
    entry.targets = 0;
    EXPECT_THROW(cache.auditInvariants(1), AuditError);
}

TEST(CacheAudit, AcceptsInFlightFillWithMatchingMshrEntry)
{
    Rng rng(1);
    Cache cache(lruConfig(), rng, 0);
    cache.install(0x4000, 100, true, 3);
    cache.mshr().allocate(0x4000, 100, true, 3);
    EXPECT_NO_THROW(cache.auditInvariants(1)); // fill lands at 100 > 1
}

TEST(CacheAudit, DetectsInFlightFillWithMismatchedMshrEntry)
{
    Rng rng(1);
    Cache cache(lruConfig(), rng, 0);
    cache.install(0x4000, 100, true, 3);
    cache.mshr().allocate(0x4000, 55, true, 3); // arrival desynced
    EXPECT_THROW(cache.auditInvariants(1), AuditError);
}

// --- rollback completeness -------------------------------------------

class RollbackAuditTest : public ::testing::Test
{
  protected:
    RollbackAuditTest()
        : cfg_(SystemConfig::makeDefault()), rng_(1), hier_(cfg_, rng_)
    {
    }

    SystemConfig cfg_;
    Rng rng_;
    MemoryHierarchy hier_;
};

TEST_F(RollbackAuditTest, DetectsLeftoverSpeculativeLine)
{
    // A speculative install by (squashed) seq 10 that nobody undoes.
    hier_.access(0x4000, 0, false, true, 10);
    EXPECT_THROW(hier_.auditRollbackComplete(5, 0), AuditError);
}

TEST_F(RollbackAuditTest, PassesAfterRealCleanup)
{
    const MemAccessRecord record = hier_.access(0x4000, 0, false, true, 10);
    const Cycle squash = record.ready + 1; // fill landed: T5 path
    const CleanupJob job = SpecTracker::buildJob(squash, {record});
    CleanupEngine engine(CleanupMode::Cleanup_FOR_L1L2, cfg_.cleanupTiming,
                         rng_);
    engine.rollback(hier_, job, 0);
    EXPECT_NO_THROW(hier_.auditRollbackComplete(5, squash));
    EXPECT_NO_THROW(hier_.auditInvariants(squash));
}

TEST_F(RollbackAuditTest, PassesForOlderInFlightSpeculation)
{
    // Speculative install by seq 3, older than the squashed branch at
    // seq 5: it survives the squash and must not trip the audit.
    hier_.access(0x4000, 0, false, true, 3);
    EXPECT_NO_THROW(hier_.auditRollbackComplete(5, 0));
}

TEST_F(RollbackAuditTest, CheckpointProvesRollbackRestoredTagState)
{
    const CacheCheckpoint before = CacheCheckpoint::capture(hier_.l1d());
    const MemAccessRecord record = hier_.access(0x4000, 0, false, true, 10);
    const Cycle squash = record.ready + 1;
    const CleanupJob job = SpecTracker::buildJob(squash, {record});
    CleanupEngine engine(CleanupMode::Cleanup_FOR_L1L2, cfg_.cleanupTiming,
                         rng_);
    engine.rollback(hier_, job, 0);
    EXPECT_NO_THROW(before.verifyRestored(hier_.l1d(), squash));
}

TEST_F(RollbackAuditTest, CheckpointDetectsIncompleteRollback)
{
    const CacheCheckpoint before = CacheCheckpoint::capture(hier_.l1d());
    const MemAccessRecord record = hier_.access(0x4000, 0, false, true, 10);
    const Cycle squash = record.ready + 1;
    const CleanupJob job = SpecTracker::buildJob(squash, {record});
    // The unsafe baseline deliberately skips the undo: the transient
    // footprint persists — which is exactly what the checkpoint (and
    // the unXpec receiver) can see.
    CleanupEngine engine(CleanupMode::UnsafeBaseline, cfg_.cleanupTiming,
                         rng_);
    engine.rollback(hier_, job, 0);
    EXPECT_THROW(before.verifyRestored(hier_.l1d(), squash), AuditError);
}

// --- coherence invariants --------------------------------------------

/** Two hierarchies sharing one L2 through an engine (Machine wiring). */
class CoherenceAuditTest : public ::testing::Test
{
  protected:
    CoherenceAuditTest()
        : cfg_(SystemConfig::makeDefault()), rng0_(1), rng1_(2),
          h0_(cfg_, rng0_), h1_(cfg_, rng1_, &h0_), engine_(cfg_)
    {
        h0_.setCoherence(&engine_, 0);
        h1_.setCoherence(&engine_, 1);
    }

    SystemConfig cfg_;
    Rng rng0_;
    Rng rng1_;
    MemoryHierarchy h0_;
    MemoryHierarchy h1_;
    CoherenceEngine engine_;
};

TEST_F(CoherenceAuditTest, CleanAfterCommittedSharing)
{
    const auto a = h0_.access(0x4000, 0, false, false, 1);
    h1_.access(0x4000, a.ready + 1, false, false, 2);
    EXPECT_NO_THROW(engine_.auditInvariants(a.ready + 2));
}

TEST_F(CoherenceAuditTest, DetectsTwoOwnersOfOneLine)
{
    const auto a = h0_.access(0x4000, 0, false, false, 1);
    const auto b = h1_.access(0x4000, a.ready + 1, false, false, 2);
    // Both copies are S now; forcing them back to E fakes the
    // two-owners state the snoop protocol exists to prevent.
    h0_.l1d().probeMutable(a.lineAddr)->coh = CohState::Exclusive;
    h1_.l1d().probeMutable(b.lineAddr)->coh = CohState::Exclusive;
    EXPECT_THROW(engine_.auditInvariants(b.ready + 1), AuditError);
}

TEST_F(CoherenceAuditTest, DetectsOwnerCoexistingWithSharer)
{
    const auto a = h0_.access(0x4000, 0, false, false, 1);
    const auto b = h1_.access(0x4000, a.ready + 1, false, false, 2);
    h0_.l1d().probeMutable(a.lineAddr)->coh = CohState::Modified;
    EXPECT_THROW(engine_.auditInvariants(b.ready + 1), AuditError);
}

TEST_F(CoherenceAuditTest, DetectsInclusionViolation)
{
    const auto a = h0_.access(0x4000, 0, false, false, 1);
    // Dropping the shared-L2 copy behind the engine's back leaves an
    // L1 line with no L2 backing — the state backInvalidate prevents.
    h0_.l2().invalidate(a.lineAddr);
    EXPECT_THROW(engine_.auditInvariants(a.ready + 1), AuditError);
}

TEST_F(CoherenceAuditTest, DetectsStalePendingDowngrade)
{
    // A remote probe on a speculative copy defers the downgrade...
    const auto install = h0_.access(0x4000, 0, false, true, 7);
    h1_.access(0x4000, install.ready + 1, false, false, 8);
    CacheLine *owner = h0_.l1d().probeMutable(install.lineAddr);
    ASSERT_NE(owner, nullptr);
    ASSERT_TRUE(owner->pendingDowngrade);
    // ...and commit clears it. Clearing only the speculative marking
    // (a botched commitSpeculative) leaves the stale bit the audit
    // exists to catch.
    owner->speculative = false;
    owner->installer = 0;
    EXPECT_THROW(engine_.auditInvariants(install.ready + 2), AuditError);
    // The real commit path leaves no stale bit.
    owner->speculative = true;
    owner->installer = 7;
    h0_.commitInstall(install);
    EXPECT_NO_THROW(engine_.auditInvariants(install.ready + 2));
}

TEST_F(CoherenceAuditTest, CacheAuditRejectsPendingDowngradeWithoutOwnerState)
{
    const auto install = h0_.access(0x4000, 0, false, true, 7);
    h1_.access(0x4000, install.ready + 1, false, false, 8);
    CacheLine *owner = h0_.l1d().probeMutable(install.lineAddr);
    ASSERT_NE(owner, nullptr);
    ASSERT_TRUE(owner->pendingDowngrade);
    // A pending downgrade on a line that is not even M/E is nonsense.
    owner->coh = CohState::Shared;
    EXPECT_THROW(h0_.l1d().auditInvariants(install.ready + 2), AuditError);
}

// --- whole machine ----------------------------------------------------

TEST(CoreAudit, CleanAfterSpeculativeRunWithSquashes)
{
    Core core(SystemConfig::makeDefault());
    // The classic transient-execution shape: a slow-resolving bound
    // check mispredicted around a wrong-path write (core_test.cc).
    ProgramBuilder b;
    const Addr bound = b.alloc(64);
    b.initWord64(bound, 10);
    const int skip = b.label();
    b.li(1, 50);
    b.li(5, static_cast<std::int64_t>(bound));
    b.clflush(5, 0);
    b.load(2, 5, 0);
    b.bge(1, 2, skip);
    b.li(3, 0xBAD);
    b.bind(skip);
    b.halt();
    core.run(b.build());
    EXPECT_NO_THROW(core.auditInvariants());
}

/**
 * Core::run fast-forwards over idle cycles, but not past a periodic
 * audit: a cache corrupted before a run that idles on a DRAM miss is
 * caught (in UNXPEC_AUDIT builds, where the run loop audits).
 */
TEST(CoreAudit, PeriodicAuditRunsThroughIdleSkip)
{
    Core core(SystemConfig::makeDefault());
    Cache &l2 = core.hierarchy().l2();
    const FillResult fill = l2.install(0x7f0000, 0, false, kSeqNone);
    AuditTap::dropTag(l2, fill.set, fill.way);

    ProgramBuilder b;
    const Addr line = b.alloc(64);
    b.li(1, static_cast<std::int64_t>(line));
    b.load(2, 1, 0);
    b.addi(3, 2, 1);
    b.halt();
    const Cycle saved = audit::period();
    audit::setPeriod(97);
    if constexpr (kAuditEnabled)
        EXPECT_THROW(core.run(b.build()), AuditError);
    else
        EXPECT_NO_THROW(core.run(b.build()));
    audit::setPeriod(saved);
}

} // namespace
} // namespace unxpec
