/**
 * @file
 * Unit tests for the reorder buffer, including its slot indexing:
 * the head slot wraps around the slot array, and every slot-set walk
 * must visit entries in ascending seq order.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cpu/rob.hh"
#include "sim/audit.hh"

namespace unxpec {
namespace {

RobEntry
makeEntry(SeqNum seq, Opcode op = Opcode::ADD)
{
    RobEntry entry;
    entry.seq = seq;
    entry.inst.op = op;
    return entry;
}

TEST(RobTest, PushPopFifoOrder)
{
    ReorderBuffer rob(8);
    rob.push(makeEntry(0));
    rob.push(makeEntry(1));
    EXPECT_EQ(rob.front().seq, 0u);
    rob.popFront();
    EXPECT_EQ(rob.front().seq, 1u);
}

TEST(RobTest, CapacityTracked)
{
    ReorderBuffer rob(2);
    EXPECT_FALSE(rob.full());
    rob.push(makeEntry(0));
    rob.push(makeEntry(1));
    EXPECT_TRUE(rob.full());
    rob.popFront();
    EXPECT_FALSE(rob.full());
}

TEST(RobTest, FindBySeqIsExact)
{
    ReorderBuffer rob(8);
    for (SeqNum s = 10; s < 15; ++s)
        rob.push(makeEntry(s));
    // ReorderBuffer numbering starts wherever the caller starts it —
    // but must stay consecutive.
    ASSERT_NE(rob.find(12), nullptr);
    EXPECT_EQ(rob.find(12)->seq, 12u);
    EXPECT_EQ(rob.find(9), nullptr);
    EXPECT_EQ(rob.find(15), nullptr);
    rob.popFront();
    EXPECT_EQ(rob.find(10), nullptr);
    EXPECT_NE(rob.find(11), nullptr);
}

TEST(RobTest, SquashRemovesYoungerOnly)
{
    ReorderBuffer rob(8);
    for (SeqNum s = 0; s < 6; ++s)
        rob.push(makeEntry(s));
    const auto squashed = rob.squashYoungerThan(2);
    ASSERT_EQ(squashed.size(), 3u);
    // Oldest-first ordering of the squashed entries.
    EXPECT_EQ(squashed[0].seq, 3u);
    EXPECT_EQ(squashed[2].seq, 5u);
    EXPECT_EQ(rob.size(), 3u);
    EXPECT_NE(rob.find(2), nullptr);
    EXPECT_EQ(rob.find(3), nullptr);
}

TEST(RobTest, SquashYoungestIsNoop)
{
    ReorderBuffer rob(8);
    rob.push(makeEntry(0));
    rob.push(makeEntry(1));
    EXPECT_TRUE(rob.squashYoungerThan(1).empty());
    EXPECT_EQ(rob.size(), 2u);
}

TEST(RobTest, OlderUnresolvedBranchDetection)
{
    ReorderBuffer rob(8);
    rob.push(makeEntry(0, Opcode::ADD));
    RobEntry branch = makeEntry(1, Opcode::BLT);
    rob.push(branch);
    rob.push(makeEntry(2, Opcode::LOAD));

    EXPECT_TRUE(rob.olderUnresolvedBranch(2));
    EXPECT_FALSE(rob.olderUnresolvedBranch(1));
    rob.markDone(*rob.find(1));
    EXPECT_FALSE(rob.olderUnresolvedBranch(2));
}

TEST(RobTest, JmpIsNotCondBranchForSpeculation)
{
    ReorderBuffer rob(8);
    rob.push(makeEntry(0, Opcode::JMP));
    rob.push(makeEntry(1, Opcode::LOAD));
    EXPECT_FALSE(rob.olderUnresolvedBranch(1));
}

/** An entry that completes at dispatch (issued and done, in no slot
 *  set), so tests can retire it to move the head slot. */
RobEntry
makeDone(SeqNum seq)
{
    RobEntry entry = makeEntry(seq, Opcode::NOP);
    entry.issued = true;
    entry.done = true;
    return entry;
}

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

std::vector<SeqNum>
outstandingSeqs(const ReorderBuffer &rob)
{
    std::vector<SeqNum> seqs;
    rob.forEachOutstanding([&](const RobEntry &entry) {
        seqs.push_back(entry.seq);
        return true;
    });
    return seqs;
}

std::vector<SeqNum>
iterSeqs(const ReorderBuffer &rob)
{
    std::vector<SeqNum> seqs;
    for (const RobEntry &entry : rob)
        seqs.push_back(entry.seq);
    return seqs;
}

std::vector<SeqNum>
seqRange(SeqNum first, SeqNum last)
{
    std::vector<SeqNum> seqs;
    for (SeqNum seq = first; seq <= last; ++seq)
        seqs.push_back(seq);
    return seqs;
}

/** Retire `count` done entries starting at `seq`, so the head slot
 *  advances by `count`; returns the next free seq. */
SeqNum
advanceHead(ReorderBuffer &rob, SeqNum seq, unsigned count)
{
    for (unsigned i = 0; i < count; ++i) {
        rob.push(makeDone(seq++));
        rob.popFront();
    }
    return seq;
}

TEST(RobSlotTest, WrapsWithHeadSlotNearTheEnd)
{
    ReorderBuffer rob(8);
    SeqNum next = advanceHead(rob, 0, 6); // head slot 6 of 8
    for (unsigned i = 0; i < 8; ++i)
        rob.push(makeEntry(next++)); // slots 6, 7, 0, 1, ...
    EXPECT_TRUE(rob.full());
    EXPECT_EQ(rob.front().seq, 6u);
    for (SeqNum seq = 6; seq < 14; ++seq) {
        ASSERT_NE(rob.find(seq), nullptr);
        EXPECT_EQ(rob.find(seq)->seq, seq);
    }
    EXPECT_EQ(rob.find(5), nullptr);
    EXPECT_EQ(rob.find(14), nullptr);
    EXPECT_EQ(iterSeqs(rob), seqRange(6, 13));
    EXPECT_EQ(readySeqs(rob), seqRange(6, 13));
    EXPECT_EQ(rob.youngestNotDoneBefore(6), kSeqNone);
    EXPECT_EQ(rob.youngestNotDoneBefore(8), 7u); // slot 0 -> slot 7
    EXPECT_EQ(rob.youngestNotDoneBefore(13), 12u);
    EXPECT_NO_THROW(rob.auditInvariants(1));

    // Retiring across the wrap keeps every lookup exact.
    for (SeqNum seq = 6; seq < 9; ++seq) {
        rob.markIssued(*rob.find(seq));
        rob.markDone(*rob.find(seq));
        rob.popFront();
    }
    EXPECT_EQ(rob.front().seq, 9u);
    EXPECT_EQ(readySeqs(rob), seqRange(9, 13));
    EXPECT_NO_THROW(rob.auditInvariants(2));
}

TEST(RobSlotTest, SquashAcrossTheWrap)
{
    ReorderBuffer rob(8);
    SeqNum next = advanceHead(rob, 0, 5); // head slot 5 of 8
    for (unsigned i = 0; i < 7; ++i) {
        RobEntry entry = makeEntry(next++, i == 1 ? Opcode::BEQ
                                                  : Opcode::LOAD);
        rob.push(entry); // seqs 5..11 in slots 5, 6, 7, 0, 1, 2, 3
    }
    rob.markIssued(*rob.find(9));
    const auto squashed = rob.squashYoungerThan(6);
    ASSERT_EQ(squashed.size(), 5u);
    for (std::size_t i = 0; i < squashed.size(); ++i)
        EXPECT_EQ(squashed[i].seq, 7 + i); // oldest first, across slot 0
    EXPECT_EQ(rob.size(), 2u);
    EXPECT_EQ(rob.memCount(), 1u);
    EXPECT_EQ(rob.find(7), nullptr);
    EXPECT_EQ(readySeqs(rob), seqRange(5, 6));
    EXPECT_TRUE(outstandingSeqs(rob).empty());
    EXPECT_TRUE(rob.olderUnresolvedBranch(7));
    EXPECT_EQ(rob.youngestUnresolvedBranchBefore(6), kSeqNone);
    EXPECT_NO_THROW(rob.auditInvariants(1));

    // Dispatch resumes right after the branch, reusing the slots.
    for (SeqNum seq = 7; seq < 13; ++seq)
        rob.push(makeEntry(seq));
    EXPECT_TRUE(rob.full());
    EXPECT_EQ(iterSeqs(rob), seqRange(5, 12));
    EXPECT_EQ(readySeqs(rob), seqRange(5, 12));
    // The branch (slot 6) is the youngest blocker of seq 12 (slot 4).
    EXPECT_EQ(rob.youngestUnresolvedBranchBefore(12), 6u);
    EXPECT_EQ(rob.youngestPendingMemBefore(12), 5u);
    EXPECT_NO_THROW(rob.auditInvariants(2));
}

TEST(RobSlotTest, ClearThenPushAtAnArbitrarySeq)
{
    ReorderBuffer rob(8);
    SeqNum next = advanceHead(rob, 0, 3);
    rob.push(makeEntry(next++));
    rob.push(makeEntry(next++));
    rob.clear();
    EXPECT_TRUE(rob.empty());
    EXPECT_EQ(rob.find(3), nullptr);
    EXPECT_FALSE(rob.anyReadyUnissued());

    rob.push(makeEntry(1000));
    rob.push(makeEntry(1001, Opcode::FENCE));
    ASSERT_NE(rob.find(1001), nullptr);
    EXPECT_EQ(rob.find(1001)->seq, 1001u);
    EXPECT_EQ(rob.find(999), nullptr);
    EXPECT_EQ(rob.front().seq, 1000u);
    EXPECT_EQ(readySeqs(rob), seqRange(1000, 1001));
    EXPECT_FALSE(rob.olderPendingMem(1001));
    EXPECT_TRUE(rob.olderPendingMem(1002));
    EXPECT_EQ(rob.youngestNotDoneBefore(1001), 1000u);
    EXPECT_NO_THROW(rob.auditInvariants(1));
}

TEST(RobSlotTest, WalksVisitAscendingSeqAtEveryHeadSlot)
{
    // One to three 64-bit words per slot set, with a partial last word
    // at 70 slots; every head slot position, with the ROB full.
    for (const unsigned capacity : {8u, 64u, 70u, 192u}) {
        for (unsigned head = 0; head < capacity; ++head) {
            ReorderBuffer rob(capacity);
            SeqNum next = advanceHead(rob, 0, head);
            const SeqNum first = next;
            for (unsigned i = 0; i < capacity; ++i)
                rob.push(makeEntry(next++));
            // Issue every third entry so the outstanding set is sparse.
            std::vector<SeqNum> issued;
            std::vector<SeqNum> ready;
            for (SeqNum seq = first; seq < next; ++seq) {
                if ((seq - first) % 3 == 0) {
                    rob.markIssued(*rob.find(seq));
                    issued.push_back(seq);
                } else {
                    ready.push_back(seq);
                }
            }
            ASSERT_EQ(readySeqs(rob), ready)
                << "capacity " << capacity << " head " << head;
            ASSERT_EQ(outstandingSeqs(rob), issued)
                << "capacity " << capacity << " head " << head;
            ASSERT_EQ(iterSeqs(rob), seqRange(first, next - 1));
            ASSERT_EQ(rob.youngestNotDoneBefore(first), kSeqNone);
            ASSERT_EQ(rob.youngestNotDoneBefore(first + 1), first);
            ASSERT_EQ(rob.youngestNotDoneBefore(next - 1), next - 2);
            ASSERT_NO_THROW(rob.auditInvariants(1));
        }
    }
}

/**
 * The blocker classes of one entry in the youngest-blocker sweep:
 * what it is and how far it has got.
 */
enum class Blocker
{
    Done,      //!< completed NOP: blocks nothing
    Branch,    //!< unresolved conditional branch
    Load,      //!< pending memory op, issued
    Fence,     //!< pending memory op, unissued
    Alu,       //!< not done, unissued
    AluIssued, //!< not done, outstanding
};

/** Push `seq` as `kind` (see Blocker). */
void
pushBlocker(ReorderBuffer &rob, SeqNum seq, Blocker kind)
{
    switch (kind) {
      case Blocker::Done:
        rob.push(makeDone(seq));
        return;
      case Blocker::Branch:
        rob.push(makeEntry(seq, Opcode::BNE));
        return;
      case Blocker::Load:
        rob.push(makeEntry(seq, Opcode::LOAD));
        rob.markIssued(*rob.find(seq));
        return;
      case Blocker::Fence:
        rob.push(makeEntry(seq, Opcode::FENCE));
        return;
      case Blocker::Alu:
        rob.push(makeEntry(seq));
        return;
      case Blocker::AluIssued:
        rob.push(makeEntry(seq));
        rob.markIssued(*rob.find(seq));
        return;
    }
}

/** Youngest in-flight entry older than `seq` that `blocks`, found by
 *  a plain backward scan of the entries; kSeqNone when none does. */
template <typename Blocks>
SeqNum
scanBack(const ReorderBuffer &rob, SeqNum seq, Blocks &&blocks)
{
    for (SeqNum older = seq; older-- > rob.front().seq;) {
        if (blocks(*rob.find(older)))
            return older;
    }
    return kSeqNone;
}

/** Every youngest…Before query, for every in-flight seq, against the
 *  backward scan. */
void
expectYoungestBlockersMatchScan(const ReorderBuffer &rob)
{
    for (const RobEntry &entry : rob) {
        const SeqNum seq = entry.seq;
        ASSERT_EQ(rob.youngestNotDoneBefore(seq),
                  scanBack(rob, seq,
                           [](const RobEntry &e) { return !e.done; }))
            << "seq " << seq;
        ASSERT_EQ(rob.youngestPendingMemBefore(seq),
                  scanBack(rob, seq,
                           [](const RobEntry &e) {
                               return isMem(e.inst.op) && !e.done;
                           }))
            << "seq " << seq;
        ASSERT_EQ(rob.youngestUnresolvedBranchBefore(seq),
                  scanBack(rob, seq,
                           [](const RobEntry &e) {
                               return isCondBranch(e.inst.op) && !e.done;
                           }))
            << "seq " << seq;
    }
}

TEST(RobSlotTest, YoungestBlockerQueriesMatchABackwardScan)
{
    // One to three 64-bit words per slot set, with a partial last word
    // at 70 slots; every head slot position, with the ROB full. Three
    // fillings: no blocker at all (every set empty), one blocker of
    // each class at the three oldest offsets (so for a head near the
    // end of the array every younger entry finds it across the wrap),
    // and a dense pseudo-random mix.
    constexpr Blocker kSparse[] = {Blocker::Branch, Blocker::Load,
                                   Blocker::AluIssued};
    for (const unsigned capacity : {8u, 64u, 70u, 192u}) {
        for (unsigned head = 0; head < capacity; ++head) {
            for (unsigned filling = 0; filling < 3; ++filling) {
                ReorderBuffer rob(capacity);
                SeqNum next = advanceHead(rob, 0, head);
                std::uint64_t lcg = head * 2654435761u + capacity;
                for (unsigned offset = 0; offset < capacity; ++offset) {
                    Blocker kind = Blocker::Done;
                    if (filling == 1 && offset < 3) {
                        kind = kSparse[offset];
                    } else if (filling == 2) {
                        lcg = lcg * 6364136223846793005ull +
                              1442695040888963407ull;
                        kind = static_cast<Blocker>((lcg >> 33) % 6);
                    }
                    pushBlocker(rob, next++, kind);
                }
                ASSERT_TRUE(rob.full());
                SCOPED_TRACE(::testing::Message()
                             << "capacity " << capacity << " head "
                             << head << " filling " << filling);
                expectYoungestBlockersMatchScan(rob);
                ASSERT_NO_THROW(rob.auditInvariants(1));
            }
        }
    }
}

TEST(RobSlotTest, YoungestBlockerFollowsCompletions)
{
    // Head slot 6 of 8: seqs 6..13 in slots 6, 7, 0, ..., 5.
    ReorderBuffer rob(8);
    SeqNum next = advanceHead(rob, 0, 6);
    pushBlocker(rob, next++, Blocker::Load);      // 6, slot 6
    pushBlocker(rob, next++, Blocker::Branch);    // 7, slot 7
    pushBlocker(rob, next++, Blocker::Done);      // 8, slot 0
    pushBlocker(rob, next++, Blocker::Fence);     // 9, slot 1
    pushBlocker(rob, next++, Blocker::AluIssued); // 10, slot 2
    pushBlocker(rob, next++, Blocker::Done);      // 11, slot 3

    // The head has nothing older; its successor finds only the head.
    EXPECT_EQ(rob.youngestNotDoneBefore(6), kSeqNone);
    EXPECT_EQ(rob.youngestPendingMemBefore(6), kSeqNone);
    EXPECT_EQ(rob.youngestNotDoneBefore(7), 6u);
    EXPECT_EQ(rob.youngestPendingMemBefore(7), 6u);
    EXPECT_EQ(rob.youngestUnresolvedBranchBefore(7), kSeqNone);

    // Seq 11 sees every blocker; seq 9 finds the branch across the wrap.
    EXPECT_EQ(rob.youngestNotDoneBefore(11), 10u);
    EXPECT_EQ(rob.youngestPendingMemBefore(11), 9u);
    EXPECT_EQ(rob.youngestUnresolvedBranchBefore(11), 7u);
    EXPECT_EQ(rob.youngestPendingMemBefore(9), 6u);
    EXPECT_EQ(rob.youngestUnresolvedBranchBefore(9), 7u);

    // Completing the youngest blocker moves each answer to the next
    // older one; completing the last empties it.
    rob.markDone(*rob.find(10));
    EXPECT_EQ(rob.youngestNotDoneBefore(11), 9u);
    rob.markIssued(*rob.find(9));
    rob.markDone(*rob.find(9));
    EXPECT_EQ(rob.youngestNotDoneBefore(11), 7u);
    EXPECT_EQ(rob.youngestPendingMemBefore(11), 6u);
    rob.markIssued(*rob.find(7));
    rob.markDone(*rob.find(7));
    EXPECT_EQ(rob.youngestUnresolvedBranchBefore(11), kSeqNone);
    EXPECT_EQ(rob.youngestNotDoneBefore(11), 6u);
    rob.markDone(*rob.find(6));
    EXPECT_EQ(rob.youngestNotDoneBefore(11), kSeqNone);
    EXPECT_EQ(rob.youngestPendingMemBefore(11), kSeqNone);
    EXPECT_NO_THROW(rob.auditInvariants(1));
}

TEST(RobSlotTest, WalkStopsWhenTheVisitorSaysSo)
{
    ReorderBuffer rob(8);
    SeqNum next = advanceHead(rob, 0, 6);
    for (unsigned i = 0; i < 5; ++i)
        rob.push(makeEntry(next++));
    std::vector<SeqNum> seen;
    rob.forEachReadyUnissued([&](RobEntry &entry) {
        seen.push_back(entry.seq);
        // Taking the visited entry out of the set is allowed.
        rob.markIssued(entry);
        return seen.size() < 3;
    });
    EXPECT_EQ(seen, seqRange(6, 8));
    EXPECT_EQ(readySeqs(rob), seqRange(9, 10));
}

TEST(RobSlotTest, ClaimReadiesAReusedSlotAfterASquashedLoad)
{
    // Slot 1 first holds a speculative load that issued, recorded its
    // access, and was squashed with every field claim() resets set
    // away from its default.
    ReorderBuffer rob(4);
    RobEntry &branch = rob.claim(0);
    branch.inst.op = Opcode::BLT;
    rob.admit();
    RobEntry &load = rob.claim(1);
    load.inst.op = Opcode::LOAD;
    load.producer[0] = 0;
    load.srcReady[0] = false;
    rob.admit();
    rob.markIssued(load);
    rob.markDone(load);
    load.srcReady[1] = false;
    load.orderBlocker = 0;
    load.mispredicted = true;
    load.hasMemRecord = true;
    load.memRecord.lineAddr = 0x1000;
    load.memRecord.invisible = true;
    ASSERT_EQ(rob.squashYoungerThan(0).size(), 1u);

    RobEntry &reused = rob.claim(1);
    ASSERT_EQ(&reused, &load);
    EXPECT_EQ(reused.seq, 1u);
    EXPECT_TRUE(reused.srcReady[0]);
    EXPECT_TRUE(reused.srcReady[1]);
    EXPECT_FALSE(reused.issued);
    EXPECT_FALSE(reused.done);
    EXPECT_EQ(reused.orderBlocker, kSeqNone);
    EXPECT_FALSE(reused.mispredicted);
    EXPECT_FALSE(reused.hasMemRecord);
    // The stale record is poisoned in audit builds, so that a read of
    // it without the hasMemRecord check shows in the goldens.
    if constexpr (kAuditEnabled) {
        EXPECT_EQ(reused.memRecord.lineAddr, kStaleMemRecord.lineAddr);
        EXPECT_TRUE(reused.memRecord.invisible);
        EXPECT_TRUE(reused.memRecord.shadow);
        EXPECT_TRUE(reused.memRecord.mshrOnly);
    }

    // The reused slot goes back in flight like a fresh one.
    reused.inst.op = Opcode::ADD;
    rob.admit();
    EXPECT_EQ(readySeqs(rob), seqRange(0, 1));
    rob.auditInvariants(0);
}

} // namespace
} // namespace unxpec
