/**
 * @file
 * Edge-case tests of the out-of-order core: nested in-flight branches,
 * back-to-back mispredicts, structural back-pressure (ROB/LSQ full),
 * speculation across loop iterations, deep dependency chains, and the
 * memory-ordering waits (load behind store or fence, clflush, fence,
 * rdtscp), whose commit traces are pinned cycle for cycle.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "cpu/core.hh"

namespace unxpec {
namespace {

/**
 * Commit trace of `program` on a cold default core, auditing the ROB
 * side lists and every parked entry along the way. A missed wakeup
 * leaves its entry stuck, so a periodic audit is enough to see it.
 */
std::string
commitTrace(const Program &program)
{
    Core core(SystemConfig::makeDefault());
    std::ostringstream trace;
    core.setTrace(&trace);
    core.runBegin(program);
    while (core.runStep()) {
        if (core.now() % 16 == 0)
            core.auditInvariants();
    }
    const RunResult result = core.runFinish();
    EXPECT_TRUE(result.halted);
    return trace.str();
}

/** A load behind a store whose address waits on a DRAM miss. */
Program
loadBehindStore()
{
    ProgramBuilder b;
    const Addr miss = b.alloc(64);
    const Addr dst = b.alloc(64);
    const Addr src = b.alloc(64);
    b.initWord64(src, 0x5a);
    b.li(5, static_cast<std::int64_t>(miss));
    b.li(6, 9);
    b.li(7, static_cast<std::int64_t>(src));
    b.load(1, 5, 0);                                 // DRAM miss, reads 0
    b.store(1, static_cast<std::int64_t>(dst), 6);   // address waits on it
    b.load(2, 7, 0);                                 // held by the store
    b.halt();
    return b.build();
}

/** A load behind a FENCE that waits on a DRAM miss. */
Program
loadBehindFence()
{
    ProgramBuilder b;
    const Addr miss = b.alloc(64);
    const Addr src = b.alloc(64);
    b.li(5, static_cast<std::int64_t>(miss));
    b.li(6, static_cast<std::int64_t>(src));
    b.load(1, 5, 0);
    b.fence();
    b.load(2, 6, 0); // held by the fence
    b.addi(3, 2, 1);
    b.halt();
    return b.build();
}

/** A CLFLUSH behind a branch resolved by a multiply chain (no older
 *  memory operation is pending). */
Program
clflushBehindBranch()
{
    ProgramBuilder b;
    const Addr line = b.alloc(64);
    const int skip = b.label();
    b.li(1, 3);
    b.li(2, 1);
    b.li(6, static_cast<std::int64_t>(line));
    b.mul(1, 1, 1);
    b.mul(1, 1, 1);
    b.mul(1, 1, 1);
    b.blt(1, 2, skip); // 6561 < 1: not taken, predicted not taken
    b.clflush(6, 0);
    b.bind(skip);
    b.halt();
    return b.build();
}

/** A CLFLUSH behind an older pending load. */
Program
clflushBehindLoad()
{
    ProgramBuilder b;
    const Addr miss = b.alloc(64);
    const Addr line = b.alloc(64);
    b.li(5, static_cast<std::int64_t>(miss));
    b.li(6, static_cast<std::int64_t>(line));
    b.load(1, 5, 0);
    b.clflush(6, 0);
    b.addi(2, 1, 1);
    b.halt();
    return b.build();
}

/** A FENCE behind a DRAM miss. */
Program
fenceBehindMiss()
{
    ProgramBuilder b;
    const Addr miss = b.alloc(64);
    b.li(5, static_cast<std::int64_t>(miss));
    b.load(1, 5, 0);
    b.fence();
    b.li(2, 4);
    b.halt();
    return b.build();
}

/** An RDTSCP behind an older entry that has not issued yet. */
Program
rdtscpBehindUnissued()
{
    ProgramBuilder b;
    const Addr miss = b.alloc(64);
    b.li(5, static_cast<std::int64_t>(miss));
    b.load(1, 5, 0);
    b.addi(2, 1, 1); // waits on the miss: unissued
    b.rdtscp(9);
    b.halt();
    return b.build();
}

/** An RDTSCP behind an older issued, outstanding entry. */
Program
rdtscpBehindOutstanding()
{
    ProgramBuilder b;
    const Addr miss = b.alloc(64);
    b.li(5, static_cast<std::int64_t>(miss));
    b.li(8, 1);
    b.load(1, 5, 0); // issued, outstanding until the fill lands
    b.rdtscp(9);
    b.add(10, 9, 8);
    b.halt();
    return b.build();
}

/**
 * A wrong-path FENCE and load wait on an older DRAM miss that
 * survives the squash; the correct path reuses their seqs and ring
 * slots, one of them for an entry that waits on the same miss.
 */
Program
parkedThenSquashed()
{
    ProgramBuilder b;
    const Addr miss = b.alloc(64);
    const Addr src = b.alloc(64);
    const int skip = b.label();
    b.li(5, static_cast<std::int64_t>(miss));
    b.li(6, static_cast<std::int64_t>(src));
    b.li(1, 2);
    b.li(2, 1);
    b.load(3, 5, 0); // slow blocker, older than the branch
    for (int i = 0; i < 6; ++i)
        b.addi(1, 1, 0); // delay the branch so the wrong path dispatches
    b.bge(1, 2, skip);   // 2 >= 1: taken, predicted not taken
    b.fence();           // wrong path: waits on the miss
    b.load(7, 6, 0);     // wrong path: waits on the fence
    b.li(11, 0xBAD);
    b.bind(skip);
    b.li(10, 5);         // reuses the wrong-path fence's seq and slot
    b.fence();           // reuses the wrong-path load's; waits again
    b.load(8, 6, 64);
    b.rdtscp(9);
    b.halt();
    return b.build();
}

TEST(CoreOrderingTest, LoadBehindNotDoneStore)
{
    EXPECT_EQ(commitTrace(loadBehindStore()),
              "119 0 0: li r5, 268435456 = 268435456\n"
              "119 1 1: li r6, 9 = 9\n"
              "119 2 2: li r7, 268435584 = 268435584\n"
              "233 3 3: load8 r1, [r5+0] = 0\n"
              "234 4 4: store8 [r1+268435520], r6\n"
              "348 5 5: load8 r2, [r7+0] = 90\n");
}

TEST(CoreOrderingTest, LoadBehindFence)
{
    EXPECT_EQ(commitTrace(loadBehindFence()),
              "119 0 0: li r5, 268435456 = 268435456\n"
              "119 1 1: li r6, 268435520 = 268435520\n"
              "233 2 2: load8 r1, [r5+0] = 0\n"
              "234 3 3: fence\n"
              "348 4 4: load8 r2, [r6+0] = 0\n"
              "349 5 5: addi r3, r2, 1 = 1\n");
}

TEST(CoreOrderingTest, ClflushBehindUnresolvedBranch)
{
    EXPECT_EQ(commitTrace(clflushBehindBranch()),
              "119 0 0: li r1, 3 = 3\n"
              "119 1 1: li r2, 1 = 1\n"
              "119 2 2: li r6, 268435456 = 268435456\n"
              "122 3 3: mul r1, r1, r1 = 9\n"
              "125 4 4: mul r1, r1, r1 = 81\n"
              "128 5 5: mul r1, r1, r1 = 6561\n"
              "129 6 6: blt r1, r2, @8\n"
              "159 7 7: clflush [r6+0]\n");
}

TEST(CoreOrderingTest, ClflushBehindPendingLoad)
{
    EXPECT_EQ(commitTrace(clflushBehindLoad()),
              "119 0 0: li r5, 268435456 = 268435456\n"
              "119 1 1: li r6, 268435520 = 268435520\n"
              "233 2 2: load8 r1, [r5+0] = 0\n"
              "263 3 3: clflush [r6+0]\n"
              "263 4 4: addi r2, r1, 1 = 1\n");
}

TEST(CoreOrderingTest, FenceBehindDramMiss)
{
    EXPECT_EQ(commitTrace(fenceBehindMiss()),
              "119 0 0: li r5, 268435456 = 268435456\n"
              "233 1 1: load8 r1, [r5+0] = 0\n"
              "234 2 2: fence\n"
              "234 3 3: li r2, 4 = 4\n");
}

TEST(CoreOrderingTest, RdtscpBehindOlderUnissuedEntry)
{
    EXPECT_EQ(commitTrace(rdtscpBehindUnissued()),
              "119 0 0: li r5, 268435456 = 268435456\n"
              "233 1 1: load8 r1, [r5+0] = 0\n"
              "234 2 2: addi r2, r1, 1 = 1\n"
              "235 3 3: rdtscp r9 = 234\n");
}

TEST(CoreOrderingTest, RdtscpBehindOlderOutstandingEntry)
{
    EXPECT_EQ(commitTrace(rdtscpBehindOutstanding()),
              "119 0 0: li r5, 268435456 = 268435456\n"
              "119 1 1: li r8, 1 = 1\n"
              "233 2 2: load8 r1, [r5+0] = 0\n"
              "234 3 3: rdtscp r9 = 233\n"
              "235 4 4: add r10, r9, r8 = 234\n");
}

TEST(CoreOrderingTest, RdtscpBehindALongChainParksOnItsYoungestBlocker)
{
    // An RDTSCP behind a DRAM miss and 32 ALU ops that each wait on
    // the one before. Parked on the oldest unissued older entry, it
    // was woken and parked again every other op (14 parks; 28 on the
    // oldest not-done entry); parked on the youngest it waits once,
    // for the last op.
    ProgramBuilder b;
    const Addr miss = b.alloc(64);
    b.li(5, static_cast<std::int64_t>(miss));
    b.load(1, 5, 0);
    for (int i = 0; i < 32; ++i)
        b.addi(1, 1, 1);
    b.rdtscp(9);
    b.halt();

    Core core(SystemConfig::makeDefault());
    const RunResult result = core.run(b.build());
    EXPECT_TRUE(result.halted);
    EXPECT_EQ(result.reg(1), 32u);
    EXPECT_LE(core.stats().findCounter("orderParks")->value(), 2u);
}

TEST(CoreOrderingTest, ParkedEntrySquashedAndSlotReused)
{
    EXPECT_EQ(commitTrace(parkedThenSquashed()),
              "119 0 0: li r5, 268435456 = 268435456\n"
              "119 1 1: li r6, 268435520 = 268435520\n"
              "119 2 2: li r1, 2 = 2\n"
              "119 3 3: li r2, 1 = 1\n"
              "233 4 4: load8 r3, [r5+0] = 0\n"
              "233 5 5: addi r1, r1, 0 = 2\n"
              "233 6 6: addi r1, r1, 0 = 2\n"
              "233 7 7: addi r1, r1, 0 = 2\n"
              "234 8 8: addi r1, r1, 0 = 2\n"
              "234 9 9: addi r1, r1, 0 = 2\n"
              "234 10 10: addi r1, r1, 0 = 2\n"
              "234 11 11: bge r1, r2, @15\n"
              "235 12 15: li r10, 5 = 5\n"
              "235 13 16: fence\n"
              "348 14 17: load8 r8, [r6+64] = 0\n"
              "349 15 18: rdtscp r9 = 348\n");
}

TEST(CoreEdgeTest, NestedBranchesOuterMispredicts)
{
    // Outer branch resolves late (flushed bound) and mispredicts;
    // an inner branch inside the transient region resolved "fine"
    // before that — everything younger than the outer branch must be
    // rolled back regardless.
    Core core(SystemConfig::makeDefault());
    ProgramBuilder b;
    const Addr bound = b.alloc(64);
    b.initWord64(bound, 10);

    const int skip_outer = b.label();
    const int skip_inner = b.label();
    b.li(1, 50);                               // out of bounds
    b.li(5, static_cast<std::int64_t>(bound));
    b.li(7, 1);
    b.li(8, 2);
    b.clflush(5, 0);
    b.load(2, 5, 0);
    b.bge(1, 2, skip_outer); // mispredicted taken after resolution
    // Transient region with its own branch:
    b.blt(7, 8, skip_inner); // 1 < 2: taken
    b.li(9, 0xDEAD);
    b.bind(skip_inner);
    b.li(10, 0xBEEF);        // transient write
    b.bind(skip_outer);
    b.halt();

    const RunResult r = core.run(b.build());
    EXPECT_EQ(r.reg(9), 0u);
    EXPECT_EQ(r.reg(10), 0u);
}

TEST(CoreEdgeTest, BackToBackMispredicts)
{
    // A data-dependent branch that alternates direction mispredicts
    // repeatedly; results must still be architecturally exact.
    Core core(SystemConfig::makeDefault());
    ProgramBuilder b;
    b.li(1, 0);  // i
    b.li(2, 64); // limit
    b.li(3, 0);  // taken-count
    b.li(4, 1);
    b.li(6, 0);
    const int top = b.label();
    const int skip = b.label();
    b.bind(top);
    b.and_(5, 1, 4);       // i & 1
    b.beq(5, 6, skip);     // even -> skip
    b.addi(3, 3, 1);       // count odd iterations
    b.bind(skip);
    b.addi(1, 1, 1);
    b.blt(1, 2, top);
    b.halt();
    const RunResult r = core.run(b.build());
    EXPECT_EQ(r.reg(3), 32u);
    EXPECT_GE(core.stats().findCounter("mispredicts")->value(), 8u);
}

TEST(CoreEdgeTest, RobFullBackpressure)
{
    // A long-latency load at the head with hundreds of independent
    // ALU ops behind it: dispatch must stop at ROB capacity and the
    // program must still complete correctly.
    SystemConfig cfg = SystemConfig::makeDefault();
    cfg.core.robEntries = 16;
    Core core(cfg);
    ProgramBuilder b;
    const Addr buf = b.alloc(64);
    b.li(5, static_cast<std::int64_t>(buf));
    b.load(2, 5, 0); // cold miss heads the ROB
    b.li(3, 0);
    for (int i = 0; i < 300; ++i)
        b.addi(3, 3, 1);
    b.halt();
    const RunResult r = core.run(b.build());
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.reg(3), 300u);
}

TEST(CoreEdgeTest, LsqFullBackpressure)
{
    SystemConfig cfg = SystemConfig::makeDefault();
    cfg.core.lsqEntries = 4;
    Core core(cfg);
    ProgramBuilder b;
    const Addr buf = b.alloc(64 * 64);
    b.li(5, static_cast<std::int64_t>(buf));
    b.li(3, 0);
    for (int i = 0; i < 32; ++i) {
        b.load(2, 5, i * 64);
        b.add(3, 3, 2);
    }
    b.halt();
    const RunResult r = core.run(b.build());
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.reg(3), 0u); // uninitialized memory reads zero
}

TEST(CoreEdgeTest, DeepDependencyChainIsSerialized)
{
    // N dependent ADDIs take ~N cycles; N independent ones take ~N/4
    // at issue width 4.
    auto run_chain = [](bool dependent) {
        Core core(SystemConfig::makeDefault());
        ProgramBuilder b;
        b.li(1, 0);
        b.li(2, 0);
        b.li(3, 0);
        b.li(4, 0);
        for (int i = 0; i < 200; ++i) {
            if (dependent)
                b.addi(1, 1, 1);
            else
                b.addi(static_cast<RegIndex>(1 + (i % 4)),
                       static_cast<RegIndex>(1 + (i % 4)), 1);
        }
        b.halt();
        const Program p = b.build();
        core.run(p); // warm the I-cache
        return core.run(p).cycles;
    };
    const Cycle serial = run_chain(true);
    const Cycle parallel = run_chain(false);
    EXPECT_GT(serial, parallel + 100);
}

TEST(CoreEdgeTest, SpeculationAcrossLoopIterationsStaysCorrect)
{
    // The loop branch is predicted taken; the final iteration
    // mispredicts and the post-loop code must see the right totals.
    Core core(SystemConfig::makeDefault());
    ProgramBuilder b;
    const Addr buf = b.alloc(8 * 32);
    for (unsigned i = 0; i < 32; ++i)
        b.initWord64(buf + 8 * i, i);
    b.li(1, static_cast<std::int64_t>(buf));
    b.li(2, 0);
    b.li(3, 32);
    b.li(4, 0);
    const int top = b.label();
    b.bind(top);
    b.shl(5, 2, 3);
    b.add(5, 5, 1);
    b.load(6, 5, 0);
    b.add(4, 4, 6);
    b.addi(2, 2, 1);
    b.blt(2, 3, top);
    b.mul(7, 4, 4); // post-loop consumer
    b.halt();
    const RunResult r = core.run(b.build());
    EXPECT_EQ(r.reg(4), 496u);
    EXPECT_EQ(r.reg(7), 496u * 496u);
}

TEST(CoreEdgeTest, MispredictDuringCleanupStallHandledInOrder)
{
    // Two mis-speculating branches in close succession: the second
    // squash can only be detected after the first cleanup stall ends;
    // state must remain consistent.
    Core core(SystemConfig::makeDefault());
    ProgramBuilder b;
    const Addr bound = b.alloc(64);
    const Addr probe = b.alloc(64 * 4);
    b.initWord64(bound, 10);
    const int skip1 = b.label();
    const int skip2 = b.label();
    b.li(1, 50);
    b.li(5, static_cast<std::int64_t>(bound));
    b.li(6, static_cast<std::int64_t>(probe));
    b.clflush(5, 0);
    b.clflush(6, 0);
    b.clflush(6, 64);
    b.load(2, 5, 0);
    for (int p = 0; p < 20; ++p)
        b.addi(2, 2, 0); // f(N)-style padding: let the fill land
    b.bge(1, 2, skip1);
    b.load(7, 6, 0);   // transient install #1
    b.bind(skip1);
    b.clflush(5, 0);
    b.load(2, 5, 0);
    for (int p = 0; p < 20; ++p)
        b.addi(2, 2, 0);
    b.bge(1, 2, skip2);
    b.load(8, 6, 64);  // transient install #2
    b.bind(skip2);
    b.halt();
    const Program p = b.build();
    // First run fetches code cold (the transient fills may still be
    // inflight at squash and get scrubbed); the warm second run lands
    // both fills, exercising invalidation on both squashes. Reset the
    // predictor so the second run mis-speculates again.
    core.run(p);
    core.predictor().reset();
    const RunResult r = core.run(p);
    EXPECT_TRUE(r.halted);
    // Both transient installs rolled back.
    EXPECT_FALSE(core.hierarchy().l1d().present(lineAlign(probe),
                                                core.now()));
    EXPECT_FALSE(core.hierarchy().l1d().present(lineAlign(probe + 64),
                                                core.now()));
    EXPECT_GE(core.cleanup().stats().findCounter("invalidationsL1")
                  ->value(), 2u);
}

TEST(CoreEdgeTest, EmptyProgramTerminates)
{
    Core core(SystemConfig::makeDefault());
    ProgramBuilder b;
    const RunResult r = core.run(b.build());
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.instructions, 0u);
}

TEST(CoreEdgeTest, BranchToProgramEndTerminates)
{
    Core core(SystemConfig::makeDefault());
    ProgramBuilder b;
    const int end = b.label();
    b.li(1, 1);
    b.li(2, 2);
    b.blt(1, 2, end); // taken, jumps past the last instruction
    b.li(3, 7);       // skipped
    b.bind(end);
    const RunResult r = core.run(b.build());
    EXPECT_EQ(r.reg(3), 0u);
}

} // namespace
} // namespace unxpec
