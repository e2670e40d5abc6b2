/**
 * @file
 * End-to-end tests of the out-of-order core: architectural
 * correctness of every opcode, branch speculation and recovery,
 * timing ordering of fences/rdtscp, and run options.
 */

#include <gtest/gtest.h>

#include "cpu/core.hh"

namespace unxpec {
namespace {

RunResult
runProgram(Core &core, const Program &p)
{
    return core.run(p);
}

class CoreTest : public ::testing::Test
{
  protected:
    CoreTest() : core_(SystemConfig::makeDefault()) {}

    Core core_;
};

TEST_F(CoreTest, AluOpcodes)
{
    ProgramBuilder b;
    b.li(1, 12);
    b.li(2, 5);
    b.add(3, 1, 2);   // 17
    b.sub(4, 1, 2);   // 7
    b.mul(5, 1, 2);   // 60
    b.and_(6, 1, 2);  // 4
    b.or_(7, 1, 2);   // 13
    b.xor_(8, 1, 2);  // 9
    b.shl(9, 2, 3);   // 40
    b.shr(10, 1, 2);  // 3
    b.addi(11, 1, -2); // 10
    b.mov(12, 5);
    b.halt();
    const RunResult r = runProgram(core_, b.build());
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.reg(3), 17u);
    EXPECT_EQ(r.reg(4), 7u);
    EXPECT_EQ(r.reg(5), 60u);
    EXPECT_EQ(r.reg(6), 4u);
    EXPECT_EQ(r.reg(7), 13u);
    EXPECT_EQ(r.reg(8), 9u);
    EXPECT_EQ(r.reg(9), 40u);
    EXPECT_EQ(r.reg(10), 3u);
    EXPECT_EQ(r.reg(11), 10u);
    EXPECT_EQ(r.reg(12), 60u);
}

TEST_F(CoreTest, LoadStoreRoundTrip)
{
    ProgramBuilder b;
    const Addr buf = b.alloc(64);
    b.li(1, static_cast<std::int64_t>(buf));
    b.li(2, 0x1234567890ull);
    b.store(1, 0, 2);
    b.load(3, 1, 0);
    b.load(4, 1, 0, 1); // low byte
    b.halt();
    const RunResult r = runProgram(core_, b.build());
    EXPECT_EQ(r.reg(3), 0x1234567890ull);
    EXPECT_EQ(r.reg(4), 0x90u);
    EXPECT_EQ(core_.mem().read64(buf), 0x1234567890ull);
}

TEST_F(CoreTest, LoadSeesInitialData)
{
    ProgramBuilder b;
    const Addr buf = b.alloc(64);
    b.initWord64(buf, 777);
    b.li(1, static_cast<std::int64_t>(buf));
    b.load(2, 1, 0);
    b.halt();
    EXPECT_EQ(runProgram(core_, b.build()).reg(2), 777u);
}

TEST_F(CoreTest, StoreToLoadForwarding)
{
    ProgramBuilder b;
    const Addr buf = b.alloc(64);
    b.li(1, static_cast<std::int64_t>(buf));
    b.li(2, 99);
    b.store(1, 0, 2);
    b.load(3, 1, 0); // must see 99 via forwarding or memory
    b.halt();
    EXPECT_EQ(runProgram(core_, b.build()).reg(3), 99u);
}

TEST_F(CoreTest, BranchTakenAndNotTaken)
{
    ProgramBuilder b;
    const int taken = b.label();
    b.li(1, 1);
    b.li(2, 2);
    b.blt(1, 2, taken); // taken
    b.li(3, 111);       // skipped
    b.bind(taken);
    b.li(4, 222);
    b.halt();
    const RunResult r = runProgram(core_, b.build());
    EXPECT_EQ(r.reg(3), 0u);
    EXPECT_EQ(r.reg(4), 222u);
}

TEST_F(CoreTest, SignedComparisons)
{
    ProgramBuilder b;
    const int neg_lt = b.label();
    const int done = b.label();
    b.li(1, -5);
    b.li(2, 3);
    b.blt(1, 2, neg_lt); // -5 < 3 signed
    b.li(3, 0);
    b.jmp(done);
    b.bind(neg_lt);
    b.li(3, 1);
    b.bind(done);
    b.halt();
    EXPECT_EQ(runProgram(core_, b.build()).reg(3), 1u);
}

TEST_F(CoreTest, LoopExecutesCorrectCount)
{
    ProgramBuilder b;
    b.li(1, 0);
    b.li(2, 0);
    b.li(3, 100);
    const int top = b.label();
    b.bind(top);
    b.add(2, 2, 1);
    b.addi(1, 1, 1);
    b.blt(1, 3, top);
    b.halt();
    const RunResult r = runProgram(core_, b.build());
    EXPECT_EQ(r.reg(2), 4950u); // sum 0..99
}

TEST_F(CoreTest, MispredictRestoresArchitecturalState)
{
    // A mispredicted branch must not let wrong-path writes commit.
    ProgramBuilder b;
    const Addr bound = b.alloc(64);
    b.initWord64(bound, 10);
    const int skip = b.label();
    b.li(1, 50);                               // index, out of bounds
    b.li(5, static_cast<std::int64_t>(bound));
    b.clflush(5, 0);                           // slow branch resolution
    b.load(2, 5, 0);                           // bound = 10
    b.bge(1, 2, skip);                         // taken (50 >= 10)
    b.li(3, 0xBAD);                            // transient only
    b.bind(skip);
    b.halt();
    const RunResult r = runProgram(core_, b.build());
    EXPECT_EQ(r.reg(3), 0u) << "wrong-path write leaked to arch state";
}

TEST_F(CoreTest, TransientStoreNeverReachesMemory)
{
    ProgramBuilder b;
    const Addr bound = b.alloc(64);
    const Addr victim = b.alloc(64);
    b.initWord64(bound, 10);
    const int skip = b.label();
    b.li(1, 50);
    b.li(5, static_cast<std::int64_t>(bound));
    b.li(6, static_cast<std::int64_t>(victim));
    b.li(7, 0xEF11);
    b.clflush(5, 0);
    b.load(2, 5, 0);
    b.bge(1, 2, skip);
    b.store(6, 0, 7); // transient store
    b.bind(skip);
    b.halt();
    runProgram(core_, b.build());
    EXPECT_EQ(core_.mem().read64(victim), 0u);
}

TEST_F(CoreTest, RdtscpMonotonicAndOrdered)
{
    ProgramBuilder b;
    const Addr buf = b.alloc(64);
    b.rdtscp(1);
    b.li(5, static_cast<std::int64_t>(buf));
    b.load(2, 5, 0); // cold miss ~ memory latency
    b.rdtscp(3);     // must wait for the load
    b.sub(4, 3, 1);
    b.halt();
    const RunResult r = runProgram(core_, b.build());
    const Cycle memory_latency =
        core_.config().memory.accessLatency;
    EXPECT_GT(r.reg(4), memory_latency);
}

TEST_F(CoreTest, CachedLoadMeasuresFast)
{
    ProgramBuilder b;
    const Addr buf = b.alloc(64);
    b.li(5, static_cast<std::int64_t>(buf));
    b.load(2, 5, 0); // warm it
    b.fence();
    b.rdtscp(1);
    b.and_(6, 1, 0); // dependency: r0 is always 0
    b.add(7, 5, 6);
    b.load(2, 7, 0); // hit
    b.rdtscp(3);
    b.sub(4, 3, 1);
    b.halt();
    const RunResult r = runProgram(core_, b.build());
    EXPECT_LT(r.reg(4), 20u);
}

TEST_F(CoreTest, ClflushForcesNextMiss)
{
    ProgramBuilder b;
    const Addr buf = b.alloc(64);
    b.li(5, static_cast<std::int64_t>(buf));
    b.load(2, 5, 0);
    b.clflush(5, 0);
    b.fence();
    b.rdtscp(1);
    b.and_(6, 1, 0);
    b.add(7, 5, 6);
    b.load(2, 7, 0); // miss again
    b.rdtscp(3);
    b.sub(4, 3, 1);
    b.halt();
    const RunResult r = runProgram(core_, b.build());
    EXPECT_GT(r.reg(4), core_.config().memory.accessLatency);
}

TEST_F(CoreTest, MaxInstructionsStopsRun)
{
    ProgramBuilder b;
    b.li(1, 0);
    const int top = b.label();
    b.bind(top);
    b.addi(1, 1, 1);
    b.jmp(top);
    RunOptions options;
    options.maxInstructions = 500;
    const RunResult r = core_.run(b.build(), options);
    EXPECT_FALSE(r.halted);
    EXPECT_GE(r.instructions, 500u);
    EXPECT_LT(r.instructions, 510u);
}

TEST_F(CoreTest, WarmupCyclesRecorded)
{
    ProgramBuilder b;
    b.li(1, 0);
    const int top = b.label();
    b.bind(top);
    b.addi(1, 1, 1);
    b.jmp(top);
    RunOptions options;
    options.maxInstructions = 1000;
    options.warmupInstructions = 200;
    const RunResult r = core_.run(b.build(), options);
    EXPECT_GT(r.warmupCycles, 0u);
    EXPECT_LT(r.warmupCycles, r.cycles);
}

TEST_F(CoreTest, ProgramWithoutHaltTerminates)
{
    ProgramBuilder b;
    b.li(1, 5);
    b.addi(1, 1, 1);
    const RunResult r = runProgram(core_, b.build());
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.reg(1), 6u);
}

TEST_F(CoreTest, MicroarchPersistsAcrossRuns)
{
    ProgramBuilder b;
    const Addr buf = b.alloc(64);
    b.li(5, static_cast<std::int64_t>(buf));
    b.fence();
    b.rdtscp(1);
    b.and_(6, 1, 0);
    b.add(7, 5, 6);
    b.load(2, 7, 0);
    b.rdtscp(3);
    b.sub(4, 3, 1);
    b.halt();
    const Program p = b.build();
    const RunResult cold = core_.run(p);
    const RunResult warm = core_.run(p);
    EXPECT_GT(cold.reg(4), warm.reg(4));
    EXPECT_LT(warm.reg(4), 20u);
}

TEST_F(CoreTest, StatsCountCommitsAndBranches)
{
    ProgramBuilder b;
    b.li(1, 0);
    b.li(2, 10);
    const int top = b.label();
    b.bind(top);
    b.addi(1, 1, 1);
    b.blt(1, 2, top);
    b.halt();
    core_.run(b.build());
    EXPECT_GE(core_.stats().findCounter("committedInsts")->value(), 23u);
    EXPECT_GE(core_.stats().findCounter("branches")->value(), 10u);
    EXPECT_GE(core_.stats().findCounter("mispredicts")->value(), 1u);
}

TEST_F(CoreTest, InterruptNoiseInflatesRuntime)
{
    ProgramBuilder quiet_prog;
    quiet_prog.li(1, 0);
    quiet_prog.li(2, 2000);
    const int top = quiet_prog.label();
    quiet_prog.bind(top);
    quiet_prog.addi(1, 1, 1);
    quiet_prog.blt(1, 2, top);
    quiet_prog.halt();
    const Program p = quiet_prog.build();

    Core quiet(SystemConfig::makeDefault());
    Core noisy(SystemConfig::makeDefault());
    noisy.setInterruptNoise(0.01, 50, 100);
    const RunResult rq = quiet.run(p);
    const RunResult rn = noisy.run(p);
    EXPECT_GT(rn.cycles, rq.cycles + 100);
}

} // namespace
} // namespace unxpec
