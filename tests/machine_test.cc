/**
 * @file
 * Tests for the Machine layer: single-core equivalence to a bare Core
 * (the byte-identity contract behind tests/golden), deterministic
 * per-core seed derivation, machine-wide reset, clock sync, and
 * CorePool reuse of whole Machines.
 */

#include <gtest/gtest.h>

#include "cpu/program.hh"
#include "harness/session.hh"
#include "machine/machine.hh"

namespace unxpec {
namespace {

/** A small loop with memory traffic: 10 iterations, then HALT. */
Program
loopProgram(Addr stride = 0)
{
    ProgramBuilder b;
    const Addr data = b.alloc(kLineBytes * 11);
    b.initWord64(data, 42);
    b.li(1, static_cast<std::int64_t>(data));
    b.li(4, 10);
    b.li(5, 0);
    const int top = b.label();
    b.bind(top);
    b.load(2, 1, static_cast<std::int64_t>(stride));
    b.addi(5, 5, 1);
    b.blt(5, 4, top);
    b.halt();
    return b.build();
}

TEST(MachineTest, SingleCoreHasNoEngine)
{
    SystemConfig cfg = SystemConfig::makeDefault();
    Machine machine(cfg);
    EXPECT_EQ(machine.numCores(), 1u);
    EXPECT_EQ(machine.coherence(), nullptr);
}

TEST(MachineTest, SingleCoreMachineMatchesBareCore)
{
    SystemConfig cfg = SystemConfig::makeDefault();
    cfg.seed = 5;
    const Program program = loopProgram();

    Machine machine(cfg);
    const RunResult via_machine = machine.run(program);

    Core bare(cfg);
    const RunResult via_core = bare.run(program);

    EXPECT_EQ(via_machine.cycles, via_core.cycles);
    EXPECT_EQ(via_machine.instructions, via_core.instructions);
    EXPECT_EQ(via_machine.halted, via_core.halted);
    EXPECT_EQ(via_machine.regs, via_core.regs);
}

TEST(MachineTest, MultiCoreBuildsEngineAndDerivedSeeds)
{
    SystemConfig cfg = SystemConfig::makeDefault();
    cfg.seed = 7;
    cfg.numCores = 3;
    Machine machine(cfg);
    EXPECT_EQ(machine.numCores(), 3u);
    ASSERT_NE(machine.coherence(), nullptr);
    EXPECT_EQ(machine.coherence()->numCores(), 3u);
    // Core 0 keeps the machine seed; the others derive distinct ones.
    EXPECT_EQ(machine.core(0).config().seed, 7u);
    EXPECT_NE(machine.core(1).config().seed, 7u);
    EXPECT_NE(machine.core(2).config().seed,
              machine.core(1).config().seed);
    // Shared levels: every core's L2 is core 0's L2.
    EXPECT_EQ(&machine.core(1).hierarchy().l2(),
              &machine.core(0).hierarchy().l2());
    EXPECT_EQ(&machine.core(2).hierarchy().mem(),
              &machine.core(0).hierarchy().mem());
    EXPECT_TRUE(machine.core(0).hierarchy().ownsShared());
    EXPECT_FALSE(machine.core(1).hierarchy().ownsShared());
}

TEST(MachineTest, RunOnIsDeterministic)
{
    SystemConfig cfg = SystemConfig::makeDefault();
    cfg.seed = 11;
    cfg.numCores = 2;
    const Program a = loopProgram();
    const Program b = loopProgram(kLineBytes);

    auto run_both = [&](Machine &machine) {
        const RunResult ra = machine.runOn(0, a);
        const RunResult rb = machine.runOn(1, b);
        return std::make_pair(ra, rb);
    };

    Machine first(cfg);
    Machine second(cfg);
    const auto [fa, fb] = run_both(first);
    const auto [sa, sb] = run_both(second);
    EXPECT_EQ(fa.cycles, sa.cycles);
    EXPECT_EQ(fb.cycles, sb.cycles);
    EXPECT_EQ(fa.regs, sa.regs);
    EXPECT_EQ(fb.regs, sb.regs);
    EXPECT_TRUE(fb.halted);
}

TEST(MachineTest, RunOnSyncsTheTargetClock)
{
    SystemConfig cfg = SystemConfig::makeDefault();
    cfg.numCores = 2;
    const Program program = loopProgram();
    Machine machine(cfg);
    machine.runOn(0, program);
    const Cycle after_first = machine.core(0).now();
    EXPECT_GT(after_first, 0u);
    // The second core starts at or after the first core's clock, so
    // its reads observe every older fill as landed.
    machine.runOn(1, program);
    EXPECT_GE(machine.core(1).now(), after_first);
}

TEST(MachineTest, SyncClocksNeverMovesBackwards)
{
    SystemConfig cfg = SystemConfig::makeDefault();
    cfg.numCores = 2;
    Machine machine(cfg);
    machine.runOn(0, loopProgram());
    const Cycle c0 = machine.core(0).now();
    machine.syncClocks();
    EXPECT_EQ(machine.core(0).now(), c0);
    EXPECT_EQ(machine.core(1).now(), c0);
}

TEST(MachineTest, ResetReproducesFreshConstruction)
{
    SystemConfig cfg = SystemConfig::makeDefault();
    cfg.seed = 17;
    cfg.numCores = 2;
    const Program program = loopProgram();

    Machine machine(cfg);
    machine.runOn(0, program);
    machine.runOn(1, program);
    machine.reset(cfg.seed);
    const RunResult after_reset = machine.runOn(0, program);

    Machine fresh(cfg);
    const RunResult from_fresh = fresh.runOn(0, program);
    EXPECT_EQ(after_reset.cycles, from_fresh.cycles);
    EXPECT_EQ(after_reset.regs, from_fresh.regs);
}

TEST(MachineTest, WholeMachineAuditPassesAfterSharing)
{
    SystemConfig cfg = SystemConfig::makeDefault();
    cfg.numCores = 2;
    const Program program = loopProgram();
    Machine machine(cfg);
    machine.runOn(0, program);
    machine.runOn(1, program);
    EXPECT_NO_THROW(machine.auditInvariants());
}

TEST(MachineTest, CorePoolReusesMachinesBitIdentically)
{
    SystemConfig cfg = SystemConfig::makeDefault();
    cfg.seed = 19;
    cfg.numCores = 2;
    const Program program = loopProgram();

    CorePool pool;
    Machine &first = pool.acquire(0, cfg);
    const RunResult r1 = first.runOn(0, program);
    EXPECT_EQ(pool.size(), 1u);

    // Same spec, same seed, reacquired: the pooled machine is reset
    // and reproduces the run bit-for-bit.
    Machine &second = pool.acquire(0, cfg);
    EXPECT_EQ(&first, &second);
    const RunResult r2 = second.runOn(0, program);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.regs, r2.regs);

    // A different core count is a genuinely different machine.
    SystemConfig wider = cfg;
    wider.numCores = 4;
    Machine &third = pool.acquire(0, wider);
    EXPECT_EQ(third.numCores(), 4u);
}

} // namespace
} // namespace unxpec
