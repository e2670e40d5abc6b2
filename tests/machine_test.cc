/**
 * @file
 * Tests for the Machine layer: single-core equivalence to a bare Core
 * (the byte-identity contract behind tests/golden), deterministic
 * per-core seed derivation, machine-wide reset, CorePool reuse of
 * whole Machines, and the fact a multi-core trial rests on: core 0
 * runs every program, and cores 1..N-1 only answer its snoops.
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
    const RunResult via_machine = machine.core(0).run(program);

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

TEST(MachineTest, ResetReproducesFreshConstruction)
{
    SystemConfig cfg = SystemConfig::makeDefault();
    cfg.seed = 17;
    cfg.numCores = 2;
    const Program program = loopProgram();

    Machine machine(cfg);
    machine.core(0).run(loopProgram(kLineBytes));
    machine.reset(cfg.seed);
    const RunResult after_reset = machine.core(0).run(program);

    Machine fresh(cfg);
    const RunResult from_fresh = fresh.core(0).run(program);
    EXPECT_EQ(after_reset.cycles, from_fresh.cycles);
    EXPECT_EQ(after_reset.regs, from_fresh.regs);
}

TEST(MachineTest, WholeMachineAuditPassesAfterSharing)
{
    SystemConfig cfg = SystemConfig::makeDefault();
    cfg.numCores = 2;
    const Program program = loopProgram();
    Machine machine(cfg);
    machine.core(0).run(program);
    EXPECT_NO_THROW(machine.auditInvariants());
}

TEST(MachineTest, CorePoolReusesMachinesBitIdentically)
{
    SystemConfig cfg = SystemConfig::makeDefault();
    cfg.seed = 19;
    cfg.numCores = 2;
    const Program program = loopProgram();

    CorePool pool;
    Machine &first = pool.acquire(cfg);
    const RunResult r1 = first.core(0).run(program);

    // Same config, same seed, reacquired: the pooled machine is reset
    // and reproduces the run bit-for-bit.
    Machine &second = pool.acquire(cfg);
    EXPECT_EQ(&first, &second);
    const RunResult r2 = second.core(0).run(program);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.regs, r2.regs);

    // A different core count is a genuinely different machine.
    SystemConfig wider = cfg;
    wider.numCores = 4;
    Machine &third = pool.acquire(wider);
    EXPECT_EQ(third.numCores(), 4u);
}

TEST(MachineTest, OnlyCoreZeroRunsAndTheOthersAnswerSnoops)
{
    ExperimentSpec spec;
    spec.defense = "cleanup_l1l2";
    spec.cores = 4;
    Session session(spec, 1);
    UnxpecAttack &attack = session.unxpec();
    attack.setSecret(0);
    attack.measureOnce();
    attack.setSecret(1);
    attack.measureOnce();

    Machine &machine = session.machine();
    ASSERT_EQ(machine.numCores(), 4u);
    EXPECT_GT(machine.core(0).now(), 0u);
    for (unsigned i = 1; i < machine.numCores(); ++i) {
        Core &idle = machine.core(i);
        EXPECT_EQ(idle.now(), 0u) << "core " << i;
        EXPECT_TRUE(idle.hierarchy().l1i().residentLines().empty())
            << "core " << i;
        EXPECT_TRUE(idle.hierarchy().l1d().residentLines().empty())
            << "core " << i;
    }

    // Every L1 miss of core 0 snoops the idle cores, and none of them
    // ever holds a copy to serve, hide or downgrade.
    const StatGroup &coh = machine.coherence()->stats();
    auto count = [&](const char *name) -> std::uint64_t {
        const Counter *counter = coh.findCounter(name);
        EXPECT_NE(counter, nullptr) << name;
        return counter == nullptr ? 0 : counter->value();
    };
    EXPECT_GT(count("snoops"), 0u);
    EXPECT_EQ(count("remote_hits"), 0u);
    EXPECT_EQ(count("dummy_misses"), 0u);
    EXPECT_EQ(count("delayed_downgrades"), 0u);
}

} // namespace
} // namespace unxpec
