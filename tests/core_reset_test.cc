/**
 * @file
 * Core::reset must be indistinguishable from fresh construction: a
 * pooled Core reused across trials (TrialRunner) has to produce
 * bit-identical results to a Core built from scratch with the same
 * seed, on both the attack workload (which exercises the rng-driven
 * Random L1 replacement and keyed CEASER L2 index of the default
 * defense) and the SPEC-synth workloads (which exercise the predictor,
 * ROB, LSQ, and the backing store). Also covers the zero-alloc steady
 * state: warm pooled trials must not touch the heap (this binary links
 * unxpec_alloc_gauge, which hooks global operator new/delete).
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "attack/unxpec.hh"
#include "cpu/assembler.hh"
#include "cpu/core.hh"
#include "harness/session.hh"
#include "harness/trial_runner.hh"
#include "sim/alloc_gauge.hh"
#include "sim/config.hh"
#include "sim/ring_queue.hh"
#include "sim/rng.hh"
#include "workload/synth_spec.hh"

namespace unxpec {
namespace {

/** Attack latency trace for a fresh Core(cfg). */
std::vector<double>
attackTrace(Core &core, unsigned rounds)
{
    UnxpecAttack attack(core);
    std::vector<double> trace;
    for (unsigned i = 0; i < rounds; ++i) {
        attack.setSecret(static_cast<int>(i & 1));
        trace.push_back(attack.measureOnce());
    }
    return trace;
}

TEST(CoreResetTest, AttackTraceMatchesFreshConstruction)
{
    SystemConfig cfg = SystemConfig::makeDefault();
    cfg.seed = 42;
    Core fresh(cfg);
    const std::vector<double> expected = attackTrace(fresh, 6);

    // Dirty a Core under a different seed, then reset to 42: every
    // rng draw, CEASER key, and replacement decision must replay.
    SystemConfig other = cfg;
    other.seed = 7;
    Core reused(other);
    attackTrace(reused, 3);
    reused.reset(42);
    EXPECT_EQ(attackTrace(reused, 6), expected);

    // And again: reset is idempotent across arbitrary reuse.
    reused.reset(42);
    EXPECT_EQ(attackTrace(reused, 6), expected);
}

/** Run a capped SPEC-synth program and keep the full result. */
RunResult
synthRun(Core &core, const std::string &profile)
{
    const Program program =
        SynthSpec::generate(SynthSpec::profile(profile), 1, 500);
    RunOptions options;
    options.maxInstructions = 20000;
    return core.run(program, options);
}

TEST(CoreResetTest, SynthWorkloadMatchesFreshConstruction)
{
    SystemConfig cfg = SystemConfig::makeDefault();
    cfg.seed = 99;
    Core fresh(cfg);
    const RunResult expected = synthRun(fresh, "x264_r");

    SystemConfig other = cfg;
    other.seed = 3;
    Core reused(other);
    synthRun(reused, "mcf_r"); // different program, different seed
    reused.reset(99);
    const RunResult got = synthRun(reused, "x264_r");

    EXPECT_EQ(got.cycles, expected.cycles);
    EXPECT_EQ(got.instructions, expected.instructions);
    EXPECT_EQ(got.regs, expected.regs);
    EXPECT_EQ(got.halted, expected.halted);
}

TEST(CoreResetTest, StatsAndMicroarchStateMatchFreshConstruction)
{
    SystemConfig cfg = SystemConfig::makeDefault();
    cfg.seed = 17;
    Core fresh(cfg);
    synthRun(fresh, "gcc_r");

    SystemConfig other = cfg;
    other.seed = 1234;
    Core reused(other);
    attackTrace(reused, 2);
    reused.reset(17);
    synthRun(reused, "gcc_r");

    EXPECT_EQ(reused.hierarchy().l1d().hits().value(),
              fresh.hierarchy().l1d().hits().value());
    EXPECT_EQ(reused.hierarchy().l1d().misses().value(),
              fresh.hierarchy().l1d().misses().value());
    EXPECT_EQ(reused.hierarchy().l2().misses().value(),
              fresh.hierarchy().l2().misses().value());
    EXPECT_EQ(reused.hierarchy().l1d().residentLines(),
              fresh.hierarchy().l1d().residentLines());
    EXPECT_EQ(reused.hierarchy().l2().residentLines(),
              fresh.hierarchy().l2().residentLines());
    EXPECT_EQ(reused.now(), fresh.now());
}

/** Every counter of the core, its cleanup engine, L1D and L2. */
std::string
statsText(Core &core)
{
    std::ostringstream os;
    core.stats().dump(os);
    core.cleanup().stats().dump(os);
    core.hierarchy().l1d().stats().dump(os);
    core.hierarchy().l2().stats().dump(os);
    return os.str();
}

/**
 * Four loads on the wrong path of a mispredicted branch (a fresh
 * predictor says not taken; the branch waits on a miss and is taken)
 * right before HALT: the correct path reuses one of their ROB slots,
 * so three squashed loads' memory records outlive the run.
 */
const char *const kSquashedLoadsTail = R"(
.data buf 4096
    li r1, buf
    li r3, 0
    load8 r2, [r1+0]
    beq r2, r3, done
    load8 r4, [r1+512]
    load8 r5, [r1+1024]
    load8 r6, [r1+1536]
    load8 r7, [r1+2048]
done:
    halt
)";

TEST(CoreResetTest, StaleRobSlotsFromSquashedLoadsChangeNothing)
{
    // ReorderBuffer::claim leaves a reused slot's memory record stale.
    // Under each defense whose loads carry a distinct record kind
    // (invisible, shadow, parked MSHR fill), an attack and then the
    // tail above leave squashed loads' records in the ROB; after
    // reset, an mcf_r run dispatches into those slots and must match a
    // freshly built core exactly.
    const Program tail = Assembler::assemble(kSquashedLoadsTail);
    for (const CleanupMode mode :
         {CleanupMode::InvisiSpec, CleanupMode::SafeSpec,
          CleanupMode::CacheSquash}) {
        SCOPED_TRACE(static_cast<int>(mode));
        SystemConfig cfg = SystemConfig::makeDefault();
        cfg.cleanupMode = mode;
        cfg.seed = 5;
        Core fresh(cfg);
        const RunResult expected = synthRun(fresh, "mcf_r");

        SystemConfig other = cfg;
        other.seed = 11;
        Core reused(other);
        attackTrace(reused, 4);
        reused.predictor().reset();
        const std::uint64_t before =
            reused.stats().findCounter("mispredicts")->value();
        ASSERT_TRUE(reused.run(tail).halted);
        ASSERT_EQ(reused.stats().findCounter("mispredicts")->value(),
                  before + 1);
        reused.reset(5);
        const RunResult got = synthRun(reused, "mcf_r");

        EXPECT_EQ(got.cycles, expected.cycles);
        EXPECT_EQ(got.instructions, expected.instructions);
        EXPECT_EQ(got.regs, expected.regs);
        EXPECT_EQ(got.halted, expected.halted);
        EXPECT_EQ(statsText(reused), statsText(fresh));
    }
}

// --- TrialRunner pooling ------------------------------------------------

TrialOutput
deltaTrial(const TrialContext &ctx)
{
    Session session(ctx);
    UnxpecAttack &attack = session.unxpec();
    attack.setSecret(0);
    const double zero = attack.measureOnce();
    attack.setSecret(1);
    const double one = attack.measureOnce();
    TrialOutput out;
    out.metric("delta", one - zero);
    out.metric("zero", zero);
    return out;
}

std::vector<ExperimentSpec>
poolSweep()
{
    std::vector<ExperimentSpec> specs;
    for (unsigned loads : {1u, 2u}) {
        ExperimentSpec spec;
        spec.label = "loads=" + std::to_string(loads);
        spec.attackCfg.inBranchLoads = loads;
        specs.push_back(std::move(spec));
    }
    return specs;
}

TEST(CorePoolTest, PooledParallelMatchesFreshSerial)
{
    const auto specs = poolSweep();
    constexpr unsigned reps = 4;
    constexpr std::uint64_t master = 2024;

    TrialRunner pooled_serial(1);
    TrialRunner pooled_parallel(4);
    const ExperimentResult serial =
        pooled_serial.runAll("t", "", specs, reps, master, deltaTrial);
    const ExperimentResult parallel =
        pooled_parallel.runAll("t", "", specs, reps, master, deltaTrial);
    ASSERT_EQ(serial.rows.size(), specs.size());
    ASSERT_EQ(parallel.rows.size(), specs.size());

    // The reference runs each trial outside a TrialRunner: with no
    // pool in its context, Session builds a fresh Core per trial.
    for (std::size_t i = 0; i < specs.size(); ++i) {
        std::vector<double> delta;
        std::vector<double> zero;
        for (unsigned rep = 0; rep < reps; ++rep) {
            const TrialContext ctx{specs[i], i, rep,
                                   Rng::deriveSeed(master, i * reps + rep),
                                   master};
            const TrialOutput out = deltaTrial(ctx);
            delta.push_back(out.metrics.at(0).second);
            zero.push_back(out.metrics.at(1).second);
        }
        EXPECT_EQ(serial.rows[i].values("delta"), delta);
        EXPECT_EQ(serial.rows[i].values("zero"), zero);
        EXPECT_EQ(parallel.rows[i].values("delta"), delta);
        EXPECT_EQ(parallel.rows[i].values("zero"), zero);
    }
}

/** Heap allocations made by `fn` on this thread. A reused Machine
 *  allocates nothing, and a build always does: unlike an address, this
 *  tells a rebuild from a reuse even when the new Machine lands where
 *  the freed one was. */
template <typename Fn>
std::uint64_t
allocsDuring(Fn &&fn)
{
    const AllocStats before = allocGaugeRead();
    fn();
    return allocGaugeRead().allocs - before.allocs;
}

TEST(CorePoolTest, PoolResetsOnNewSeedAndRebuildsOnNewConfig)
{
    CorePool pool;
    ExperimentSpec spec;
    const SystemConfig a = Session::configFor(spec, 1);
    const SystemConfig b = Session::configFor(spec, 2);

    Machine *first = &pool.acquire(a);
    Machine *second = nullptr;
    // Same machine, new seed: reset in place.
    EXPECT_EQ(allocsDuring([&] { second = &pool.acquire(b); }), 0u);
    EXPECT_EQ(first, second);
    EXPECT_EQ(second->core().config().seed, 2u);

    // A genuinely different machine replaces the held one.
    SystemConfig bigger = a;
    bigger.l1d.sizeBytes *= 2;
    Machine *third = nullptr;
    EXPECT_GT(allocsDuring([&] { third = &pool.acquire(bigger); }), 0u);
    EXPECT_EQ(third->core().config().l1d.sizeBytes, bigger.l1d.sizeBytes);
    EXPECT_EQ(third->core().config().seed, 1u);
}

TEST(CorePoolTest, InterleavedSpecsMatchFreshSessions)
{
    // loads=1 and loads=8 share a SystemConfig and differ only in
    // their UnxpecConfig; unsafe is a different machine running the
    // loads=8 attack. One pool runs them interleaved, each trial under
    // its own seed, and every trial must read exactly what a freshly
    // built Session reads.
    std::vector<ExperimentSpec> specs(3);
    specs[0].attackCfg.inBranchLoads = 1;
    specs[1].attackCfg.inBranchLoads = 8;
    specs[2].defense = "unsafe";
    specs[2].attackCfg.inBranchLoads = 8;

    auto latencies = [](Session &session) {
        UnxpecAttack &attack = session.unxpec();
        std::vector<double> trace;
        for (int secret : {0, 1, 0, 1}) {
            attack.setSecret(secret);
            trace.push_back(attack.measureOnce());
        }
        return trace;
    };

    CorePool pool;
    const std::size_t order[] = {0, 0, 1, 2, 1, 0};
    std::vector<const Machine *> machines;
    std::vector<bool> machine_built;
    std::vector<bool> attack_built;
    std::uint64_t seed = 100;
    for (const std::size_t i : order) {
        ++seed;
        TrialContext ctx{specs[i], i, 0, seed, 0, &pool};
        std::vector<double> pooled;
        {
            std::optional<Session> session;
            machine_built.push_back(
                allocsDuring([&] { session.emplace(ctx); }) > 0);
            attack_built.push_back(
                allocsDuring([&] { session->unxpec(); }) > 0);
            machines.push_back(&session->machine());
            pooled = latencies(*session);
        }
        Session fresh(specs[i], seed);
        EXPECT_EQ(pooled, latencies(fresh)) << "trial seed " << seed;
    }

    // The loads specs share one Machine and unsafe replaces it. The
    // attack is rebuilt whenever its config or its Machine changed:
    // unsafe's loads=8 attack cannot reuse the one built on the
    // cleanup_l1l2 Machine, nor the next loads=8 trial unsafe's.
    EXPECT_EQ(machine_built,
              (std::vector<bool>{true, false, false, true, true, false}));
    EXPECT_EQ(attack_built,
              (std::vector<bool>{true, false, true, true, true, true}));
    EXPECT_EQ(machines[0], machines[1]);
    EXPECT_EQ(machines[1], machines[2]);
    EXPECT_EQ(machines[4], machines[5]);
}

// --- zero-alloc steady state --------------------------------------------

TEST(CorePoolTest, SteadyStateTrialsAreHeapAllocFree)
{
    // After warm-up, a pooled trial's simulation — mistraining, the
    // transient window, squash + rollback, the measured round — must
    // not touch the heap: every per-cycle structure lives in storage
    // reserved when the Core was built. The envelope measured here is
    // the attack execution on a warm pooled Machine; per-trial
    // bookkeeping outside it (spec copies, result slots) is the
    // runner's and is bounded per trial, not per cycle.
    ExperimentSpec spec;
    spec.noise = "evaluation";
    CorePool pool;

    auto runTrial = [&](std::uint64_t seed) {
        TrialContext ctx{spec};
        ctx.seed = seed;
        ctx.pool = &pool;
        Session session(ctx);
        UnxpecAttack &attack = session.unxpec();
        attack.setSecret(1);
        return attack.measureOnce();
    };

    runTrial(1); // cold: builds Machine + attack, first-touch pages
    runTrial(2); // warm-up rep: remaining lazy init settles

    const AllocStats before = allocGaugeRead();
    double sink = 0.0;
    for (std::uint64_t seed = 3; seed < 8; ++seed)
        sink += runTrial(seed);
    const AllocStats after = allocGaugeRead();
    EXPECT_GT(sink, 0.0);
    EXPECT_EQ(after.allocs - before.allocs, 0u)
        << "steady-state trials allocated "
        << (after.allocs - before.allocs) << " times ("
        << (after.bytes - before.bytes) << " bytes)";
}

TEST(RingQueueAllocTest, NoHeapTouchAfterConstruction)
{
    RingQueue<int> q(16);
    const AllocStats before = allocGaugeRead();
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 16; ++i)
            q.push_back(i);
        q.clear();
    }
    const AllocStats after = allocGaugeRead();
    EXPECT_EQ(after.allocs - before.allocs, 0u);
}

TEST(AllocGaugeTest, GaugeCountsAllocations)
{
    // Sanity-check the hook itself so the zero above is meaningful. A
    // direct ::operator new call cannot be elided the way an unused
    // new-expression can (N3664).
    const AllocStats before = allocGaugeRead();
    void *p = ::operator new(64);
    const AllocStats after = allocGaugeRead();
    ::operator delete(p);
    EXPECT_GE(after.allocs - before.allocs, 1u);
    EXPECT_GE(after.bytes - before.bytes, 64u);
}

} // namespace
} // namespace unxpec
