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

#include <vector>

#include "attack/unxpec.hh"
#include "cpu/core.hh"
#include "harness/session.hh"
#include "harness/trial_runner.hh"
#include "sim/alloc_gauge.hh"
#include "sim/config.hh"
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

    TrialRunner fresh_serial(1);
    fresh_serial.reuseCores(false); // the old fresh-Core-per-trial path
    const ExperimentResult baseline =
        fresh_serial.runAll("t", "", specs, 4, 2024, deltaTrial);

    TrialRunner pooled_serial(1);
    TrialRunner pooled_parallel(4);
    const ExperimentResult serial =
        pooled_serial.runAll("t", "", specs, 4, 2024, deltaTrial);
    const ExperimentResult parallel =
        pooled_parallel.runAll("t", "", specs, 4, 2024, deltaTrial);

    ASSERT_EQ(serial.rows.size(), baseline.rows.size());
    ASSERT_EQ(parallel.rows.size(), baseline.rows.size());
    for (std::size_t i = 0; i < baseline.rows.size(); ++i) {
        for (const char *metric : {"delta", "zero"}) {
            EXPECT_EQ(serial.rows[i].values(metric),
                      baseline.rows[i].values(metric));
            EXPECT_EQ(parallel.rows[i].values(metric),
                      baseline.rows[i].values(metric));
        }
    }
}

TEST(CorePoolTest, PoolKeepsOneCorePerSpec)
{
    CorePool pool;
    ExperimentSpec spec;
    const SystemConfig a = Session::configFor(spec, 1);
    const SystemConfig b = Session::configFor(spec, 2);

    Machine &first = pool.acquire(0, a);
    Machine &second = pool.acquire(0, b);
    EXPECT_EQ(&first, &second); // same machine, new seed: reused
    EXPECT_EQ(second.core().config().seed, 2u);
    EXPECT_EQ(pool.size(), 1u);

    // A genuinely different machine rebuilds instead of resetting.
    SystemConfig bigger = a;
    bigger.l1d.sizeBytes *= 2;
    Machine &third = pool.acquire(0, bigger);
    EXPECT_NE(&third, &second);
    EXPECT_EQ(pool.size(), 1u);

    pool.acquire(1, a);
    EXPECT_EQ(pool.size(), 2u);
}

// --- zero-alloc steady state --------------------------------------------

TEST(CorePoolTest, SteadyStateTrialsAreHeapAllocFree)
{
    // After warm-up, a pooled trial's simulation — mistraining, the
    // transient window, squash + rollback, the measured round — must
    // not touch the heap: every per-cycle structure lives in the
    // Core's arena or reserved buffers. The envelope measured here is
    // the attack execution on a warm pooled Machine; per-trial
    // bookkeeping outside it (spec copies, result slots, journals) is
    // the runner's and is bounded per trial, not per cycle.
    ExperimentSpec spec;
    spec.noise = "evaluation";
    CorePool pool;
    TrialControl control;

    auto runTrial = [&](std::uint64_t seed) {
        TrialContext ctx{spec};
        ctx.seed = seed;
        ctx.pool = &pool;
        ctx.control = &control;
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
