/**
 * @file
 * Hot-path kernel benchmarks with machine-readable output: cache
 * probe/install, main-memory access, rollback, full attack rounds, and
 * TrialRunner fan-out (fresh Cores vs the pooled runner). Run via
 * scripts/bench_kernel.sh, which emits BENCH_kernel.json
 * (--benchmark_out); CI runs a reduced-iteration smoke pass.
 *
 * The counters to watch: sim_cycles_per_sec on BM_AttackRound (how
 * fast the simulator burns simulated time on the paper's main
 * workload) and trials_per_sec on the fan-out benches — fresh Cores
 * vs the pooled runner. The fan-out trial is deliberately light (short
 * attack round) so per-trial setup cost — what pooling eliminates —
 * dominates the measurement instead of drowning in simulation compute.
 */

#include <benchmark/benchmark.h>

#include <cstdint>

#include "attack/unxpec.hh"
#include "cleanup/cleanup_engine.hh"
#include "cleanup/spec_tracker.hh"
#include "cpu/core.hh"
#include "harness/session.hh"
#include "harness/spec.hh"
#include "harness/trial_runner.hh"
#include "memory/hierarchy.hh"
#include "sim/arena.hh"
#include "sim/config.hh"
#include "sim/rng.hh"

using namespace unxpec;

// --- cache kernels ------------------------------------------------------

static void
BM_CacheProbeHit(benchmark::State &state)
{
    SystemConfig cfg = makeDefense("cleanup_l1l2");
    Rng rng(1);
    Cache cache(cfg.l1d, rng, 1);
    // Fill one set so the probe scans a full tag row.
    for (unsigned way = 0; way < cfg.l1d.ways; ++way)
        cache.install(static_cast<Addr>(way) * cfg.l1d.numSets() * 64, 0,
                      false, kSeqNone);
    const Addr resident =
        static_cast<Addr>(cfg.l1d.ways - 1) * cfg.l1d.numSets() * 64;
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.probe(resident));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheProbeHit);

static void
BM_CacheProbeMiss(benchmark::State &state)
{
    SystemConfig cfg = makeDefense("cleanup_l1l2");
    Rng rng(1);
    Cache cache(cfg.l1d, rng, 1);
    for (unsigned way = 0; way < cfg.l1d.ways; ++way)
        cache.install(static_cast<Addr>(way) * cfg.l1d.numSets() * 64, 0,
                      false, kSeqNone);
    const Addr absent =
        static_cast<Addr>(cfg.l1d.ways + 7) * cfg.l1d.numSets() * 64;
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.probe(absent));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheProbeMiss);

static void
BM_CacheInstall(benchmark::State &state)
{
    SystemConfig cfg = makeDefense("cleanup_l1l2");
    Rng rng(1);
    Cache cache(cfg.l1d, rng, 1);
    Addr addr = 0;
    for (auto _ : state) {
        addr += 64;
        benchmark::DoNotOptimize(cache.install(addr, 0, false, kSeqNone));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheInstall);

// CEASER-indexed, random-replacement install: the slow flavor (keyed
// permutation inlined, rng draw per victim).
static void
BM_CacheInstallCeaser(benchmark::State &state)
{
    SystemConfig cfg = makeDefense("cleanup_l1l2");
    CacheConfig l2 = cfg.l2;
    l2.index = IndexPolicy::Ceaser;
    l2.repl = ReplPolicy::Random;
    Rng rng(1);
    Cache cache(l2, rng, 0x1234);
    Addr addr = 0;
    for (auto _ : state) {
        addr += 64;
        benchmark::DoNotOptimize(cache.install(addr, 0, false, kSeqNone));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheInstallCeaser);

// --- memory kernels -----------------------------------------------------

static void
BM_MainMemoryRead64(benchmark::State &state)
{
    MemoryConfig cfg;
    Rng rng(1);
    MainMemory mem(cfg, rng);
    for (Addr a = 0; a < 1 << 16; a += 8)
        mem.write64(a, a);
    Addr addr = 0;
    for (auto _ : state) {
        addr = (addr + 8) & 0xffff;
        benchmark::DoNotOptimize(mem.read64(addr));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MainMemoryRead64);

static void
BM_MainMemoryWrite64(benchmark::State &state)
{
    MemoryConfig cfg;
    Rng rng(1);
    MainMemory mem(cfg, rng);
    Addr addr = 0;
    std::uint64_t value = 0;
    for (auto _ : state) {
        addr = (addr + 8) & 0xffff;
        mem.write64(addr, ++value);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MainMemoryWrite64);

static void
BM_HierarchyAccessHit(benchmark::State &state)
{
    SystemConfig cfg = makeDefense("cleanup_l1l2");
    Rng rng(1);
    MemoryHierarchy hier(cfg, rng);
    hier.access(0x1000, 0, false, false, 0);
    Cycle now = 1000;
    for (auto _ : state) {
        ++now;
        benchmark::DoNotOptimize(hier.access(0x1000, now, false, false, now));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyAccessHit);

// --- rollback kernel ----------------------------------------------------

static void
BM_Rollback(benchmark::State &state)
{
    SystemConfig cfg = makeDefense("cleanup_l1l2");
    Rng rng(1);
    MemoryHierarchy hier(cfg, rng);
    CleanupEngine engine(cfg.cleanupMode, cfg.cleanupTiming, rng);
    Cycle now = 0;
    for (auto _ : state) {
        now += 1000;
        // One transient install that landed and must be rolled back.
        CleanupJob job;
        job.squashCycle = now + 500;
        MemAccessRecord fill =
            hier.access(0x40000 + (now % 64) * 64, now, false, true, 1);
        job.landed.push_back(fill);
        if (fill.l1Installed)
            ++job.l1Invalidations;
        if (fill.l2Installed)
            ++job.l2Invalidations;
        benchmark::DoNotOptimize(
            engine.rollback(hier, job, /*older_drain=*/0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Rollback);

// --- full-system kernels ------------------------------------------------

static void
BM_AttackRound(benchmark::State &state)
{
    Core core(makeDefense("cleanup_l1l2"));
    UnxpecAttack attack(core);
    attack.setSecret(1);
    const Cycle start = core.now();
    for (auto _ : state)
        benchmark::DoNotOptimize(attack.measureOnce());
    state.SetItemsProcessed(state.iterations());
    state.counters["sim_cycles_per_sec"] = benchmark::Counter(
        static_cast<double>(core.now() - start), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AttackRound)->Unit(benchmark::kMicrosecond);

static void
BM_CoreReset(benchmark::State &state)
{
    Core core(makeDefense("cleanup_l1l2"));
    UnxpecAttack attack(core);
    attack.setSecret(1);
    attack.measureOnce();
    std::uint64_t seed = 1;
    for (auto _ : state)
        core.reset(++seed);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreReset)->Unit(benchmark::kMicrosecond);

namespace {

/**
 * A deliberately light fig03-style trial: one short attack round.
 * With heavy trials, per-trial setup (Machine + attack construction —
 * the cost pooling exists to remove) is a rounding error
 * and fresh-vs-pooled measures nothing; a short round keeps the
 * setup-to-compute ratio representative of campaign sweeps with many
 * small points.
 */
TrialOutput
lightTrial(const TrialContext &ctx)
{
    Session session(ctx);
    UnxpecAttack &attack = session.unxpec();
    attack.setSecret(1);
    TrialOutput out;
    out.metric("lat", attack.measureOnce());
    return out;
}

std::vector<ExperimentSpec>
fanoutSweep()
{
    std::vector<ExperimentSpec> specs;
    for (unsigned loads : {1u, 2u, 4u}) {
        ExperimentSpec spec;
        spec.label = "loads=" + std::to_string(loads);
        spec.attackCfg.inBranchLoads = loads;
        spec.attackCfg.mistrainIterations = 2;
        specs.push_back(std::move(spec));
    }
    return specs;
}

void
runFanout(benchmark::State &state, bool reuse)
{
    const auto specs = fanoutSweep();
    const unsigned reps = static_cast<unsigned>(state.range(0));
    // One worker thread: the host may be single-CPU, and the point is
    // per-trial setup cost, not scheduling — identical results at any
    // width anyway.
    TrialRunner runner(/*threads=*/1);
    runner.reuseCores(reuse);
    std::uint64_t trials = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            runner.run(specs, reps, /*master_seed=*/7, lightTrial));
        trials += specs.size() * reps;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(trials));
    state.counters["trials_per_sec"] = benchmark::Counter(
        static_cast<double>(trials), benchmark::Counter::kIsRate);
}

} // namespace

/** Baseline: the pre-pool behavior, one fresh Core per trial. The rep
 *  count (32 per spec) is campaign-scale so the pooled run below
 *  amortizes its one-time Machine constructions the way a real sweep
 *  does. */
static void
BM_TrialRunnerFreshCores(benchmark::State &state)
{
    runFanout(state, /*reuse=*/false);
}
BENCHMARK(BM_TrialRunnerFreshCores)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/** The pooled runner: per-worker Cores re-seeded via Core::reset. */
static void
BM_TrialRunnerPooled(benchmark::State &state)
{
    runFanout(state, /*reuse=*/true);
}
BENCHMARK(BM_TrialRunnerPooled)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * Raw arena throughput: the bump-allocate + reset cycle every pooled
 * trial leans on. Mixed sizes/alignments model the ROB/cache/MSHR
 * carve-up at Core construction.
 */
static void
BM_ArenaAlloc(benchmark::State &state)
{
    Arena arena;
    std::uint64_t allocs = 0;
    for (auto _ : state) {
        arena.reset();
        for (unsigned i = 0; i < 64; ++i) {
            benchmark::DoNotOptimize(arena.allocate(24 + 8 * (i % 7), 8));
            benchmark::DoNotOptimize(arena.allocate(256, 64));
        }
        allocs += 128;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(allocs));
    state.counters["allocs_per_sec"] = benchmark::Counter(
        static_cast<double>(allocs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ArenaAlloc);
