#include "kernels.hh"

#include <algorithm>
#include <memory>

#include "analysis/roc.hh"
#include "attack/unxpec.hh"
#include "cleanup/spec_tracker.hh"
#include "harness/spec.hh"
#include "machine/machine.hh"
#include "sim/rng.hh"
#include "spans.hh"
#include "workload/synth_spec.hh"

namespace unxpec::bench {

namespace {

constexpr unsigned kLoops = 5;

/** Make `value` observable so the call producing it is not elided. */
template <class T>
inline void
keep(const T &value)
{
    asm volatile("" : : "m"(value) : "memory");
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
}

/**
 * Median over kLoops timed loops (after one untimed warm-up loop) of
 * the host time of one `body(i)` call, in nanoseconds. `i` counts
 * calls across all loops so bodies can stream fresh inputs.
 */
template <class Body>
double
nsPerCall(unsigned calls, Body &&body)
{
    std::vector<double> loops;
    std::uint64_t i = 0;
    for (unsigned loop = 0; loop <= kLoops; ++loop) {
        const std::int64_t start = nowNs();
        for (unsigned k = 0; k < calls; ++k)
            body(i++);
        const std::int64_t end = nowNs();
        if (loop > 0)
            loops.push_back(static_cast<double>(end - start) / calls);
    }
    return median(std::move(loops));
}

/** Like nsPerCall, for bodies that time only part of their work:
 *  `body(i)` returns the nanoseconds it measured. */
template <class Body>
double
measuredNsPerCall(unsigned calls, Body &&body)
{
    std::vector<double> loops;
    std::uint64_t i = 0;
    for (unsigned loop = 0; loop <= kLoops; ++loop) {
        double total = 0.0;
        for (unsigned k = 0; k < calls; ++k)
            total += body(i++);
        if (loop > 0)
            loops.push_back(total / calls);
    }
    return median(std::move(loops));
}

SystemConfig
configWithCores(std::uint64_t seed, unsigned cores)
{
    SystemConfig cfg = makeDefense("cleanup_l1l2");
    cfg.seed = seed;
    cfg.numCores = cores;
    return cfg;
}

/** Host ns of one Machine construction (destruction untimed). */
double
machineBuildNs(const SystemConfig &cfg)
{
    return measuredNsPerCall(4, [&](std::uint64_t) {
        const std::int64_t start = nowNs();
        auto machine = std::make_unique<Machine>(cfg);
        const std::int64_t end = nowNs();
        keep(machine);
        return static_cast<double>(end - start);
    });
}

/** Host ns of Machine::reset on a machine that has run one attack. */
double
machineResetNs(const SystemConfig &cfg)
{
    Machine machine(cfg);
    UnxpecAttack attack(machine.core());
    attack.setSecret(1);
    keep(attack.measureOnce());
    return nsPerCall(200, [&](std::uint64_t i) {
        machine.reset(cfg.seed + i);
    });
}

/** Host ns of a demand miss to DRAM through core 0's hierarchy. */
double
accessMissNs(const SystemConfig &cfg)
{
    Machine machine(cfg);
    MemoryHierarchy &hier = machine.core().hierarchy();
    const Addr base = 0x10000000 + (cfg.seed % 1024) * kLineBytes;
    return nsPerCall(20000, [&](std::uint64_t i) {
        // Every line is new, and the clock moves far enough for the
        // previous fill to land and free its MSHR.
        const MemAccessRecord rec = hier.access(
            base + i * kLineBytes, 1000 * (i + 1), false, false, i);
        keep(rec);
    });
}

} // namespace

std::vector<std::pair<std::string, double>>
runKernels(std::uint64_t seed)
{
    std::vector<std::pair<std::string, double>> out;
    const SystemConfig one = configWithCores(seed, 1);
    const SystemConfig four = configWithCores(seed, 4);
    const CacheConfig &l1d = one.l1d;
    const Addr set_stride =
        static_cast<Addr>(l1d.numSets()) * kLineBytes;
    const Addr set_base = (seed % l1d.numSets()) * kLineBytes;

    {
        Rng rng(seed);
        Cache cache(l1d, rng, seed);
        for (unsigned way = 0; way < l1d.ways; ++way)
            cache.install(set_base + way * set_stride, 0, false, kSeqNone);
        const Addr resident = set_base + (l1d.ways - 1) * set_stride;
        const Addr absent = set_base + (l1d.ways + 7) * set_stride;
        out.emplace_back("memory.probe_hit_ns",
                         nsPerCall(1u << 20, [&](std::uint64_t) {
                             keep(cache.probe(resident));
                         }));
        out.emplace_back("memory.probe_miss_ns",
                         nsPerCall(1u << 20, [&](std::uint64_t) {
                             keep(cache.probe(absent));
                         }));
    }
    {
        Rng rng(seed);
        Cache cache(l1d, rng, seed);
        out.emplace_back("memory.install_ns",
                         nsPerCall(1u << 18, [&](std::uint64_t i) {
                             keep(cache.install(set_base + i * kLineBytes,
                                                0, false, kSeqNone));
                         }));
    }
    {
        Machine machine(one);
        MemoryHierarchy &hier = machine.core().hierarchy();
        const Addr line = 0x20000000 + set_base;
        hier.access(line, 0, false, false, 0);
        out.emplace_back("memory.access_hit_ns",
                         nsPerCall(1u << 18, [&](std::uint64_t i) {
                             const MemAccessRecord rec = hier.access(
                                 line, 1000 + i, false, false, i);
                             keep(rec);
                         }));
    }
    const double miss_1core = accessMissNs(one);
    out.emplace_back("memory.access_miss_ns", miss_1core);
    out.emplace_back("coherence.access_miss_ns_4core",
                     accessMissNs(four) - miss_1core);

    {
        // One speculative fill per rollback, landed before the squash:
        // an L1 and an L2 invalidation under cleanup_l1l2. The fills
        // and jobs are built untimed in batches; only rollback() runs
        // inside the clock.
        Machine machine(one);
        Core &core = machine.core();
        MemoryHierarchy &hier = core.hierarchy();
        CleanupEngine &engine = core.cleanup();
        constexpr unsigned kBatch = 32;
        std::vector<CleanupJob> jobs(kBatch);
        Addr next = 0x30000000 + set_base;
        Cycle now = 0;
        SeqNum seq = 0;
        out.emplace_back(
            "cleanup.rollback_ns",
            measuredNsPerCall(400, [&](std::uint64_t) {
                for (CleanupJob &job : jobs) {
                    now += 1000;
                    const MemAccessRecord rec =
                        hier.access(next, now, false, true, ++seq);
                    next += kLineBytes;
                    job = SpecTracker::buildJob(now + 500, {rec});
                }
                const std::int64_t start = nowNs();
                for (const CleanupJob &job : jobs)
                    keep(engine.rollback(hier, job, 0));
                const std::int64_t end = nowNs();
                return static_cast<double>(end - start) / kBatch;
            }));
    }

    out.emplace_back("machine.reset_us_1core", machineResetNs(one) / 1e3);
    out.emplace_back("machine.reset_us_4core", machineResetNs(four) / 1e3);
    out.emplace_back("machine.build_ms", machineBuildNs(one) / 1e6);

    const WorkloadProfile mcf = SynthSpec::profile("mcf_r");
    out.emplace_back("workload.generate_us",
                     nsPerCall(20, [&](std::uint64_t i) {
                         keep(SynthSpec::generate(mcf, seed + i));
                     }) / 1e3);
    out.emplace_back("workload.core_build_us",
                     measuredNsPerCall(4, [&](std::uint64_t i) {
                         SystemConfig cfg = one;
                         cfg.seed = seed + i;
                         const std::int64_t start = nowNs();
                         auto core = std::make_unique<Core>(cfg);
                         const std::int64_t end = nowNs();
                         keep(core);
                         return static_cast<double>(end - start);
                     }) / 1e3);
    {
        // The zoo/victims synthetic run: 40k instructions of mcf_r with
        // the 8000-instruction warm-up, on a fresh core.
        const Program program = SynthSpec::generate(mcf, 42);
        RunOptions options;
        options.maxInstructions = 40000;
        options.warmupInstructions = 8000;
        out.emplace_back(
            "workload.host_ns_per_inst",
            measuredNsPerCall(1, [&](std::uint64_t i) {
                SystemConfig cfg = one;
                cfg.seed = seed + i;
                Core core(cfg);
                const std::int64_t start = nowNs();
                const RunResult run = core.run(program, options);
                const std::int64_t end = nowNs();
                return static_cast<double>(end - start) /
                       static_cast<double>(std::max<std::uint64_t>(
                           run.instructions, 1));
            }));
    }
    {
        Rng rng(seed);
        std::vector<double> zeros(24);
        std::vector<double> ones(24);
        for (double &v : zeros)
            v = 100.0 + static_cast<double>(rng.next() % 16);
        for (double &v : ones)
            v = 108.0 + static_cast<double>(rng.next() % 16);
        out.emplace_back("analysis.roc_us",
                         nsPerCall(2000, [&](std::uint64_t) {
                             keep(RocCurve::of(zeros, ones).auc());
                         }) / 1e3);
    }
    return out;
}

} // namespace unxpec::bench
