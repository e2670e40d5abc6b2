#include "spans.hh"

#include <algorithm>
#include <iomanip>

#include "cpu/core.hh"
#include "machine/machine.hh"

namespace unxpec::bench {

namespace {

const Clock::time_point kEpoch = Clock::now();

std::uint64_t
counterValue(const StatGroup &group, const char *name)
{
    const Counter *counter = group.findCounter(name);
    return counter == nullptr ? 0 : counter->value();
}

/** Core-private stats: pipeline, L1D, cleanup engine. */
void
addCorePrivate(SimCounts &counts, Core &core)
{
    const StatGroup &cpu = core.stats();
    counts.simCycles += counterValue(cpu, "sim_ticks");
    counts.committedInsts += counterValue(cpu, "committedInsts");
    counts.mispredicts += counterValue(cpu, "mispredicts");
    counts.loads += counterValue(cpu, "loads");

    Cache &l1d = core.hierarchy().l1d();
    counts.l1dHits += l1d.hits().value();
    counts.l1dMisses += l1d.misses().value();
    counts.l1dEvictions += counterValue(l1d.stats(), "evictions");

    const StatGroup &cleanup = core.cleanup().stats();
    counts.squashes += counterValue(cleanup, "squashes");
    counts.stallCycles += counterValue(cleanup, "cycles");
    counts.invalidationsL1 += counterValue(cleanup, "invalidationsL1");
    counts.invalidationsL2 += counterValue(cleanup, "invalidationsL2");
    counts.restores += counterValue(cleanup, "restores");
    counts.inflightDrops += counterValue(cleanup, "inflightDrops");
    counts.shadowDiscards += counterValue(cleanup, "shadowDiscards");
    counts.mshrCancels += counterValue(cleanup, "mshrCancels");
}

void
addSharedL2(SimCounts &counts, Core &owner)
{
    Cache &l2 = owner.hierarchy().l2();
    counts.l2Hits += l2.hits().value();
    counts.l2Misses += l2.misses().value();
}

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kEpoch)
        .count();
}

SimCounts &
SimCounts::operator+=(const SimCounts &o)
{
    simCycles += o.simCycles;
    committedInsts += o.committedInsts;
    mispredicts += o.mispredicts;
    loads += o.loads;
    l1dHits += o.l1dHits;
    l1dMisses += o.l1dMisses;
    l1dEvictions += o.l1dEvictions;
    l2Hits += o.l2Hits;
    l2Misses += o.l2Misses;
    snoops += o.snoops;
    remoteHits += o.remoteHits;
    dummyMisses += o.dummyMisses;
    delayedDowngrades += o.delayedDowngrades;
    squashes += o.squashes;
    stallCycles += o.stallCycles;
    invalidationsL1 += o.invalidationsL1;
    invalidationsL2 += o.invalidationsL2;
    restores += o.restores;
    inflightDrops += o.inflightDrops;
    shadowDiscards += o.shadowDiscards;
    mshrCancels += o.mshrCancels;
    return *this;
}

TrialTrace *&
currentTrial()
{
    thread_local TrialTrace *trace = nullptr;
    return trace;
}

Span::Span(const char *name) : trace_(currentTrial())
{
    if (trace_ == nullptr)
        return;
    index_ = static_cast<int>(trace_->spans.size());
    trace_->spans.push_back({name, nowNs(), 0, trace_->open});
    trace_->open = index_;
}

void
Span::finish()
{
    if (trace_ == nullptr)
        return;
    SpanRecord &span = trace_->spans[static_cast<std::size_t>(index_)];
    span.endNs = nowNs();
    trace_->open = span.parent;
    trace_ = nullptr;
}

void
recordMachine(Machine &machine)
{
    TrialTrace *trace = currentTrial();
    if (trace == nullptr)
        return;
    for (unsigned i = 0; i < machine.numCores(); ++i)
        addCorePrivate(trace->counts, machine.core(i));
    // Cores 1..N-1 point at core 0's L2: count it once.
    addSharedL2(trace->counts, machine.core(0));
    if (CoherenceEngine *engine = machine.coherence()) {
        const StatGroup &coh = engine->stats();
        trace->counts.snoops += counterValue(coh, "snoops");
        trace->counts.remoteHits += counterValue(coh, "remote_hits");
        trace->counts.dummyMisses += counterValue(coh, "dummy_misses");
        trace->counts.delayedDowngrades +=
            counterValue(coh, "delayed_downgrades");
    }
}

void
recordCore(Core &core)
{
    TrialTrace *trace = currentTrial();
    if (trace == nullptr)
        return;
    addCorePrivate(trace->counts, core);
    addSharedL2(trace->counts, core);
}

void
recordAttackCycles(double cycles_per_run)
{
    if (TrialTrace *trace = currentTrial())
        trace->attackCyclesPerRun = cycles_per_run;
}

std::map<std::string, SpanTotals>
totalsByName(const std::vector<const TrialTrace *> &traces)
{
    std::map<std::string, SpanTotals> totals;
    std::vector<double> self;
    for (const TrialTrace *trace : traces) {
        const std::vector<SpanRecord> &spans = trace->spans;
        self.assign(spans.size(), 0.0);
        for (std::size_t i = 0; i < spans.size(); ++i)
            self[i] = static_cast<double>(spans[i].endNs - spans[i].startNs);
        for (const SpanRecord &span : spans) {
            if (span.parent >= 0) {
                self[static_cast<std::size_t>(span.parent)] -=
                    static_cast<double>(span.endNs - span.startNs);
            }
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            SpanTotals &t = totals[spans[i].name];
            ++t.count;
            t.totalNs += static_cast<double>(spans[i].endNs -
                                             spans[i].startNs);
            t.selfNs += self[i];
        }
    }
    return totals;
}

namespace {

void
writeEvents(std::ostream &os, const TrialTrace &trace, long trial, int tid,
            bool &first)
{
    for (const SpanRecord &span : trace.spans) {
        os << (first ? "\n" : ",\n") << "{\"name\":\"" << span.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
           << ",\"ts\":" << static_cast<double>(span.startNs) / 1e3
           << ",\"dur\":"
           << static_cast<double>(span.endNs - span.startNs) / 1e3
           << ",\"args\":{\"trial\":" << trial << "}}";
        first = false;
    }
}

} // namespace

void
writeChromeTrace(std::ostream &os, const std::vector<TrialTrace> &trials,
                 const TrialTrace &process)
{
    // Worker threads get tids 1..N in order of first appearance; the
    // main thread (spans outside trials) is tid 0.
    std::vector<std::thread::id> workers;
    os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
    bool first = true;
    writeEvents(os, process, -1, 0, first);
    for (std::size_t job = 0; job < trials.size(); ++job) {
        const TrialTrace &trace = trials[job];
        auto it = std::find(workers.begin(), workers.end(), trace.thread);
        if (it == workers.end())
            it = workers.insert(workers.end(), trace.thread);
        writeEvents(os, trace, static_cast<long>(job),
                    static_cast<int>(it - workers.begin()) + 1, first);
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void
writeSelfTimeTable(std::ostream &os,
                   const std::map<std::string, SpanTotals> &totals)
{
    std::vector<std::pair<std::string, SpanTotals>> rows(totals.begin(),
                                                         totals.end());
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto &a, const auto &b) {
                         return a.second.selfNs > b.second.selfNs;
                     });
    double all_self = 0.0;
    for (const auto &[name, t] : rows)
        all_self += t.selfNs;
    os << "| span | count | total ms | self ms | self share |\n"
       << "|---|---:|---:|---:|---:|\n"
       << std::fixed;
    for (const auto &[name, t] : rows) {
        os << "| " << name << " | " << t.count << " | "
           << std::setprecision(3) << t.totalNs / 1e6 << " | "
           << t.selfNs / 1e6 << " | " << std::setprecision(4)
           << (all_self > 0.0 ? t.selfNs / all_self : 0.0) << " |\n";
    }
}

} // namespace unxpec::bench
