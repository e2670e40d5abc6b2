/**
 * @file
 * In-memory span and counter recording for the benchmark's traced pass.
 *
 * Every trial owns one TrialTrace (indexed by job, so worker threads
 * never share one). The trial wrapper points the worker's thread-local
 * currentTrial() at it for the duration of the trial; Span objects and
 * the count readers append to whatever it points at and do nothing
 * when it is null. That null check is the whole cost of the
 * instrumentation in the untraced pass.
 *
 * Spans are recorded only around public calls made from the
 * benchmark's own files; nothing inside the simulator is instrumented.
 */

#ifndef UNXPEC_BENCHMARK_SPANS_HH
#define UNXPEC_BENCHMARK_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

namespace unxpec {

class Core;
class Machine;

namespace bench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds since the process-wide benchmark epoch. */
std::int64_t nowNs();

/** One closed (or still open) span of a trial. */
struct SpanRecord
{
    const char *name = "";   //!< string literal, never freed
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;         //!< index into the same trace, -1 = root
};

/**
 * Simulated-state counts summed over every core a trial ran, read from
 * the public StatGroups before the owning Session (or bare Core) dies.
 */
struct SimCounts
{
    std::uint64_t simCycles = 0;
    std::uint64_t committedInsts = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t loads = 0;
    std::uint64_t l1dHits = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l1dEvictions = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t snoops = 0;
    std::uint64_t remoteHits = 0;
    std::uint64_t dummyMisses = 0;
    std::uint64_t delayedDowngrades = 0;
    std::uint64_t squashes = 0;
    std::uint64_t stallCycles = 0;
    std::uint64_t invalidationsL1 = 0;
    std::uint64_t invalidationsL2 = 0;
    std::uint64_t restores = 0;
    std::uint64_t inflightDrops = 0;
    std::uint64_t shadowDiscards = 0;
    std::uint64_t mshrCancels = 0;

    SimCounts &operator+=(const SimCounts &other);
};

/** Everything the traced pass records about one trial. */
struct TrialTrace
{
    std::vector<SpanRecord> spans;
    int open = -1; //!< innermost open span
    std::thread::id thread;
    SimCounts counts;
    /** The attack's own cycles-per-sample figure (0 = not recorded). */
    double attackCyclesPerRun = 0.0;
};

/** The calling thread's trace target; null when tracing is off. */
TrialTrace *&currentTrial();

/**
 * RAII span on the calling thread's current trace: opens at
 * construction and closes at finish() or destruction, whichever comes
 * first. A no-op when currentTrial() is null.
 */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span() { finish(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void finish();

  private:
    TrialTrace *trace_ = nullptr;
    int index_ = -1;
};

/** Add every core's stats (plus the coherence engine's) to the
 *  current trace. A no-op when tracing is off. */
void recordMachine(Machine &machine);
/** Add one bare core's stats (a synthetic-workload run). */
void recordCore(Core &core);
/** Record the attack's simulated cycles per run. */
void recordAttackCycles(double cycles_per_run);

/** Per-name aggregate of a set of traces. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double totalNs = 0.0;
    double selfNs = 0.0; //!< duration minus the time children cover
};

/**
 * Sum durations and self times by span name. Children of one span run
 * sequentially on its thread, so the time they cover is the sum of
 * their durations.
 */
std::map<std::string, SpanTotals>
totalsByName(const std::vector<const TrialTrace *> &traces);

/**
 * Chrome trace_event JSON ("X" events, microseconds): one tid per
 * worker thread, the job index in args.trial (-1 for spans outside any
 * trial).
 */
void writeChromeTrace(std::ostream &os,
                      const std::vector<TrialTrace> &trials,
                      const TrialTrace &process);

/** Markdown self-time table, heaviest self time first. */
void writeSelfTimeTable(std::ostream &os,
                        const std::map<std::string, SpanTotals> &totals);

} // namespace bench
} // namespace unxpec

#endif // UNXPEC_BENCHMARK_SPANS_HH
