/**
 * @file
 * Cycle-accurate event tracing. Every interesting micro-event — the
 * instruction lifecycle (fetch/dispatch/issue/writeback/commit/squash),
 * cache activity (hit/miss/fill/evict/invalidate/restore/MSHR merge
 * per level), the CleanupSpec rollback timeline (begin/invalidate/
 * restore/scrub/end with cycle spans), branch resolution, and LSQ
 * gating — is a fixed-size typed record appended to a bounded ring
 * buffer. Two consumers:
 *
 *   - TraceQuery: in-memory queries from tests (`eventsBetween(a, b)`,
 *     per-kind counts), the tool that turns "why did delta_cycles
 *     move?" from printf archaeology into an assertion;
 *   - writeChromeTrace(): the Chrome `trace_event` JSON format, loadable
 *     in chrome://tracing or Perfetto, one track per pipeline stage and
 *     cache level, one process per trial.
 *
 * Cost model: tracing is a pointer that is null by default. Every
 * instrumentation site guards with
 *
 *     if (tracer != nullptr && tracer->enabled(cat))
 *
 * so a run pays one load + branch per site while no tracer is
 * installed. The category mask a tracer is built with narrows
 * recording further once it is attached.
 */

#ifndef UNXPEC_SIM_TRACE_HH
#define UNXPEC_SIM_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace unxpec {

/** Runtime category bits (combine with |). */
enum TraceCategory : std::uint32_t
{
    kTraceCatCpu = 1u << 0,     //!< instruction lifecycle + LSQ gating
    kTraceCatCache = 1u << 1,   //!< hits/misses/fills/evictions per level
    kTraceCatCleanup = 1u << 2, //!< CleanupSpec rollback timeline
    kTraceCatBranch = 1u << 3,  //!< branch resolution
    kTraceCatCoherence = 1u << 4, //!< cross-core snoops and downgrades
    kTraceCatAll = (1u << 5) - 1,
};

/**
 * Category mask for a `--trace-categories` style list
 * ("cpu,cache,cleanup", also "branch" and "all"); fatal() on an
 * unknown name, 0 for the empty string.
 */
std::uint32_t parseTraceCategories(const std::string &list);

/** Human-readable names of the categories set in `mask`. */
std::string traceCategoriesToString(std::uint32_t mask);

/** Typed event kinds. */
enum class TraceKind : std::uint8_t
{
    // Instruction lifecycle (kTraceCatCpu).
    Fetch,            //!< arg = pc
    Dispatch,         //!< seq, arg = pc
    Issue,            //!< seq, arg = pc
    Writeback,        //!< seq, arg = pc
    Commit,           //!< seq, arg = pc
    Squash,           //!< seq, arg = pc (one per squashed entry)
    LoadBlocked,      //!< seq, addr: an older store/fence gates the
                      //!< load; once per park, or per cycle while a
                      //!< partial overlap waits for the store to commit
    LoadForward,      //!< seq, addr (value forwarded from older store)

    // Branch resolution (kTraceCatBranch).
    BranchResolve,    //!< seq, arg = pc, flags taken/mispredict bits

    // Cache activity (kTraceCatCache); level: 0 = L1I, 1 = L1D, 2 = L2.
    CacheHit,         //!< addr, dur = latency, level of service
    CacheMiss,        //!< addr, dur = fill latency (missed to DRAM)
    CacheFill,        //!< addr, dur = request-to-landing span
    CacheEvict,       //!< addr = victim line
    CacheInvalidate,  //!< addr
    CacheRestore,     //!< addr (victim reinstated into its way)
    MshrMerge,        //!< addr, dur = wait for the outstanding fill

    // CleanupSpec rollback (kTraceCatCleanup).
    RollbackBegin,     //!< cycle = squash, arg = footprint size
    RollbackInvalidate,//!< addr, flags bit0 = L1, bit1 = L2
    RollbackRestore,   //!< addr = restored victim line
    InflightScrub,     //!< addr (T3 MSHR purge of an inflight fill)
    RollbackEnd,       //!< cycle = stall end, dur = stall span

    // Coherence engine (kTraceCatCoherence); level = owning core id.
    SnoopServe,        //!< addr served cache-to-cache, arg = owner core
    SnoopDummyMiss,    //!< addr hid a speculative copy (§II-B)
    SnoopDowngrade,    //!< addr M/E->S (immediate), arg = owner core
    SnoopDelayedDowngrade, //!< addr downgrade deferred to commit
    SnoopInvalidate,   //!< addr dropped from a remote L1 (write upgrade)
    BackInvalidate,    //!< addr dropped from an L1 by shared-L2 eviction
    DowngradeUndo,     //!< addr owner state restored on squash
};

/** Category an event kind reports under. */
TraceCategory traceCategoryOf(TraceKind kind);

/** Stable name of an event kind ("commit", "rollback-begin", ...). */
const char *traceKindName(TraceKind kind);

/** Flag bits carried by some events. */
enum TraceFlags : std::uint16_t
{
    kTraceFlagTaken = 1u << 0,       //!< BranchResolve: resolved taken
    kTraceFlagMispredict = 1u << 1,  //!< BranchResolve: squashing
    kTraceFlagSpeculative = 1u << 2, //!< cache event under speculation
    kTraceFlagWrite = 1u << 3,       //!< cache event for a store
    kTraceFlagL1 = 1u << 4,          //!< rollback touched L1
    kTraceFlagL2 = 1u << 5,          //!< rollback touched L2
    kTraceFlagDirty = 1u << 6,       //!< evicted victim was dirty
    kTraceFlagInvisible = 1u << 7,   //!< InvisiSpec shadow access
};

/** One fixed-size trace record. */
struct TraceEvent
{
    Cycle cycle = 0;            //!< when the event happened
    Cycle dur = 0;              //!< span length, 0 for instants
    SeqNum seq = kSeqNone;      //!< owning instruction, if any
    Addr addr = kAddrInvalid;   //!< line address, if any
    std::uint64_t arg = 0;      //!< kind-specific payload (pc, count...)
    TraceKind kind = TraceKind::Fetch;
    std::uint8_t level = 0;     //!< cache level for cache events
    std::uint16_t flags = 0;    //!< TraceFlags bits
};

/**
 * Per-core event recorder over a bounded ring buffer. Not thread-safe:
 * each trial (and thus each TrialRunner worker) owns its own Tracer,
 * mirroring how each trial owns its own Core.
 */
class Tracer
{
  public:
    /** Default ring capacity (events); ~2.5 MB of records. */
    static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

    explicit Tracer(std::uint32_t mask = kTraceCatAll,
                    std::size_t capacity = kDefaultCapacity);

    /** Does the mask admit this category? The hot-path gate. */
    bool enabled(TraceCategory cat) const { return (mask_ & cat) != 0; }

    /**
     * Current cycle, maintained by the owning Core once per tick so
     * cycle-blind modules (ROB, LSQ, caches) can stamp their events.
     */
    void setNow(Cycle now) { now_ = now; }
    Cycle now() const { return now_; }

    /** Append an event; overwrites the oldest when the ring is full. */
    void record(const TraceEvent &event);

    /** Instant event at the tracer's current cycle. */
    void
    instant(TraceKind kind, SeqNum seq = kSeqNone,
            Addr addr = kAddrInvalid, std::uint64_t arg = 0,
            std::uint8_t level = 0, std::uint16_t flags = 0)
    {
        record({now_, 0, seq, addr, arg, kind, level, flags});
    }

    /** Instant event at an explicit cycle. */
    void
    instantAt(Cycle cycle, TraceKind kind, SeqNum seq = kSeqNone,
              Addr addr = kAddrInvalid, std::uint64_t arg = 0,
              std::uint8_t level = 0, std::uint16_t flags = 0)
    {
        record({cycle, 0, seq, addr, arg, kind, level, flags});
    }

    /** Span event [start, start + dur]. */
    void
    span(TraceKind kind, Cycle start, Cycle dur, SeqNum seq = kSeqNone,
         Addr addr = kAddrInvalid, std::uint64_t arg = 0,
         std::uint8_t level = 0, std::uint16_t flags = 0)
    {
        record({start, dur, seq, addr, arg, kind, level, flags});
    }

    /** Events currently retained, oldest first. */
    std::vector<TraceEvent> events() const;

    std::size_t size() const { return count_; }
    std::size_t capacity() const { return ring_.size(); }
    /** Events lost to ring wrap-around since the last clear(). */
    std::uint64_t dropped() const { return dropped_; }

    void clear();

  private:
    const std::uint32_t mask_;
    Cycle now_ = 0;
    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0;  //!< next write slot
    std::size_t count_ = 0; //!< valid records (<= capacity)
    std::uint64_t dropped_ = 0;
};

/**
 * Read-only queries over a tracer's retained events (a stable snapshot
 * taken at construction — the tracer may keep recording).
 */
class TraceQuery
{
  public:
    explicit TraceQuery(const Tracer &tracer) : events_(tracer.events()) {}
    explicit TraceQuery(std::vector<TraceEvent> events)
        : events_(std::move(events))
    {
    }

    /** Events with cycle in [from, to], oldest first. */
    std::vector<TraceEvent> eventsBetween(Cycle from, Cycle to) const;

    /** Events of one kind, optionally restricted to [from, to]. */
    std::vector<TraceEvent> ofKind(TraceKind kind, Cycle from = 0,
                                   Cycle to = kCycleNever) const;

    /** Number of events of one kind in [from, to]. */
    std::size_t count(TraceKind kind, Cycle from = 0,
                      Cycle to = kCycleNever) const;

    const std::vector<TraceEvent> &all() const { return events_; }

  private:
    std::vector<TraceEvent> events_;
};

/** One Chrome-trace process: a trial's events under a display name. */
struct TraceProcess
{
    std::string name;               //!< e.g. "loads=3 rep=1 seed=42"
    std::vector<TraceEvent> events;
    /**
     * Events lost to ring wrap before the retained window
     * (Tracer::dropped()). When nonzero the exporter emits a
     * process-scoped `"ph":"i"` "trace-truncated" marker at the start
     * of the retained window so a wrapped trace is never mistaken for
     * a complete one.
     */
    std::uint64_t dropped = 0;
};

/**
 * Emit Chrome `trace_event` JSON (the chrome://tracing / Perfetto
 * format): one process per TraceProcess, one named track per pipeline
 * stage and cache level, spans as complete ("X") events and instants
 * as thread-scoped "i" events. Cycle counts map 1:1 onto the viewer's
 * microsecond timeline.
 */
void writeChromeTrace(std::ostream &os,
                      const std::vector<TraceProcess> &processes);

/** writeChromeTrace to a file; false (with a warn) if it can't open. */
bool writeChromeTraceFile(const std::string &path,
                          const std::vector<TraceProcess> &processes);

} // namespace unxpec

#endif // UNXPEC_SIM_TRACE_HH
