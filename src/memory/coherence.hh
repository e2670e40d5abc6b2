/**
 * @file
 * MESI coherence for the Machine layer, in two parts:
 *
 *   namespace coh   Line-state transition helpers. Every assignment to
 *                   CacheLine::coh / CacheLine::pendingDowngrade in the
 *                   simulator lives either here or in coherence.cc —
 *                   scripts/lint_sim.py (rule `coherence-mutation`)
 *                   rejects mutations anywhere else, so the transition
 *                   table below is the whole story.
 *
 *   CoherenceEngine Snoop-based coherence across the private L1s of a
 *                   Machine's cores over one shared L2/MainMemory. The
 *                   paper's §II-B defense semantics — serving a remote
 *                   request that hits a speculatively installed line as
 *                   a *dummy miss*, and *delaying* the M/E->S downgrade
 *                   until the installing load commits — live on this
 *                   path.
 *
 * Determinism: the engine holds no clock and draws no randomness; every
 * transaction is applied synchronously inside the requesting core's
 * access, and the Machine steps cores in index order, so transaction
 * order is a pure function of (config, seeds, programs).
 */

#ifndef UNXPEC_MEMORY_COHERENCE_HH
#define UNXPEC_MEMORY_COHERENCE_HH

#include <vector>

#include "memory/cache_line.hh"
#include "sim/annotate.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace unxpec {

class Cache;
class MainMemory;
class MemoryHierarchy;
class Tracer;
struct MemAccessRecord;

namespace coh {

/** Clean demand fill: sole copy, not yet written. */
UNXPEC_TRANSITION("spec@UnsafeBaseline,Cleanup_FOR_L1,Cleanup_FOR_L1L2,"
                  "Cleanup_FULL,SpecBox")
inline void
onFill(CacheLine &slot)
{
    slot.coh = CohState::Exclusive;
    slot.pendingDowngrade = false;
}

/** Victim restoration / inflight undo: the line returns with the
 *  dirtiness it left with. */
UNXPEC_ROLLBACK("Cleanup_FOR_L1,Cleanup_FOR_L1L2,Cleanup_FULL,SpecBox")
inline void
onRestore(CacheLine &slot, bool dirty)
{
    slot.coh = dirty ? CohState::Modified : CohState::Exclusive;
    slot.pendingDowngrade = false;
}

/** Local write (hit or write-allocate): M, the single-writer state.
 *  Stores execute at commit in this model. */
UNXPEC_TRANSITION("commit")
inline void
onLocalWrite(CacheLine &slot)
{
    slot.coh = CohState::Modified;
}

/** A fill served by a remote core's cache: both copies become S. */
UNXPEC_TRANSITION("spec@UnsafeBaseline,Cleanup_FOR_L1,Cleanup_FOR_L1L2,"
                  "Cleanup_FULL,SpecBox")
inline void
onSharedFill(CacheLine &slot)
{
    slot.coh = CohState::Shared;
    slot.pendingDowngrade = false;
}

/** Remote read hit on a committed copy: M/E degrade to S (a dirty M
 *  copy is considered written back to the shared level). */
UNXPEC_TRANSITION("spec@UnsafeBaseline,Cleanup_FOR_L1,Cleanup_FOR_L1L2,"
                  "Cleanup_FULL,SpecBox")
inline void
onRemoteRead(CacheLine &slot)
{
    if (slot.coh == CohState::Modified || slot.coh == CohState::Exclusive)
        slot.coh = CohState::Shared;
}

/** Remote probe hit a *speculative* copy under a defense: record the
 *  downgrade but apply it only when the installer commits (§II-B).
 *  Only M/E have anywhere to downgrade to — an already-Shared
 *  speculative copy defers nothing. */
UNXPEC_TRANSITION("spec@UnsafeBaseline,Cleanup_FOR_L1,Cleanup_FOR_L1L2,"
                  "Cleanup_FULL,SpecBox")
inline void
onDelayedDowngrade(CacheLine &slot)
{
    if (slot.coh == CohState::Modified || slot.coh == CohState::Exclusive)
        slot.pendingDowngrade = true;
}

/** Installing load committed: apply any downgrade the defense delayed
 *  while the line was speculative. */
UNXPEC_TRANSITION("commit")
inline void
onCommit(CacheLine &slot)
{
    if (slot.pendingDowngrade) {
        slot.coh = CohState::Shared;
        slot.pendingDowngrade = false;
    }
}

/** Undo of a squashed speculative access's remote downgrade: the owner
 *  gets its pre-snoop state back (CleanupSpec coherence rollback). */
UNXPEC_ROLLBACK("Cleanup_FOR_L1,Cleanup_FOR_L1L2,Cleanup_FULL,SpecBox")
inline void
onDowngradeUndo(CacheLine &slot, CohState previous)
{
    if (slot.coh == CohState::Shared)
        slot.coh = previous;
}

} // namespace coh

/** What a cross-core read request observes (CoherenceEngine::
 *  remoteRead). */
struct CrossCoreProbe
{
    bool hit = false;        //!< served from the probed core's caches
    Cycle ready = 0;         //!< when the requester gets data
    CohState observed = CohState::Invalid;
    bool dummyMiss = false;  //!< protection served a fake miss
};

/**
 * Snoop/directory engine over the private L1s of a multi-core Machine.
 * One instance per Machine; attached to every core's MemoryHierarchy,
 * which consults it on each L1 miss, clflush, shared-L2 eviction, and
 * victim restoration.
 */
class CoherenceEngine
{
  public:
    /** Outcome of snooping the other cores for a local L1 miss. */
    struct SnoopResult
    {
        /** A remote L1 supplied the data (cache-to-cache transfer). */
        bool served = false;
        /** A defense hid a remote speculative copy: the requester must
         *  observe full miss latency and install nothing. */
        bool dummyMiss = false;
        /** A remote committed M/E copy was downgraded to S. */
        bool downgraded = false;
        unsigned owner = 0;          //!< core whose copy was found
        CohState prevState = CohState::Invalid; //!< owner state pre-snoop
    };

    explicit CoherenceEngine(const SystemConfig &cfg);

    /** Register core `core_id`'s hierarchy (Machine construction).
     *  Core 0's hierarchy owns the shared L2/MainMemory. */
    void attach(unsigned core_id, MemoryHierarchy *hier);

    unsigned numCores() const
    {
        return static_cast<unsigned>(cores_.size());
    }

    /**
     * Snoop every other core's L1D (and the shared L2's speculative
     * markings) for core `requester`'s L1 miss on `line` at `now`.
     * Applies the resulting transitions (downgrade, invalidation on a
     * write, delayed downgrade under a defense) and records undo
     * information into `record` when the requester is speculative.
     */
    UNXPEC_TRANSITION("spec@UnsafeBaseline,Cleanup_FOR_L1,Cleanup_FOR_L1L2,"
                      "Cleanup_FULL,SpecBox")
    SnoopResult snoop(unsigned requester, Addr line, Cycle now, bool write,
                      bool speculative, MemAccessRecord &record);

    /**
     * Defense-aware read probe issued *by* core `requester` against the
     * rest of the machine (paper §II-B): with protections on, a hit on
     * a speculatively installed line is served as a *dummy miss* and
     * the M/E->S downgrade is *delayed* until the installer commits;
     * on the unsafe baseline the hit (and the downgrade) happen
     * immediately. A line no core holds is an honest miss.
     */
    CrossCoreProbe remoteRead(unsigned requester, Addr addr, Cycle now);

    /**
     * A local write hit upgraded S -> M on core `writer`: invalidate
     * every other core's copy of the line.
     */
    UNXPEC_TRANSITION("commit")
    void invalidateRemote(unsigned writer, Addr line);

    /**
     * The shared L2 evicted `victim`: back-invalidate every L1 copy so
     * L1 (subset) L2 inclusion holds machine-wide.
     */
    UNXPEC_TRANSITION("spec@UnsafeBaseline,Cleanup_FOR_L1,Cleanup_FOR_L1L2,"
                      "Cleanup_FULL,SpecBox")
    void backInvalidate(Addr victim);

    /**
     * Defense check for an L1-missing request that hit a *speculative*
     * line in the shared L2 (the installing core's L1 copy may already
     * be gone): under a defense the line must stay invisible, so the
     * request is served as a dummy miss and the downgrade is delayed.
     * @return true when the caller must fake a full miss (no install,
     * memory latency).
     */
    UNXPEC_TRANSITION("spec@UnsafeBaseline,Cleanup_FOR_L1,Cleanup_FOR_L1L2,"
                      "Cleanup_FULL,SpecBox")
    bool hideSharedSpeculative(CacheLine &slot, Addr line, Cycle now);

    /**
     * Re-establish L1 (subset) L2 inclusion for a line the cleanup
     * engine just put back into an L1 (victim restoration / inflight
     * undo): if the shared L2 no longer holds it, install it there,
     * back-invalidating whatever that displaces.
     */
    UNXPEC_ROLLBACK("Cleanup_FOR_L1,Cleanup_FOR_L1L2,Cleanup_FULL,SpecBox")
    void ensureInclusion(Addr line, Cycle now);

    /** clflush semantics across the machine: drop every core's copy.
     *  @return true when any dirty copy had to be written back.
     *  clflush only executes non-speculatively (tickIssue orders it). */
    UNXPEC_TRANSITION("commit")
    bool flushAll(Addr line);

    /**
     * CleanupSpec coherence rollback: a squashed speculative access had
     * snooped a remote committed M/E copy down to S — give the owner
     * its pre-snoop state back (record.snoopOwner/snoopPrevState).
     */
    UNXPEC_ROLLBACK("Cleanup_FOR_L1,Cleanup_FOR_L1L2,Cleanup_FULL,SpecBox")
    void undoSnoopDowngrade(const MemAccessRecord &record);

    /**
     * Coherence invariants (sim/audit.hh): at most one M/E owner per
     * line across the private L1Ds, every valid L1 line present in the
     * shared L2 (inclusion), and commitSpeculative/rollback left no
     * stale pendingDowngrade. Throws AuditError.
     */
    void auditInvariants(Cycle now) const;

    StatGroup &stats() { return stats_; }

    /** Zero the engine's statistics (Machine::reset). */
    void resetStats() { stats_.resetAll(); }

    /** Event tracer for snoop/downgrade/dummy-miss instants. */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

  private:
    /** The single shared L2 (core 0's). */
    Cache &sharedL2() const;

    SystemConfig cfg_;
    bool protections_;
    std::vector<MemoryHierarchy *> cores_;
    Tracer *tracer_ = nullptr;

    StatGroup stats_;
    Counter &snoops_;
    Counter &remoteHits_;
    Counter &downgrades_;
    Counter &delayedDowngrades_;
    Counter &dummyMisses_;
    Counter &remoteInvalidations_;
    Counter &backInvalidations_;
    Counter &downgradeUndos_;
};

} // namespace unxpec

#endif // UNXPEC_MEMORY_COHERENCE_HH
