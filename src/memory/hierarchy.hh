/**
 * @file
 * The full memory hierarchy of Table I: private L1I, private L1D,
 * shared L2, DRAM. Produces, for every data access, a MemAccessRecord
 * describing exactly which levels hit, what was installed where, and
 * which victims were displaced — the raw material CleanupSpec's
 * rollback engine (and thus the unXpec timing channel) operates on.
 */

#ifndef UNXPEC_MEMORY_HIERARCHY_HH
#define UNXPEC_MEMORY_HIERARCHY_HH

#include <cstdint>
#include <optional>

#include "cleanup/safespec.hh"
#include "memory/cache.hh"
#include "memory/coherence.hh"
#include "memory/main_memory.hh"
#include "sim/annotate.hh"
#include "sim/config.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace unxpec {

class Tracer;

/** Full account of one data-side access through the hierarchy. */
struct MemAccessRecord
{
    Addr lineAddr = kAddrInvalid;
    bool write = false;
    bool speculative = false;
    SeqNum seq = kSeqNone;

    bool l1Hit = false;
    bool l2Hit = false;
    bool merged = false;        //!< satisfied by an outstanding MSHR fill
    /** Served invisibly (InvisiSpec): nothing was installed; the data
     *  went to the shadow buffer and must be exposed at commit. */
    bool invisible = false;
    /** Served via the SafeSpec shadow L1: nothing in the caches yet.
     *  Commit promotes the line (commitShadow, free — the data is
     *  already on chip); squash has the rollback engine discard it. */
    bool shadow = false;
    /** CacheSquash: the fill is parked in a cancellable MSHR entry and
     *  installs no tags. Commit installs it (commitPendingFill);
     *  squash has the rollback engine cancel it in the MSHR. */
    bool mshrOnly = false;

    Cycle issued = 0;
    Cycle ready = 0;            //!< data available to the requester

    bool l1Installed = false;
    unsigned l1Set = 0;
    unsigned l1Way = 0;
    Addr l1Victim = kAddrInvalid;
    bool l1VictimValid = false;
    bool l1VictimDirty = false;

    bool l2Installed = false;
    unsigned l2Set = 0;
    unsigned l2Way = 0;
    Addr l2Victim = kAddrInvalid;
    bool l2VictimValid = false;

    // --- coherence outcome (multi-core Machine configs only) ---------
    /** Served by a cache-to-cache transfer from a remote core's L1. */
    bool servedBySnoop = false;
    /** A defense hid a remote speculative copy: this access saw full
     *  miss latency and installed nothing (§II-B dummy miss). */
    bool dummyMiss = false;
    /** This access downgraded a remote committed M/E copy to S; the
     *  rollback engine undoes it if the access squashes. */
    bool snoopDowngrade = false;
    /** Core whose copy was downgraded. uint8_t, not unsigned: this
     *  record rides in every RobEntry, and a byte here packs into the
     *  struct's tail padding instead of growing it (--cores caps at
     *  16 anyway). */
    std::uint8_t snoopOwner = 0;
    CohState snoopPrevState = CohState::Invalid; //!< pre-snoop state

    /** Latency seen by the requesting instruction. */
    Cycle latency() const { return ready - issued; }
};

/**
 * Composed cache hierarchy with a single requester (the paper's model:
 * sender and receiver share one thread on one core).
 */
class MemoryHierarchy
{
  public:
    /**
     * `shared` (the Machine layer: cores 1..N-1 pass core 0's
     * hierarchy) supplies the L2 and MainMemory. A hierarchy built
     * that way owns no L2 of its own, and reseed() and resetCaches()
     * leave the shared levels to their owner.
     */
    MemoryHierarchy(const SystemConfig &cfg, Rng &rng,
                    MemoryHierarchy *shared = nullptr);

    /**
     * Timing + state access for a data load or store at cycle `now`.
     * Write allocates like a read and dirties the L1 line; functional
     * data movement is the caller's job (via mem()).
     * Speculative-state scope: InvisiSpec/SafeSpec/CacheSquash route
     * speculative loads through their own paths below, and DelayOnMiss
     * speculative accesses are hit-only (misses wait), so only the
     * listed modes can reach an install speculatively through here.
     */
    UNXPEC_TRANSITION("spec@UnsafeBaseline,Cleanup_FOR_L1,Cleanup_FOR_L1L2,"
                      "Cleanup_FULL,SpecBox")
    MemAccessRecord access(Addr addr, Cycle now, bool write,
                           bool speculative, SeqNum seq);

    /**
     * InvisiSpec load path: compute the data latency without touching
     * any cache state — no install, no replacement update, no MSHR.
     * The fill goes to the core's shadow buffer; the caches only learn
     * about the line if the load commits (exposure via access()).
     */
    UNXPEC_TRANSITION("spec@InvisiSpec")
    MemAccessRecord accessInvisible(Addr addr, Cycle now, SeqNum seq);

    /**
     * SafeSpec load path: a committed L1 hit is served in place;
     * anything else fills (or merges with) the shadow L1 instead of
     * the caches. No cache tags, replacement state, or MSHR entries
     * change — the speculative footprint lives entirely in shadow_.
     */
    UNXPEC_TRANSITION("spec@SafeSpec")
    MemAccessRecord accessSafeSpec(Addr addr, Cycle now, SeqNum seq);

    /**
     * CacheSquash load path: a committed L1 hit is served in place; a
     * miss computes its fill latency and parks the fill in a
     * *cancellable* speculative L1-MSHR entry without installing any
     * tags. Later speculative loads to the same line merge with the
     * parked fill exactly like a normal MSHR merge.
     */
    UNXPEC_TRANSITION("spec@CacheSquash")
    MemAccessRecord accessCacheSquash(Addr addr, Cycle now, SeqNum seq);

    /**
     * SafeSpec commit: drop the shadow entry and install the line into
     * L2+L1 as a committed fill available immediately — the data is
     * already on chip, so unlike InvisiSpec's expose-and-validate this
     * costs the commit stage nothing.
     */
    UNXPEC_TRANSITION("commit")
    void commitShadow(const MemAccessRecord &record, Cycle now);

    /** SafeSpec squash: discard the squashed load's shadow entry.
     *  @return true when an entry was dropped. */
    UNXPEC_ROLLBACK("SafeSpec")
    bool discardShadow(const MemAccessRecord &record);

    /**
     * CacheSquash commit: retire the parked MSHR entry and install the
     * line into L2+L1 as a committed fill (free, same reasoning as
     * commitShadow — commit happens at or after the fill's arrival).
     */
    UNXPEC_TRANSITION("commit")
    void commitPendingFill(const MemAccessRecord &record, Cycle now);

    /**
     * CacheSquash squash: cancel the squashed installer's parked fill
     * in the L1 MSHR (MshrFile::cancel). @return true when an entry
     * was cancelled.
     */
    UNXPEC_ROLLBACK("CacheSquash")
    bool cancelPendingFill(const MemAccessRecord &record);

    /** The SafeSpec shadow L1 (tests and stats). */
    const ShadowL1 &shadow() const { return shadow_; }

    /** Instruction-fetch path through the L1I (never speculativly tracked). */
    Cycle fetchReady(Addr addr, Cycle now);

    /**
     * clflush semantics: evict the line from every level. @return true
     * when a dirty copy had to be written back.
     */
    UNXPEC_TRANSITION("commit")
    bool flushLine(Addr addr);

    /** Clear the speculative marking once the installing load commits. */
    UNXPEC_TRANSITION("commit")
    void commitInstall(const MemAccessRecord &record);

    /**
     * Undo an install whose fill had not landed by squash time: the
     * line silently never arrives and its victim never left (models
     * CleanupSpec's T3 MSHR purge of inflight transient loads).
     */
    UNXPEC_ROLLBACK("Cleanup_FOR_L1,Cleanup_FOR_L1L2,Cleanup_FULL,SpecBox")
    void undoInflight(const MemAccessRecord &record);

    /** CleanupSpec T5a: invalidate a transiently installed line. */
    UNXPEC_ROLLBACK("Cleanup_FOR_L1,Cleanup_FOR_L1L2,Cleanup_FULL,SpecBox")
    bool cleanupInvalidateL1(const MemAccessRecord &record);
    UNXPEC_ROLLBACK("Cleanup_FOR_L1L2,Cleanup_FULL,SpecBox")
    bool cleanupInvalidateL2(const MemAccessRecord &record);

    /** CleanupSpec T5b: restore the L1 victim a transient fill evicted. */
    UNXPEC_ROLLBACK("Cleanup_FOR_L1,Cleanup_FOR_L1L2,Cleanup_FULL,SpecBox")
    void cleanupRestoreL1(const MemAccessRecord &record, Cycle now);

    /** Cleanup_FULL only: restore the L2 victim as well (CleanupSpec
     *  itself never does this — too costly; see CleanupMode). */
    UNXPEC_ROLLBACK("Cleanup_FULL")
    void cleanupRestoreL2(const MemAccessRecord &record, Cycle now);

    /**
     * Drop a squashed installer's speculative marking without touching
     * the line itself: the UnsafeBaseline "rollback" (the transient
     * install persists — the vulnerability) and Cleanup_FOR_L1's
     * treatment of L2 installs (the L2 residue stays resident, paper
     * §VI-B). Confining these mutations to one annotated helper keeps
     * CleanupEngine::rollback free of direct speculative-state writes.
     */
    UNXPEC_ROLLBACK("UnsafeBaseline,Cleanup_FOR_L1")
    void dropSpeculativeMark(const MemAccessRecord &record, bool l1,
                             bool l2);

    /** Cold-start every cache (backing store is preserved). */
    UNXPEC_TRANSITION("reset")
    void resetCaches();

    /**
     * Restore freshly-constructed state for a new seed without
     * reallocating: cold caches with re-derived index keys, zeroed
     * cache statistics, and a zeroed backing store with the original
     * MemoryConfig reinstated (Core::reset).
     */
    UNXPEC_TRANSITION("reset")
    void reseed(std::uint64_t seed);

    /**
     * Event tracer for per-access hit/miss/merge events (nullptr =
     * off); propagated to the three caches for their fill/evict/
     * invalidate/restore events.
     */
    void setTracer(Tracer *tracer);

    /**
     * Attach the Machine's coherence engine. Once attached, L1 misses
     * snoop the other cores, clflush flushes machine-wide, shared-L2
     * evictions back-invalidate L1 copies (inclusion), and victim
     * restorations re-establish inclusion. Single-core configurations
     * never attach an engine and are bit-identical to the pre-Machine
     * simulator.
     */
    void setCoherence(CoherenceEngine *engine, unsigned core_id);

    CoherenceEngine *coherence() { return coh_; }
    unsigned coreId() const { return coreId_; }
    /** True when this hierarchy's own L2/memory are in use. */
    bool ownsShared() const { return l2_.has_value(); }

    /**
     * CleanupSpec coherence rollback: undo the remote M/E->S downgrade
     * a squashed speculative access performed (no-op without an
     * engine or when the record carries no downgrade).
     */
    UNXPEC_ROLLBACK("Cleanup_FOR_L1,Cleanup_FOR_L1L2,Cleanup_FULL,SpecBox")
    void undoSnoopDowngrade(const MemAccessRecord &record);

    /** Audit all three caches (sim/audit.hh). Throws AuditError. */
    void auditInvariants(Cycle now) const;

    /** Check every cache this hierarchy resets against freshly
     *  constructed state (Cache::auditFresh), right after reseed(). */
    void auditFresh(Cycle now) const;

    /**
     * Rollback-completeness audit, run immediately after a squash of
     * everything younger than `branch_seq` (sim/audit.hh): no cache
     * line or MSHR entry may still carry a speculative marking from a
     * squashed installer. Throws AuditError.
     */
    void auditRollbackComplete(SeqNum branch_seq, Cycle now) const;

    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &l2() { return *l2p_; }
    MainMemory &mem() { return *memp_; }
    const SystemConfig &config() const { return cfg_; }

  private:
    /** Write-hit bookkeeping: dirty bit + S->M upgrade, invalidating
     *  remote copies through the engine in Machine configs. */
    UNXPEC_TRANSITION("commit")
    void writeHit(CacheLine &hit);

    /** Install `line` as a committed fill available at `now` into L2
     *  and L1 (skipping levels that already hold it) — the shared tail
     *  of commitShadow and commitPendingFill. */
    UNXPEC_TRANSITION("commit")
    void promoteCommitted(Addr line, Cycle now);

    SystemConfig cfg_;
    Rng &rng_;
    MainMemory mem_;
    Cache l1i_;
    Cache l1d_;
    /** Own L2; empty when the L2 is shared from another hierarchy. */
    std::optional<Cache> l2_;
    /** Active L2/memory: own members, or the shared levels. */
    Cache *l2p_ = nullptr;
    MainMemory *memp_ = &mem_;
    CoherenceEngine *coh_ = nullptr;
    unsigned coreId_ = 0;
    Tracer *tracer_ = nullptr;
    /** SafeSpec shadow L1; idle (empty) in every other mode. */
    ShadowL1 shadow_;
};

} // namespace unxpec

#endif // UNXPEC_MEMORY_HIERARCHY_HH
