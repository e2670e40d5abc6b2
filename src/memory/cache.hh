/**
 * @file
 * Set-associative cache array (tags + state only; data is functional
 * and lives in MainMemory). Supports the mechanisms CleanupSpec needs:
 * speculative-install marking, targeted invalidation, restoration of a
 * victim into the exact way a transient fill displaced it from, NoMo
 * way partitioning, random replacement, and randomized (CEASER-style)
 * indexing.
 *
 * Hot-path layout: tags live in their own contiguous array (SoA) so
 * probe() scans one cache line of simulator memory per set instead of
 * striding across full CacheLine records; per-way metadata stays in
 * the CacheLine array that probe() returns pointers into. Index and
 * replacement dispatch are enum branches (SetIndexer /
 * ReplacementState), not virtual calls, so the common modulo+LRU case
 * inlines.
 */

#ifndef UNXPEC_MEMORY_CACHE_HH
#define UNXPEC_MEMORY_CACHE_HH

#include <cstdint>
#include <vector>

#include "memory/address_map.hh"
#include "memory/cache_line.hh"
#include "memory/mshr.hh"
#include "memory/replacement.hh"
#include "sim/annotate.hh"
#include "sim/config.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace unxpec {

class Tracer;

/** Result of installing a fill. */
struct FillResult
{
    unsigned set = 0;
    unsigned way = 0;
    Addr victimLine = kAddrInvalid;
    bool victimValid = false;
    bool victimDirty = false;
    bool victimSpeculative = false;
};

/** One level of the cache hierarchy. */
class Cache
{
  public:
    Cache(const CacheConfig &cfg, Rng &rng, std::uint64_t index_key);

    /** Line lookup without side effects (nullptr on miss). */
    const CacheLine *
    probe(Addr line_addr) const
    {
        const int way = findWay(line_addr);
        if (way < 0)
            return nullptr;
        return &lines_[static_cast<std::size_t>(index_.set(line_addr)) *
                           cfg_.ways +
                       static_cast<unsigned>(way)];
    }

    CacheLine *
    probeMutable(Addr line_addr)
    {
        return const_cast<CacheLine *>(probe(line_addr));
    }

    /** Hit record of a combined lookup (see lookup()). */
    struct LookupResult
    {
        CacheLine *line = nullptr; //!< nullptr on miss
        unsigned set = 0;
        unsigned way = 0;
    };

    /**
     * Single-scan lookup for the hierarchy hot path: one set
     * computation and one tag scan yield the line *and* its (set, way)
     * coordinates, so a hit can touch the replacement state and mutate
     * metadata without re-probing.
     */
    LookupResult
    lookup(Addr line_addr)
    {
        LookupResult result;
        result.set = index_.set(line_addr);
        const int way = findWayInSet(result.set, line_addr);
        if (way >= 0) {
            result.way = static_cast<unsigned>(way);
            result.line = &lines_[static_cast<std::size_t>(result.set) *
                                      cfg_.ways +
                                  result.way];
        }
        return result;
    }

    /** Replacement-policy hit update using lookup() coordinates. */
    void touchAt(unsigned set, unsigned way) { repl_.touch(set, way); }

    /** True when the line is resident and its fill has landed. */
    bool
    present(Addr line_addr, Cycle now) const
    {
        const CacheLine *hit = probe(line_addr);
        return hit != nullptr && hit->fillCycle <= now;
    }

    /** Record a hit for the replacement policy. */
    void
    touch(Addr line_addr)
    {
        const int way = findWay(line_addr);
        if (way >= 0)
            repl_.touch(index_.set(line_addr), static_cast<unsigned>(way));
    }

    /**
     * Install a line, evicting a victim if every allowed way is valid.
     * Invalid ways are preferred; the NoMo partition restricts the
     * candidate ways per security domain: domain 0 (the owning
     * thread) may not touch the reserved ways, which belong to
     * domain 1 (the SMT sibling). With no reservation both domains
     * share every way.
     */
    UNXPEC_TRANSITION("spec@UnsafeBaseline,Cleanup_FOR_L1,Cleanup_FOR_L1L2,"
                      "Cleanup_FULL,SpecBox")
    FillResult install(Addr line_addr, Cycle fill_cycle, bool speculative,
                       SeqNum installer, unsigned domain = 0);

    /** Place a line into a specific way (restoration / inflight undo). */
    UNXPEC_ROLLBACK("Cleanup_FOR_L1,Cleanup_FOR_L1L2,Cleanup_FULL,SpecBox")
    void installAt(unsigned set, unsigned way, Addr line_addr, bool dirty,
                   Cycle fill_cycle);

    /** Invalidate a resident line. Serves both speculative-era activity
     *  (shared-L2 back-invalidation, remote write invalidation) and the
     *  cleanup walks, hence the dual registration. */
    UNXPEC_TRANSITION("spec@UnsafeBaseline,Cleanup_FOR_L1,Cleanup_FOR_L1L2,"
                      "Cleanup_FULL,SpecBox")
    UNXPEC_ROLLBACK("Cleanup_FOR_L1,Cleanup_FOR_L1L2,Cleanup_FULL,SpecBox")
    bool invalidate(Addr line_addr);

    /** Invalidate the line in a specific way if it still matches. */
    UNXPEC_ROLLBACK("Cleanup_FOR_L1,Cleanup_FOR_L1L2,Cleanup_FULL,SpecBox")
    bool invalidateAt(unsigned set, unsigned way, Addr line_addr);

    /** Mark a resident line dirty (write hit; stores are committed). */
    UNXPEC_TRANSITION("commit")
    void markDirty(Addr line_addr);

    /** Clear the speculative bit once the installer commits. */
    UNXPEC_TRANSITION("commit")
    void commitSpeculative(Addr line_addr, SeqNum installer);

    /** Set index of a line address under this cache's index function. */
    unsigned setOf(Addr line_addr) const { return index_.set(line_addr); }

    /** Number of valid lines currently in a set. */
    unsigned setOccupancy(unsigned set) const;

    /** All resident line addresses, sorted (for snapshot testing). */
    std::vector<Addr> residentLines() const;

    /**
     * Cross-check the SoA fast-path layout against the line metadata
     * (sim/audit.hh): tag mirror, set placement, duplicate tags,
     * speculative-marking coherence, LRU stamp ordering, and MSHR
     * consistency with fills in flight. Throws AuditError.
     */
    void auditInvariants(Cycle now) const;

    /**
     * Check, by full scan, that the cache is in freshly constructed
     * state: every tag invalid, every line default, every LRU stamp
     * and the LRU tick zero, the MSHR file and the touched-set list
     * empty (sim/audit.hh; run after each Core::reset). Throws
     * AuditError.
     */
    void auditFresh(Cycle now) const;

    /**
     * Drop all content and outstanding misses (cold cache). Only the
     * sets written since the last reset are cleared: their tags,
     * lines and LRU stamps.
     */
    UNXPEC_TRANSITION("reset")
    void reset();

    /**
     * Restore freshly-constructed state under a new index key without
     * reallocating the arrays: cold content, fresh replacement
     * history, re-derived CEASER keys, zeroed statistics (Core::reset).
     */
    UNXPEC_TRANSITION("reset")
    void reseed(std::uint64_t index_key);

    MshrFile &mshr() { return mshr_; }
    const MshrFile &mshr() const { return mshr_; }
    const CacheConfig &config() const { return cfg_; }
    StatGroup &stats() { return stats_; }

    /**
     * Event tracer for fill/evict/invalidate/restore events (nullptr =
     * off). `level` stamps the events: 0 = L1I, 1 = L1D, 2 = L2.
     */
    void
    setTracer(Tracer *tracer, std::uint8_t level)
    {
        tracer_ = tracer;
        traceLevel_ = level;
    }

    Counter &hits() { return hits_; }
    Counter &misses() { return misses_; }

  private:
    /**
     * Way holding `line_addr`, -1 on miss. The scan touches only the
     * contiguous tag array; invalid ways hold kAddrInvalid, which no
     * line-aligned address can equal, so no valid-bit check is needed.
     */
    int
    findWay(Addr line_addr) const
    {
        return findWayInSet(index_.set(line_addr), line_addr);
    }

    int
    findWayInSet(unsigned set, Addr line_addr) const
    {
        if (line_addr == kAddrInvalid)
            return -1;
        const Addr *tags =
            tags_.data() + static_cast<std::size_t>(set) * cfg_.ways;
        for (unsigned way = 0; way < cfg_.ways; ++way) {
            if (tags[way] == line_addr)
                return static_cast<int>(way);
        }
        return -1;
    }

    /**
     * Record that `set` was written, once per set between resets. Only
     * install and installAt make a line valid (and stamp it), and every
     * other write needs a valid line, so the recorded sets are all a
     * reset has to clear.
     */
    void
    markTouched(unsigned set)
    {
        std::uint64_t &word = touchedMask_[set / 64];
        const std::uint64_t bit = std::uint64_t{1} << (set % 64);
        if ((word & bit) != 0)
            return;
        word |= bit;
        touchedSets_.push_back(set); // lint-ok(steady-alloc): reserved
    }

    Addr &tag(unsigned set, unsigned way);
    CacheLine &line(unsigned set, unsigned way);
    const CacheLine &line(unsigned set, unsigned way) const;

    CacheConfig cfg_;
    unsigned numSets_;
    /** Transient installs land in both arrays; the tags are what a
     *  Flush+Reload receiver times, so they are speculative state the
     *  undo must restore exactly. */
    UNXPEC_SPEC_STATE std::vector<Addr> tags_; //!< SoA tags (probe scan)
    UNXPEC_SPEC_STATE std::vector<CacheLine> lines_; //!< per-way metadata
    ReplacementState repl_;
    SetIndexer index_;
    MshrFile mshr_;
    /** Sets written since the last reset, each listed once (reserved
     *  to numSets_ at construction). */
    std::vector<unsigned> touchedSets_;
    /** One bit per set: already on touchedSets_. */
    std::vector<std::uint64_t> touchedMask_;
    /** Allowed-way masks per security domain (depends only on config). */
    std::uint64_t allowedMask_[2];
    Tracer *tracer_ = nullptr;
    std::uint8_t traceLevel_ = 0;

    StatGroup stats_;
    Counter &hits_;
    Counter &misses_;
    Counter &evictions_;
    Counter &invalidations_;
    Counter &restores_;

    friend class MemoryHierarchy;
    /** Test-only corruption hook for proving the auditor fires. */
    friend struct AuditTap;
};

} // namespace unxpec

#endif // UNXPEC_MEMORY_CACHE_HH
