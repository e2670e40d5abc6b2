/**
 * @file
 * Set-associative cache array (tags + state only; data is functional
 * and lives in MainMemory). Supports the mechanisms CleanupSpec needs:
 * speculative-install marking, targeted invalidation, restoration of a
 * victim into the exact way a transient fill displaced it from, random
 * replacement, and randomized (CEASER-style) indexing.
 *
 * Hot-path layout: tags live in their own contiguous array (SoA) so
 * probe() scans one cache line of simulator memory per set instead of
 * striding across full CacheLine records; per-way metadata stays in
 * the CacheLine array that probe() returns pointers into. Index and
 * replacement dispatch are enum branches (SetIndexer /
 * ReplacementState), not virtual calls, so the common modulo+LRU case
 * inlines.
 *
 * Storage rows: the per-way arrays (tags, lines, LRU stamps) are
 * ZeroArrays whose zero bytes are the empty way, laid out in rows of
 * `ways` entries. Row 0 is never written and stands in for every set
 * not written since the last reset; a set's first write claims the
 * next free row, and reset() returns the claimed rows (a contiguous
 * prefix) to zero. A build therefore maps no page of the arrays, and a
 * trial faults in only the pages its own sets fill, at the front of
 * the arrays, which the next trial reuses.
 */

#ifndef UNXPEC_MEMORY_CACHE_HH
#define UNXPEC_MEMORY_CACHE_HH

#include <cstdint>
#include <vector>

#include "memory/address_map.hh"
#include "memory/cache_line.hh"
#include "memory/mshr.hh"
#include "memory/replacement.hh"
#include "memory/zero_array.hh"
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
        const std::size_t base = rowBase(index_.set(line_addr));
        const int way = findWayAt(base, line_addr);
        if (way < 0)
            return nullptr;
        return &lines_[base + static_cast<unsigned>(way)];
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
        const std::size_t base = rowBase(result.set);
        const int way = findWayAt(base, line_addr);
        if (way >= 0) {
            result.way = static_cast<unsigned>(way);
            result.line = &lines_[base + result.way];
        }
        return result;
    }

    /** Replacement-policy hit update using lookup() coordinates. */
    void
    touchAt(unsigned set, unsigned way)
    {
        repl_.touch(rowOf_[set], way);
    }

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
        const unsigned set = index_.set(line_addr);
        const int way = findWayAt(rowBase(set), line_addr);
        if (way >= 0)
            repl_.touch(rowOf_[set], static_cast<unsigned>(way));
    }

    /** Install a line into an invalid way, or evict the replacement
     *  policy's victim when every way is valid. */
    UNXPEC_TRANSITION("spec@UnsafeBaseline,Cleanup_FOR_L1,Cleanup_FOR_L1L2,"
                      "SpecBox")
    FillResult install(Addr line_addr, Cycle fill_cycle, bool speculative,
                       SeqNum installer);

    /** Place a line into a specific way (restoration / inflight undo). */
    UNXPEC_ROLLBACK("Cleanup_FOR_L1,Cleanup_FOR_L1L2,SpecBox")
    void installAt(unsigned set, unsigned way, Addr line_addr, bool dirty,
                   Cycle fill_cycle);

    /** Invalidate a resident line. Serves both speculative-era activity
     *  (shared-L2 back-invalidation, remote write invalidation) and the
     *  cleanup walks, hence the dual registration. */
    UNXPEC_TRANSITION("spec@UnsafeBaseline,Cleanup_FOR_L1,Cleanup_FOR_L1L2,"
                      "SpecBox")
    UNXPEC_ROLLBACK("Cleanup_FOR_L1,Cleanup_FOR_L1L2,SpecBox")
    bool invalidate(Addr line_addr);

    /** Invalidate the line in a specific way if it still matches. */
    UNXPEC_ROLLBACK("Cleanup_FOR_L1,Cleanup_FOR_L1L2,SpecBox")
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
     * state: every tag empty, every line default, every LRU stamp,
     * row assignment and the LRU tick zero, the MSHR file and the
     * touched-set list empty (sim/audit.hh; run after each
     * Core::reset). Throws AuditError.
     */
    void auditFresh(Cycle now) const;

    /**
     * Drop all content and outstanding misses (cold cache). Only the
     * rows claimed since the last reset are cleared: their tags, lines
     * and LRU stamps.
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
     * Tag-array entry of a resident line: its address complemented, so
     * that an empty way holds 0 (kEmptyTag). Only kAddrInvalid, which
     * no line-aligned address equals, has the key 0.
     */
    static Addr tagKey(Addr line_addr) { return ~line_addr; }
    static constexpr Addr kEmptyTag = 0;

    /** Array index of way 0 of `set`'s row (row 0 while unwritten). */
    std::size_t
    rowBase(unsigned set) const
    {
        return static_cast<std::size_t>(rowOf_[set]) * cfg_.ways;
    }

    /**
     * Way of the row at `base` holding `line_addr`, -1 on miss. The
     * scan touches only the contiguous tag array and compares the key,
     * so no valid-bit check is needed; probing kAddrInvalid would
     * match an empty way and is refused.
     */
    int
    findWayAt(std::size_t base, Addr line_addr) const
    {
        if (line_addr == kAddrInvalid)
            return -1;
        const Addr key = tagKey(line_addr);
        const Addr *tags = tags_.data() + base;
        for (unsigned way = 0; way < cfg_.ways; ++way) {
            if (tags[way] == key)
                return static_cast<int>(way);
        }
        return -1;
    }

    /**
     * Row of `set`, claiming the next free row on the set's first
     * write since the last reset. Only install and installAt make a
     * line valid (and stamp it), and every other write needs a valid
     * line, so row 0 is never written and the claimed rows are all a
     * reset has to clear.
     */
    unsigned
    claimRow(unsigned set)
    {
        std::uint32_t &row = rowOf_[set];
        if (row == 0) {
            touchedSets_.push_back(set); // lint-ok(steady-alloc): reserved
            row = static_cast<std::uint32_t>(touchedSets_.size());
        }
        return row;
    }

    CacheLine &line(unsigned set, unsigned way);

    CacheConfig cfg_;
    unsigned numSets_;
    /** Row of each set: 0 until written since the last reset, then
     *  its position on touchedSets_ plus one. */
    ZeroArray<std::uint32_t> rowOf_;
    /** Transient installs land in both arrays; the tags are what a
     *  Flush+Reload receiver times, so they are speculative state the
     *  undo must restore exactly. numSets_ + 1 rows each. */
    UNXPEC_SPEC_STATE ZeroArray<Addr> tags_; //!< tagKey per way (probe scan)
    UNXPEC_SPEC_STATE ZeroArray<CacheLine> lines_; //!< per-way metadata
    ReplacementState repl_; //!< LRU stamps by row
    SetIndexer index_;
    MshrFile mshr_;
    /** Sets written since the last reset, in the order they claimed
     *  rows 1, 2, ... (reserved to numSets_ at construction). */
    std::vector<unsigned> touchedSets_;
    Tracer *tracer_ = nullptr;
    std::uint8_t traceLevel_ = 0;

    StatGroup stats_;
    Counter &hits_;
    Counter &misses_;
    Counter &evictions_;
    Counter &invalidations_;
    Counter &restores_;

    friend class MemoryHierarchy;
    /** Test-only access: corruption hooks that prove the auditor fires
     *  (audit_test), raw-state comparison (cache_fresh_test). */
    friend struct AuditTap;
};

} // namespace unxpec

#endif // UNXPEC_MEMORY_CACHE_HH
