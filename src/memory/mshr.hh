/**
 * @file
 * Miss Status Holding Registers. An MSHR entry tracks one outstanding
 * line fill: its completion cycle, whether the requester was
 * speculative, and which line the fill displaced. CleanupSpec mines
 * exactly this bookkeeping during rollback — the addresses of evicted
 * victims come from the MSHR (paper §II-B), and T3 of the timeline is
 * "request MSHR to clean inflight mis-speculated loads".
 */

#ifndef UNXPEC_MEMORY_MSHR_HH
#define UNXPEC_MEMORY_MSHR_HH

#include <cstdint>
#include <vector>

#include "sim/annotate.hh"
#include "sim/types.hh"

namespace unxpec {

/** One outstanding miss. */
struct MshrEntry
{
    Addr lineAddr = kAddrInvalid;
    Cycle readyCycle = kCycleNever; //!< fill (and data) arrival
    UNXPEC_SPEC_STATE bool speculative = false; //!< requester uncommitted
    UNXPEC_SPEC_STATE SeqNum installer = kSeqNone; //!< first requester
    unsigned targets = 0;           //!< merged requesters
    /** Victim displaced by this fill (for CleanupSpec restoration). */
    Addr victimLine = kAddrInvalid;
    bool victimValid = false;
    bool victimDirty = false;
};

/**
 * Fixed-capacity MSHR file. Completed entries are retired lazily by
 * release(); a full file back-pressures the requester (the cache adds
 * a retry delay).
 */
class MshrFile
{
  public:
    explicit MshrFile(unsigned capacity) : capacity_(capacity)
    {
        // Fixed capacity reserved up front: allocate() never regrows,
        // so a warm MSHR file performs no steady-state heap traffic.
        // lint-ok(steady-alloc): one-time construction sizing
        entries_.reserve(capacity);
    }

    /** Retire every entry whose fill has landed by `now`. */
    UNXPEC_TRANSITION("commit")
    void release(Cycle now);

    /** Find the outstanding entry for a line, or nullptr. */
    MshrEntry *find(Addr line_addr);
    const MshrEntry *find(Addr line_addr) const;

    /** Allocate a new entry; the file must not be full. */
    UNXPEC_TRANSITION("spec@UnsafeBaseline,Cleanup_FOR_L1,Cleanup_FOR_L1L2,"
                      "SpecBox,CacheSquash")
    MshrEntry &allocate(Addr line_addr, Cycle ready, bool speculative,
                        SeqNum installer);

    /** Drop the entry for a line (CleanupSpec T3 inflight purge). */
    UNXPEC_ROLLBACK("Cleanup_FOR_L1,Cleanup_FOR_L1L2,SpecBox")
    bool squash(Addr line_addr);

    /**
     * Cancel the outstanding fill for `line_addr` if (and only if) it
     * was allocated by the given speculative installer — the CacheSquash
     * cancellation path, driven by CleanupEngine::rollback at squash
     * time and by the commit path when the parked fill becomes real.
     * Unlike squash(), a committed (non-speculative) fill or a fill
     * re-requested by a different installer is left alone.
     */
    UNXPEC_TRANSITION("commit")
    UNXPEC_ROLLBACK("CacheSquash")
    bool cancel(Addr line_addr, SeqNum installer);

    bool full() const { return entries_.size() >= capacity_; }
    std::size_t inflight() const { return entries_.size(); }
    unsigned capacity() const { return capacity_; }

    /** Earliest completion among outstanding entries (kCycleNever if none). */
    Cycle earliestReady() const;

    const std::vector<MshrEntry> &entries() const { return entries_; }

    UNXPEC_TRANSITION("reset")
    void clear() { entries_.clear(); }

  private:
    unsigned capacity_;
    /** The outstanding-miss set itself is speculative state: CacheSquash
     *  parks cancellable speculative fills here and its squash path
     *  must leave no entry behind (auditRollbackComplete). */
    UNXPEC_SPEC_STATE std::vector<MshrEntry> entries_;
};

} // namespace unxpec

#endif // UNXPEC_MEMORY_MSHR_HH
