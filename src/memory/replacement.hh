/**
 * @file
 * Replacement policies. CleanupSpec mandates *random* replacement in
 * the L1 D-cache (hiding replacement-metadata side channels exploited
 * by speculative interference attacks); other levels default to LRU.
 *
 * ReplacementState is the one implementation: a concrete
 * enum-dispatched class whose touch/fill (Cache::touch on every hit,
 * install on every fill) inline to a branch plus a store.
 */

#ifndef UNXPEC_MEMORY_REPLACEMENT_HH
#define UNXPEC_MEMORY_REPLACEMENT_HH

#include <cstddef>
#include <cstdint>

#include "memory/zero_array.hh"
#include "sim/config.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace unxpec {

/**
 * Replacement metadata for one cache: LRU timestamps or the shared Rng
 * for uniformly random victims, selected by a two-value enum.
 * Invalid ways are always preferred as victims by the cache itself;
 * victim() is consulted only when every way is valid. State is
 * kept per storage row, the cache's place for a set's ways (see
 * Cache).
 */
class ReplacementState
{
  public:
    ReplacementState(ReplPolicy policy, unsigned rows, unsigned ways,
                     Rng &rng)
        : policy_(policy), ways_(ways), rng_(rng),
          stamps_(policy == ReplPolicy::LRU
                      ? static_cast<std::size_t>(rows) * ways
                      : 0)
    {
    }

    /** Record a hit on (row, way). */
    void
    touch(unsigned row, unsigned way)
    {
        if (policy_ == ReplPolicy::LRU)
            stamps_[static_cast<std::size_t>(row) * ways_ + way] = ++tick_;
    }

    /** Record a fill into (row, way). */
    void fill(unsigned row, unsigned way) { touch(row, way); }

    /** Choose a victim way within `row`: the least recently used way,
     *  or one uniformly random draw over every way. */
    unsigned victim(unsigned row);

    /** Forget the history of `count` rows from `first` on (a cache
     *  reset of the rows it wrote). */
    void
    clearRows(unsigned first, unsigned count)
    {
        if (policy_ == ReplPolicy::LRU) {
            stamps_.clear(static_cast<std::size_t>(first) * ways_,
                          static_cast<std::size_t>(count) * ways_);
        }
    }

    /** Restart the LRU clock: with every row cleared, this is
     *  freshly-constructed state (Core::reset). */
    void restartClock() { tick_ = 0; }

    ReplPolicy policy() const { return policy_; }

    /** LRU timestamp of (row, way), 0 under non-LRU policies (audit). */
    std::uint64_t
    auditStamp(unsigned row, unsigned way) const
    {
        if (policy_ != ReplPolicy::LRU)
            return 0;
        return stamps_[static_cast<std::size_t>(row) * ways_ + way];
    }

    /** Current LRU tick — an upper bound on every stamp (audit). */
    std::uint64_t auditTick() const { return tick_; }

  private:
    ReplPolicy policy_;
    unsigned ways_;
    Rng &rng_;
    std::uint64_t tick_ = 0;
    ZeroArray<std::uint64_t> stamps_; // rows * ways (LRU only)

    /** Test-only corruption hook for proving the auditor fires. */
    friend struct AuditTap;
};

} // namespace unxpec

#endif // UNXPEC_MEMORY_REPLACEMENT_HH
