/**
 * @file
 * Replacement policies. CleanupSpec mandates *random* replacement in
 * the L1 D-cache (hiding replacement-metadata side channels exploited
 * by speculative interference attacks); other levels default to LRU.
 * NoMo-style way partitioning is expressed through an allowed-way mask
 * supplied by the cache.
 *
 * ReplacementState is the one implementation: a concrete
 * enum-dispatched class whose touch/fill (Cache::touch on every hit,
 * install on every fill) inline to a branch plus a store.
 */

#ifndef UNXPEC_MEMORY_REPLACEMENT_HH
#define UNXPEC_MEMORY_REPLACEMENT_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/config.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace unxpec {

/**
 * Replacement metadata for one cache: LRU timestamps or the shared Rng
 * for uniformly random victims, selected by a two-value enum.
 * Invalid ways are always preferred as victims by the cache itself;
 * victim() is consulted only when every allowed way is valid.
 */
class ReplacementState
{
  public:
    ReplacementState(ReplPolicy policy, unsigned num_sets, unsigned ways,
                     Rng &rng)
        : policy_(policy), ways_(ways), rng_(rng),
          stamps_(policy == ReplPolicy::LRU
                      ? static_cast<std::size_t>(num_sets) * ways
                      : 0)
    {
    }

    /** Record a hit on (set, way). */
    void
    touch(unsigned set, unsigned way)
    {
        if (policy_ == ReplPolicy::LRU)
            stamps_[static_cast<std::size_t>(set) * ways_ + way] = ++tick_;
    }

    /** Record a fill into (set, way). */
    void fill(unsigned set, unsigned way) { touch(set, way); }

    /**
     * Choose a victim way within `set` among ways whose bit is set in
     * `allowed_mask` (never zero).
     */
    unsigned victim(unsigned set, std::uint64_t allowed_mask);

    /** Forget the history of one set (a cache reset of a set it
     *  wrote). */
    void
    clearSet(unsigned set)
    {
        if (policy_ == ReplPolicy::LRU) {
            std::fill_n(stamps_.begin() +
                            static_cast<std::ptrdiff_t>(set) * ways_,
                        ways_, 0);
        }
    }

    /** Restart the LRU clock: with every set cleared, this is
     *  freshly-constructed state (Core::reset). */
    void restartClock() { tick_ = 0; }

    ReplPolicy policy() const { return policy_; }

    /** LRU timestamp of (set, way), 0 under non-LRU policies (audit). */
    std::uint64_t
    auditStamp(unsigned set, unsigned way) const
    {
        if (policy_ != ReplPolicy::LRU)
            return 0;
        return stamps_[static_cast<std::size_t>(set) * ways_ + way];
    }

    /** Current LRU tick — an upper bound on every stamp (audit). */
    std::uint64_t auditTick() const { return tick_; }

  private:
    ReplPolicy policy_;
    unsigned ways_;
    Rng &rng_;
    std::uint64_t tick_ = 0;
    std::vector<std::uint64_t> stamps_; // numSets * ways (LRU only)

    /** Test-only corruption hook for proving the auditor fires. */
    friend struct AuditTap;
};

} // namespace unxpec

#endif // UNXPEC_MEMORY_REPLACEMENT_HH
