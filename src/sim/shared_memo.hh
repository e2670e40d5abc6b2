/**
 * @file
 * Compute-once-per-key memo shared between threads. Three users:
 *  - the overhead memo (workload/synth_spec.hh, OverheadClaim) and
 *  - the matrix-trial memo (harness/matrix.hh, matrixTrialFn) each
 *    cache a simulation whose result does not depend on the seed it
 *    ran with;
 *  - the victim-listing memo (victim/victim.hh, victimListing) is a
 *    build cache of a seedless pure function, VictimConfig -> listing.
 *    It holds no simulation result, so retiring the first two (once
 *    deterministic cells run a single trial) leaves it in place.
 */

#ifndef UNXPEC_SIM_SHARED_MEMO_HH
#define UNXPEC_SIM_SHARED_MEMO_HH

#include <future>
#include <mutex>
#include <utility>
#include <vector>

namespace unxpec {

/**
 * A thread-safe memo that computes each key's value once. The first
 * claimant of a key runs `compute` inside claim(), outside the lock,
 * so other keys and the key's later claimants proceed meanwhile. A
 * later claimant gets the same std::shared_future and waits on it only
 * while the value is still in flight; the computing claimant waits on
 * nothing, so claims cannot deadlock, even on one thread. Should
 * `compute` throw, its dropped promise hands every waiter a
 * broken_promise error.
 *
 * Keys compare with operator== in a linear scan: each memo holds a few
 * dozen keys at most, and a config-sized key has no cheap hash.
 */
template <typename Key, typename Value>
class SharedMemo
{
  public:
    /** The value of `key`; `compute()` makes it on the key's first
     *  claim, and the returned future is then ready. */
    template <typename Compute>
    std::shared_future<Value>
    claim(Key key, Compute &&compute)
    {
        std::promise<Value> result;
        std::shared_future<Value> shared;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            for (const auto &[other, value] : entries_) {
                if (other == key)
                    return value;
            }
            shared = result.get_future().share();
            entries_.emplace_back(std::move(key), shared);
        }
        result.set_value(compute());
        return shared;
    }

  private:
    std::mutex mutex_;
    std::vector<std::pair<Key, std::shared_future<Value>>> entries_;
};

} // namespace unxpec

#endif // UNXPEC_SIM_SHARED_MEMO_HH
