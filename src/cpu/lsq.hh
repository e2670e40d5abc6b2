/**
 * @file
 * Load/store queue discipline, expressed as ordering queries over the
 * reorder buffer. Loads may not issue past an older store with an
 * unresolved address; a fully covering older store forwards its value;
 * a partially overlapping one blocks the load until it leaves the ROB.
 * FENCE blocks younger memory operations until every older memory
 * operation has completed — the mechanism the unXpec receiver uses to
 * zero out T4 of the CleanupSpec timeline.
 */

#ifndef UNXPEC_CPU_LSQ_HH
#define UNXPEC_CPU_LSQ_HH

#include <cstdint>

#include "cpu/rob.hh"
#include "sim/types.hh"

namespace unxpec {

/** Outcome of querying whether a load may issue. */
enum class LoadGate
{
    Proceed,   //!< go to the cache
    Forward,   //!< take the value from an older in-flight store
    Blocked,   //!< wait (unknown older store address / fence / overlap)
};

/** Result of the load gating query. */
struct LoadGateResult
{
    LoadGate gate = LoadGate::Proceed;
    std::uint64_t forwardValue = 0;
    /** When Blocked by an older not-done store or fence: the first
     *  (oldest) such entry, which the load can park on. kSeqNone for
     *  a partial overlap (it clears at the store's commit) and for
     *  Proceed/Forward. */
    SeqNum blocker = kSeqNone;
};

/** Stateless LSQ policy over the ROB (capacity tracked by the core). */
class LoadStoreQueue
{
  public:
    explicit LoadStoreQueue(unsigned capacity) : capacity_(capacity) {}

    unsigned capacity() const { return capacity_; }

    /** Number of in-flight memory instructions in the ROB. */
    static unsigned
    occupancy(const ReorderBuffer &rob)
    {
        return rob.memCount();
    }

    /**
     * May the load `seq` (address `addr`, `size` bytes) issue?
     * Considers older stores and fences in the ROB.
     */
    static LoadGateResult gateLoad(const ReorderBuffer &rob, SeqNum seq,
                                   Addr addr, unsigned size);

    /** May the fence `seq` complete (all older memory ops done)? */
    static bool fenceReady(const ReorderBuffer &rob, SeqNum seq);

    /** Latest completion cycle among issued-but-incomplete loads older
     *  than `seq` (the squashing branch); 0 when there are none.
     *  Feeds T4 of the cleanup timeline. */
    static Cycle olderLoadsDrainCycle(const ReorderBuffer &rob, SeqNum seq);

  private:
    unsigned capacity_;
};

} // namespace unxpec

#endif // UNXPEC_CPU_LSQ_HH
