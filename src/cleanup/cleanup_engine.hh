/**
 * @file
 * The Undo rollback engine: CleanupSpec's T3-T5 timeline (paper Fig. 1)
 * plus the two countermeasures the paper evaluates or proposes —
 * relaxed constant-time rollback (§VI-E) and fuzzy dummy-cleanup
 * (§VII).
 *
 * Timeline model on a squash at cycle S:
 *   T3  scrub inflight transient loads from the MSHRs; their fills are
 *       dropped on arrival (fixed cost, no walk);
 *   T4  wait for inflight correct-path loads to retire before touching
 *       cache state (zeroed out by the attack's FENCE);
 *   T5  invalidate transiently installed lines whose fills landed — L1
 *       and (in Cleanup_FOR_L1L2) L2 walks proceed in parallel, each
 *       pipelined — then restore displaced L1 victims from L2,
 *       pipelined.
 * The core is stalled until the returned cycle. A squash with no
 * transient footprint (the unXpec secret-0 case) stalls zero cycles —
 * that asymmetry *is* the paper's timing channel.
 */

#ifndef UNXPEC_CLEANUP_CLEANUP_ENGINE_HH
#define UNXPEC_CLEANUP_CLEANUP_ENGINE_HH

#include <vector>

#include "cleanup/spec_tracker.hh"
#include "memory/hierarchy.hh"
#include "sim/annotate.hh"
#include "sim/config.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace unxpec {

class Tracer;

/** Per-squash record for instrumented experiments (Fig. 2/3/6). */
struct SquashLog
{
    Cycle cycle = 0;        //!< when the mis-speculation was detected
    Cycle stall = 0;        //!< rollback stall charged
    unsigned l1Invalidations = 0;
    unsigned l2Invalidations = 0;
    unsigned restores = 0;
    unsigned inflightDropped = 0;
    /** T4: cycles the rollback waited for older correct-path loads
     *  before touching cache state (part of `stall`). */
    Cycle drainWait = 0;
};

/** Applies and times the cache-state rollback for one squash. */
class CleanupEngine
{
  public:
    CleanupEngine(CleanupMode mode, const CleanupTiming &timing, Rng &rng);

    /**
     * Handle a squash: apply the state rollback to the hierarchy and
     * return the cycle until which the core stalls (>= squash cycle;
     * equal when nothing stalls).
     *
     * @param hierarchy     caches to roll back
     * @param job           distilled footprint of the squashed loads
     * @param older_drain   latest completion among inflight
     *                      correct-path loads (T4), 0 if none
     */
    UNXPEC_ROLLBACK("*")
    Cycle rollback(MemoryHierarchy &hierarchy, const CleanupJob &job,
                   Cycle older_drain);

    /**
     * Pure timing query: rollback duration (cycles beyond the squash)
     * for a footprint of k1 L1 installs, k2 L2 installs and m L1
     * restores. Exposed for calibration tests and the analytical
     * benches.
     */
    double rollbackDuration(unsigned l1_inv, unsigned l2_inv,
                            unsigned restores) const;

    StatGroup &stats() { return stats_; }

    /** Cycles of cleanup stall charged by the most recent rollback. */
    Cycle lastStall() const { return lastStall_; }

    /** Per-squash logging (off by default; bounded by caller resets). */
    void enableLog(bool enable) { logEnabled_ = enable; }
    void clearLog() { log_.clear(); }
    const std::vector<SquashLog> &log() const { return log_; }

    /**
     * Event tracer for the rollback timeline (nullptr = off): a
     * rollback-begin instant at the squash, one invalidate/restore/
     * scrub instant per touched line, and a rollback-end span covering
     * the charged stall.
     */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    /**
     * Restore freshly-constructed state (Core::reset): statistics
     * zeroed, logging off, tracer detached. Mode and timing are fixed
     * at construction.
     */
    UNXPEC_TRANSITION("reset")
    void
    reset()
    {
        stats_.resetAll();
        lastStall_ = 0;
        logEnabled_ = false;
        log_.clear();
        tracer_ = nullptr;
    }

  private:
    const CleanupMode mode_;
    const CleanupTiming timing_;
    Rng &rng_;

    StatGroup stats_;
    Counter &squashes_;
    Counter &cleanupEvents_;
    Counter &cleanupCycles_;
    Counter &invalidationsL1_;
    Counter &invalidationsL2_;
    Counter &restores_;
    Counter &inflightDrops_;
    Counter &extraConstCycles_;
    Counter &shadowDiscards_;
    Counter &mshrCancels_;
    Cycle lastStall_ = 0;

    bool logEnabled_ = false;
    std::vector<SquashLog> log_;
    Tracer *tracer_ = nullptr;
};

} // namespace unxpec

#endif // UNXPEC_CLEANUP_CLEANUP_ENGINE_HH
