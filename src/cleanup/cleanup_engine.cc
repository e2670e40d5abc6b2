#include "cleanup/cleanup_engine.hh"

#include <algorithm>
#include <cmath>

#include "sim/trace.hh"

namespace unxpec {

CleanupEngine::CleanupEngine(CleanupMode mode, const CleanupTiming &timing,
                             Rng &rng)
    : mode_(mode),
      timing_(timing),
      rng_(rng),
      stats_("cleanup"),
      squashes_(stats_.counter("squashes", "mis-speculation squashes")),
      cleanupEvents_(stats_.counter("events",
                                    "squashes that required rollback work")),
      cleanupCycles_(stats_.counter("cycles",
                                    "total core-stall cycles for cleanup")),
      invalidationsL1_(stats_.counter("invalidationsL1",
                                      "transient L1 installs invalidated")),
      invalidationsL2_(stats_.counter("invalidationsL2",
                                      "transient L2 installs invalidated")),
      restores_(stats_.counter("restores", "L1 victims restored")),
      inflightDrops_(stats_.counter("inflightDrops",
                                    "inflight transient fills scrubbed")),
      extraConstCycles_(stats_.counter("extraCleanupSquashTimeCycles",
                                       "extra stall imposed by "
                                       "constant-time rollback")),
      shadowDiscards_(stats_.counter("shadowDiscards",
                                     "SafeSpec shadow fills discarded")),
      mshrCancels_(stats_.counter("mshrCancels",
                                  "CacheSquash parked fills cancelled"))
{
}

double
CleanupEngine::rollbackDuration(unsigned l1_inv, unsigned l2_inv,
                                unsigned restores) const
{
    if (l1_inv == 0 && l2_inv == 0 && restores == 0)
        return 0.0;

    double duration = timing_.mshrCleanCost;

    // Invalidation walks: L1 and L2 engines run in parallel, each
    // pipelined after its first operation.
    double inv_l1 = 0.0;
    if (l1_inv > 0)
        inv_l1 = timing_.invFirstL1 + (l1_inv - 1) * timing_.invNextL1;
    double inv_l2 = 0.0;
    if (l2_inv > 0)
        inv_l2 = timing_.invFirstL2 + (l2_inv - 1) * timing_.invNextL2;
    duration += std::max(inv_l1, inv_l2);

    // Restoration: refills from L2 into L1, pipelined, after the
    // invalidation pass.
    if (restores > 0) {
        duration += timing_.restoreFirst +
                    (restores - 1) * timing_.restoreNext;
    }
    return duration;
}

Cycle
CleanupEngine::rollback(MemoryHierarchy &hierarchy, const CleanupJob &job,
                        Cycle older_drain)
{
    ++squashes_;
    const Cycle squash = job.squashCycle;

    if (mode_ == CleanupMode::UnsafeBaseline) {
        // No rollback: the transient footprint persists — the very
        // vulnerability CleanupSpec exists to close. Just drop the
        // speculative markings (the installer will never commit).
        for (const auto &record : job.landed)
            hierarchy.dropSpeculativeMark(record, true, true);
        for (const auto &record : job.inflight)
            hierarchy.dropSpeculativeMark(record, true, true);
        lastStall_ = 0;
        // clearLog keeps capacity, so warm trials append heap-free.
        if (logEnabled_)
            // lint-ok(steady-alloc): reserved after warm-up
            log_.push_back({squash, 0, 0, 0, 0, 0, 0});
        return squash;
    }

    if (mode_ == CleanupMode::SafeSpec ||
        mode_ == CleanupMode::CacheSquash) {
        // Shadow-structure defenses: the transient footprint never
        // entered the caches, so there is no state walk whose duration
        // could depend on it. Discarding a shadow entry (SafeSpec) or
        // cancelling a parked MSHR fill (CacheSquash) is fixed-cost
        // bookkeeping — the squash stalls zero cycles either way, and
        // the unXpec rollback-timing channel measures nothing.
        for (const auto &record : job.pending) {
            if (record.shadow && hierarchy.discardShadow(record))
                ++shadowDiscards_;
            if (record.mshrOnly && hierarchy.cancelPendingFill(record))
                ++mshrCancels_;
        }
        lastStall_ = 0;
        if (logEnabled_) {
            // lint-ok(steady-alloc): clearLog keeps capacity
            log_.push_back({squash, 0, 0, 0, 0,
                            static_cast<unsigned>(job.pending.size()), 0});
        }
        return squash;
    }

    // All rollback events are stamped at the squash cycle (the state
    // walk is modeled as atomic; only its *duration* is timed), so the
    // trace shows begin -> per-line work -> end as one tight group.
    const bool tracing = tracer_ != nullptr &&
                         tracer_->enabled(kTraceCatCleanup);
    if (tracing && !job.empty()) {
        tracer_->instantAt(squash, TraceKind::RollbackBegin, kSeqNone,
                           kAddrInvalid,
                           job.landed.size() + job.inflight.size());
    }

    // --- T3: scrub inflight transient fills --------------------------
    for (const auto &record : job.inflight) {
        hierarchy.undoInflight(record);
        hierarchy.undoSnoopDowngrade(record);
        ++inflightDrops_;
        if (tracing) {
            tracer_->instantAt(squash, TraceKind::InflightScrub,
                               record.seq, record.lineAddr);
        }
    }

    // --- T5 state rollback for landed fills --------------------------
    // SpecBox labels live in both levels; its flash-clear drops them
    // everywhere (the timing shortcut below is what makes it free).
    const bool invalidate_l2 = mode_ == CleanupMode::Cleanup_FOR_L1L2 ||
                               mode_ == CleanupMode::SpecBox;
    unsigned l1_inv = 0;
    unsigned l2_inv = 0;
    for (const auto &record : job.landed) {
        std::uint16_t touched = 0;
        if (record.l1Installed &&
            hierarchy.cleanupInvalidateL1(record)) {
            ++l1_inv;
            touched |= kTraceFlagL1;
        }
        if (record.l2Installed) {
            if (invalidate_l2) {
                if (hierarchy.cleanupInvalidateL2(record)) {
                    ++l2_inv;
                    touched |= kTraceFlagL2;
                }
            } else {
                // Cleanup_FOR_L1: L2 keeps the line (it relies on the
                // randomized index instead); just unmark it — the L2
                // residue the unxpec-probe receiver reads (paper §VI-B).
                hierarchy.dropSpeculativeMark(record, false, true);
            }
        }
        hierarchy.l1d().mshr().squash(record.lineAddr);
        hierarchy.l2().mshr().squash(record.lineAddr);
        // The squashed access never architecturally happened: restore
        // the remote owner its snoop had downgraded (otherwise the
        // downgrade itself leaks the transient access cross-core).
        hierarchy.undoSnoopDowngrade(record);
        if (tracing && touched != 0) {
            tracer_->instantAt(squash, TraceKind::RollbackInvalidate,
                               record.seq, record.lineAddr, 0, 0, touched);
        }
    }

    unsigned restored = 0;
    for (const auto &record : job.restores) {
        hierarchy.cleanupRestoreL1(record, squash);
        ++restored;
        if (tracing) {
            tracer_->instantAt(squash, TraceKind::RollbackRestore,
                               record.seq, record.l1Victim, 0, 0,
                               kTraceFlagL1);
        }
    }

    invalidationsL1_ += l1_inv;
    invalidationsL2_ += l2_inv;
    restores_ += restored;

    if (mode_ == CleanupMode::SpecBox) {
        // Label flash-clear: every tagged line drops in one broadcast,
        // a gang-clear of the label bits — constant (zero) cost no
        // matter how many lines carried a label. The state walk above
        // models the *effect* of the clear; its cost never reaches the
        // core.
        lastStall_ = 0;
        if (logEnabled_) {
            // lint-ok(steady-alloc): clearLog keeps capacity
            log_.push_back({squash, 0, l1_inv, l2_inv, restored,
                            static_cast<unsigned>(job.inflight.size()), 0});
        }
        return squash;
    }

    // --- timing --------------------------------------------------------
    Cycle start = squash;
    // T4: wait out inflight correct-path loads before touching state.
    if (l1_inv + l2_inv + restored > 0)
        start = std::max(start, older_drain);

    double duration = rollbackDuration(l1_inv, l2_inv, restored);
    if (duration == 0.0 && !job.inflight.empty())
        duration = timing_.mshrCleanCost;
    Cycle stall_until =
        start + static_cast<Cycle>(std::llround(duration));

    // The countermeasures below only make sense for Undo schemes:
    // Invisible squashes have no rollback whose timing could leak.
    const bool undo_scheme = mode_ == CleanupMode::Cleanup_FOR_L1 ||
                             mode_ == CleanupMode::Cleanup_FOR_L1L2;

    // Relaxed constant-time rollback: stall at least the constant,
    // longer when the real rollback needs it (§VI-E).
    if (undo_scheme && timing_.constantTimeCycles > 0) {
        const Cycle const_until = squash + timing_.constantTimeCycles;
        if (const_until > stall_until) {
            extraConstCycles_ += const_until - stall_until;
            stall_until = const_until;
        }
    }

    // Fuzzy dummy-cleanup mitigation (§VII): random extra rollback
    // noise on every squash.
    if (undo_scheme && timing_.fuzzyMaxCycles > 0)
        stall_until += rng_.range(timing_.fuzzyMaxCycles + 1);

    if (stall_until > squash) {
        ++cleanupEvents_;
        cleanupCycles_ += stall_until - squash;
        if (tracing) {
            // The whole stall as one span ending at stall_until; the
            // exporter renders it as [squash, stall_until] on the
            // cleanup track. A zero-footprint squash (the unXpec
            // secret=0 case) emits nothing — the absent span *is* the
            // timing channel, now visible.
            tracer_->span(TraceKind::RollbackEnd, stall_until,
                          stall_until - squash, kSeqNone, kAddrInvalid,
                          l1_inv + l2_inv + restored);
        }
    }
    lastStall_ = stall_until - squash;
    if (logEnabled_) {
        // lint-ok(steady-alloc): clearLog keeps capacity (warm trials)
        log_.push_back({squash, lastStall_, l1_inv, l2_inv, restored,
                        static_cast<unsigned>(job.inflight.size()),
                        start - squash});
    }
    return stall_until;
}

} // namespace unxpec
