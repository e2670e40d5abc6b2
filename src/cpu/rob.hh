/**
 * @file
 * Reorder buffer. Entries are assigned consecutive sequence numbers at
 * dispatch, so lookup by sequence number is O(1) relative to the head.
 * Squash removes every entry younger than the mispredicted branch and
 * returns them so the cleanup engine can inspect their memory records.
 *
 * Hot-path layout: alongside the entry deque the ROB maintains small
 * seq-ascending side lists — unissued entries, issued-but-not-done
 * entries, in-flight stores/fences, pending (not-done) memory ops, and
 * unresolved conditional branches. The per-cycle pipeline loops (issue,
 * writeback, load gating, fence checks) walk these lists instead of
 * scanning every fat RobEntry, which turns the dominant O(ROB)-per-
 * cycle scans into O(relevant-entries). The lists are maintained by
 * push/popFront/squash and the markIssued/markDone/park funnels; the
 * iteration order (ascending seq) matches the old full scans exactly,
 * so issue, forwarding, and squash decisions are bit-identical.
 *
 * Wakeup is eager and dependency-driven, for operands and for memory
 * ordering alike. Every entry owns one row of a dependent bitmap (one
 * bit per ring slot; slot = seq mod capacity, which is stable for an
 * entry's lifetime). A consumer dispatched with a not-yet-done
 * producer sets its bit in the producer's row. An operand-ready entry
 * that tickIssue finds blocked by an older, not-yet-done entry (a load
 * behind a store or fence, a clflush behind a branch or memory op, a
 * fence behind a memory op, an rdtscp behind anything older) is
 * *parked*: park() records the blocker in RobEntry::orderBlocker,
 * takes the entry off readyUnissued_, and sets its bit in the
 * blocker's row. markDone walks only the finished entry's row, copies
 * its result into waiting consumers, clears matching orderBlockers,
 * and puts every entry with nothing left to wait for back on
 * readyUnissued_ in seq order. So tickIssue sees only entries that
 * may issue this cycle, plus the few whose wait ends on a time or a
 * commit rather than on a markDone (a partially overlapped load, a
 * delay-on-miss speculative L1 miss), which it re-checks per cycle.
 * Skipping an entry while its blocker is not done changes no
 * decision: a blocker stays blocking until its markDone, and blocked
 * entries take no issue slot.
 *
 * A blocker is always older than what it blocks, so a squash that
 * removes the blocker removes the parked entry too. Stale bits left by
 * squashed consumers are harmless: a wake checks that the slot's
 * current occupant really names this producer (as an operand or as
 * its orderBlocker) before touching it, and a slot's row is zeroed
 * when a new entry claims the slot.
 */

#ifndef UNXPEC_CPU_ROB_HH
#define UNXPEC_CPU_ROB_HH

#include <algorithm>
#include <vector>

#include "cpu/isa.hh"
#include "memory/hierarchy.hh"
#include "sim/annotate.hh"
#include "sim/ring_queue.hh"
#include "sim/types.hh"

namespace unxpec {

class Tracer;

/** One in-flight instruction. */
struct RobEntry
{
    SeqNum seq = kSeqNone;
    std::size_t pc = 0;
    Instruction inst;

    // Operand capture: value is valid once the producer is done;
    // producer == kSeqNone means the value was read from the register
    // file at dispatch.
    SeqNum producer[2] = {kSeqNone, kSeqNone};
    bool srcReady[2] = {true, true};
    std::uint64_t srcValue[2] = {0, 0};

    bool issued = false;
    bool done = false;
    Cycle dispatchCycle = 0;
    Cycle issueCycle = 0;
    Cycle readyCycle = kCycleNever;
    std::uint64_t result = 0;

    /** Issued while an older conditional branch was unresolved. */
    UNXPEC_SPEC_STATE bool speculative = false;

    /** Older not-yet-done entry this one is parked on (kSeqNone when
     *  not parked); see ReorderBuffer::park. */
    UNXPEC_SPEC_STATE SeqNum orderBlocker = kSeqNone;

    // Branch bookkeeping.
    bool predictedTaken = false;
    bool resolvedTaken = false;
    bool mispredicted = false;
    std::size_t actualNextPc = 0;

    // Memory bookkeeping.
    bool hasMemRecord = false;
    MemAccessRecord memRecord;
    Addr effAddr = 0;
    std::uint64_t storeValue = 0;
};

/** Circular in-order buffer of in-flight instructions. */
class ReorderBuffer
{
  public:
    /**
     * Every container is sized to `capacity` at construction — a warm
     * ROB performs no steady-state heap traffic.
     */
    explicit ReorderBuffer(unsigned capacity)
        : capacity_(capacity),
          entries_(capacity),
          maskWords_((capacity + 63) / 64)
    {
        // One-time construction sizing; the side lists are bounded by
        // ROB occupancy and never regrow.
        unissued_.reserve(capacity);           // lint-ok(steady-alloc): ctor
        outstanding_.reserve(capacity);        // lint-ok(steady-alloc): ctor
        storeFences_.reserve(capacity);        // lint-ok(steady-alloc): ctor
        pendingMem_.reserve(capacity);         // lint-ok(steady-alloc): ctor
        unresolvedBranches_.reserve(capacity); // lint-ok(steady-alloc): ctor
        squashScratch_.reserve(capacity);      // lint-ok(steady-alloc): ctor
        readyUnissued_.reserve(capacity);      // lint-ok(steady-alloc): ctor
        // lint-ok(steady-alloc): ctor
        depMask_.assign(static_cast<std::size_t>(capacity) * maskWords_, 0);
    }

    bool full() const { return entries_.size() >= capacity_; }
    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }
    unsigned capacity() const { return capacity_; }

    /** Append a new entry (must not be full). */
    UNXPEC_TRANSITION("spec")
    RobEntry &push(RobEntry entry);

    /** Oldest entry. */
    RobEntry &front() { return entries_.front(); }
    const RobEntry &front() const { return entries_.front(); }

    /** Retire the oldest entry. */
    UNXPEC_TRANSITION("commit")
    void popFront();

    /** Entry for a sequence number, nullptr if not in flight. */
    RobEntry *
    find(SeqNum seq)
    {
        if (entries_.empty() || seq < entries_.front().seq ||
            seq > entries_.back().seq) {
            return nullptr;
        }
        return &entries_[seq - entries_.front().seq];
    }

    const RobEntry *
    find(SeqNum seq) const
    {
        return const_cast<ReorderBuffer *>(this)->find(seq);
    }

    /**
     * Remove every entry younger than `seq` and return them
     * oldest-first. The returned reference aliases an internal scratch
     * buffer that is reused (and overwritten) by the next call — the
     * caller must finish with it before squashing again.
     */
    UNXPEC_ROLLBACK("*")
    const std::vector<RobEntry> &squashYoungerThan(SeqNum seq);

    /**
     * Mark an entry issued. Must be used instead of writing
     * entry.issued so the side lists stay coherent.
     */
    UNXPEC_TRANSITION("spec")
    void markIssued(RobEntry &entry);

    /** Mark an entry done (same contract as markIssued). */
    UNXPEC_TRANSITION("spec")
    void markDone(RobEntry &entry);

    /**
     * Park the operand-ready, unissued `entry` on `blocker`, an older
     * entry that is not done: the entry leaves readyUnissued() and
     * returns to it when markDone(blocker) runs (see file comment).
     */
    UNXPEC_TRANSITION("spec")
    void park(RobEntry &entry, SeqNum blocker);

    /** True when a not-yet-done conditional branch older than `seq`
     *  exists. */
    bool
    olderUnresolvedBranch(SeqNum seq) const
    {
        return !unresolvedBranches_.empty() &&
               unresolvedBranches_.front() < seq;
    }

    /** True when a not-yet-done memory operation older than `seq`
     *  exists (the fence/clflush readiness check). */
    bool
    olderPendingMem(SeqNum seq) const
    {
        return !pendingMem_.empty() && pendingMem_.front() < seq;
    }

    /** In-flight memory operations (LSQ occupancy). */
    unsigned memCount() const { return memCount_; }

    /** Seqs of entries not yet issued, ascending (the issue window). */
    const std::vector<SeqNum> &unissued() const { return unissued_; }

    /**
     * Seqs of unissued entries whose operands are both ready and that
     * are not parked, ascending — the only entries tickIssue has to
     * look at. Kept current by the eager wakeup (see file comment):
     * push for entries ready at dispatch, park for entries that wait
     * on an older one, markDone for entries whose last producer or
     * blocker just completed.
     */
    const std::vector<SeqNum> &
    readyUnissued() const
    {
        return readyUnissued_;
    }

    /** Seqs of issued-but-not-done entries, ascending (writeback). */
    const std::vector<SeqNum> &outstanding() const { return outstanding_; }

    /** Seqs of every in-flight store and fence, ascending (load
     *  gating / forwarding walks these instead of the whole ROB). */
    const std::vector<SeqNum> &storeFences() const { return storeFences_; }

    /** Seqs of not-yet-done memory ops, ascending (fence checks). */
    const std::vector<SeqNum> &pendingMem() const { return pendingMem_; }

    /** Seqs of not-yet-done conditional branches, ascending. */
    const std::vector<SeqNum> &
    unresolvedBranches() const
    {
        return unresolvedBranches_;
    }

    /**
     * Cross-check every side list against a full scan of the entry
     * deque (sim/audit.hh): the fast-path issue/writeback/gating
     * candidate sets must be element-for-element identical to the
     * reference model. Throws AuditError on divergence.
     */
    void auditInvariants(Cycle now) const;

    /**
     * Event tracer for instruction-lifecycle events (nullptr = off).
     * The push/markIssued/markDone/popFront/squash funnels stamp
     * dispatch/issue/writeback/commit/squash events through it; the
     * owning Core keeps the tracer's cycle current.
     */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }
    Tracer *tracer() const { return tracer_; }

    UNXPEC_TRANSITION("reset")
    void clear();

    auto begin() { return entries_.begin(); }
    auto end() { return entries_.end(); }
    auto begin() const { return entries_.begin(); }
    auto end() const { return entries_.end(); }

  private:
    static void
    eraseSeq(std::vector<SeqNum> &list, SeqNum seq)
    {
        const auto it = std::lower_bound(list.begin(), list.end(), seq);
        if (it != list.end() && *it == seq)
            list.erase(it);
    }

    static void
    trimYoungerThan(std::vector<SeqNum> &list, SeqNum seq)
    {
        while (!list.empty() && list.back() > seq)
            list.pop_back();
    }

    /** Set `consumer`'s bit in the dependent row of `producer`. */
    void
    addDependent(SeqNum producer, SeqNum consumer)
    {
        const std::size_t slot = consumer % capacity_;
        depMask_[(producer % capacity_) * maskWords_ + slot / 64] |=
            std::uint64_t{1} << (slot % 64);
    }

    /** Register `entry` in the dependent bitmap of each not-ready
     *  operand's producer (dispatch side of the eager wakeup). */
    void registerDependents(const RobEntry &entry);

    /** Deliver `producer`'s result to every registered dependent,
     *  release entries parked on it, and promote those with nothing
     *  left to wait for onto readyUnissued_. */
    void wakeDependents(const RobEntry &producer);

    /** Wake the occupant of ring slot `slot`, if it is live and
     *  actually names `producer` (stale bits are skipped). */
    void wakeSlot(std::size_t slot, const RobEntry &producer);

    unsigned capacity_;
    RingQueue<RobEntry> entries_;

    // Seq-ascending side lists; see file comment. All are reserved to
    // `capacity_` at construction, so the push_back/insert maintenance
    // below never reallocates. Each list carries entries for in-flight
    // (hence possibly speculative) instructions that squashYoungerThan
    // must trim exactly — speculative state under the speccheck
    // contract, cross-checked dynamically by auditInvariants.
    UNXPEC_SPEC_STATE std::vector<SeqNum> unissued_;
    UNXPEC_SPEC_STATE std::vector<SeqNum> outstanding_;
    UNXPEC_SPEC_STATE std::vector<SeqNum> storeFences_;
    UNXPEC_SPEC_STATE std::vector<SeqNum> pendingMem_;
    UNXPEC_SPEC_STATE std::vector<SeqNum> unresolvedBranches_;
    /** Reused return buffer of squashYoungerThan (oldest-first). */
    std::vector<RobEntry> squashScratch_;
    /** Unissued entries with both operands ready and not parked (see
     *  readyUnissued()). */
    UNXPEC_SPEC_STATE std::vector<SeqNum> readyUnissued_;
    /**
     * Dependent bitmaps: row `seq % capacity` holds one bit per ring
     * slot whose occupant waits on that entry (for an operand, or
     * parked on it). maskWords_ 64-bit words per row; the whole table
     * is capacity * maskWords_ words, zeroed row-by-row as slots are
     * reclaimed.
     */
    UNXPEC_SPEC_STATE std::vector<std::uint64_t> depMask_;
    std::size_t maskWords_;
    UNXPEC_SPEC_STATE unsigned memCount_ = 0;
    Tracer *tracer_ = nullptr;

    /** Test-only corruption hook for proving the auditor fires. */
    friend struct AuditTap;
};

} // namespace unxpec

#endif // UNXPEC_CPU_ROB_HH
