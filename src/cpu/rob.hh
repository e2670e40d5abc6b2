/**
 * @file
 * Reorder buffer. Entries are assigned consecutive sequence numbers at
 * dispatch and live in a slot array the ROB owns: the entry `seq` sits
 * in slot headSlot + (seq - headSeq), wrapped by one compare-and-
 * subtract, and keeps that slot for its whole lifetime. Squash removes
 * every entry younger than the mispredicted branch and hands them back
 * (still in their slots) so the cleanup engine can inspect their
 * memory records.
 *
 * Dispatch is in place: claim() resets the free slot after the
 * youngest entry, the core fills the entry where it lies, and admit()
 * puts it in flight. No RobEntry is built elsewhere and copied in.
 *
 * Hot-path layout: alongside the slots the ROB keeps six per-slot
 * bitsets, one bit per slot (capacity / 64 words each): unissued
 * entries, ready unissued entries, issued-but-not-done entries,
 * in-flight stores/fences, pending (not-done) memory ops, and
 * unresolved conditional branches. Insert and erase are one bit
 * operation each. The per-cycle pipeline loops (issue, writeback,
 * load gating) walk a bitset oldest-first: from the head slot's bit to
 * the end of the array, then from slot 0 up to the head, reading each
 * word once as they reach it. That is ascending seq, the order the old
 * full ROB scans used, so issue, forwarding and squash decisions are
 * bit-identical. The sets are maintained by admit/popFront/squash and
 * the markIssued/markDone/park funnels; the auditor compares each one,
 * in walk order, against a full scan of the entries.
 *
 * Wakeup is eager and dependency-driven, for operands and for memory
 * ordering alike. Every entry owns one row of a dependent bitmap (one
 * bit per slot, indexed by the entry's own slot). A consumer
 * dispatched with a not-yet-done producer sets its bit in the
 * producer's row. An operand-ready entry that tickIssue finds blocked
 * by an older, not-yet-done entry (a load behind a store or fence, a
 * clflush behind a branch or memory op, a fence behind a memory op, an
 * rdtscp behind anything older) is *parked*: park() records the
 * blocker in RobEntry::orderBlocker, clears the entry's ready bit, and
 * sets its bit in the blocker's row.
 *
 * An rdtscp, fence or clflush issues only once *every* older blocker
 * of its kind is done, so it parks on the youngest one (the
 * youngest…Before queries, one backward walk over the slot sets). The
 * last blocker to finish wakes it, in writeback, before issue, in the
 * same cycle, so its issue cycle is the one any blocker choice gives;
 * the youngest is usually that last one, so one park replaces a park
 * per older blocker. A load keeps parking on LoadGateResult::blocker,
 * the oldest not-done store or fence before it: its gate looks at the
 * older stores in turn (forwarding, partial overlap), and the
 * load-blocked trace event, recorded once per park, is pinned by the
 * trace tests.
 *
 * markDone walks only the finished entry's row, copies its result
 * into waiting consumers, clears matching orderBlockers, and sets the
 * ready bit of every entry with nothing left to wait for. So tickIssue
 * sees only entries that may issue this cycle, plus the few whose wait
 * ends on a time or a commit rather than on a markDone (a partially
 * overlapped load, a delay-on-miss speculative L1 miss), which it
 * re-checks per cycle.
 * Skipping an entry while its blocker is not done changes no
 * decision: a blocker stays blocking until its markDone, and blocked
 * entries take no issue slot.
 *
 * A blocker is always older than what it blocks, so a squash that
 * removes the blocker removes the parked entry too. Stale bits left by
 * squashed consumers are harmless: a wake checks that the slot's
 * current occupant really names this producer (as an operand or as
 * its orderBlocker) before touching it, and a slot's row is zeroed
 * when a new entry is admitted into the slot.
 */

#ifndef UNXPEC_CPU_ROB_HH
#define UNXPEC_CPU_ROB_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "cpu/isa.hh"
#include "memory/hierarchy.hh"
#include "sim/annotate.hh"
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
     * Entries at consecutive positions (offsets from the head slot),
     * oldest first. A range of squashed entries stays valid until the
     * next claim() or clear().
     */
    template <bool Const>
    class Range
    {
      public:
        using Rob =
            std::conditional_t<Const, const ReorderBuffer, ReorderBuffer>;
        using Ref = std::conditional_t<Const, const RobEntry &, RobEntry &>;

        class iterator
        {
          public:
            iterator(Rob *rob, std::size_t offset)
                : rob_(rob), offset_(offset)
            {
            }

            Ref operator*() const { return rob_->at(offset_); }
            auto *operator->() const { return &rob_->at(offset_); }

            iterator &
            operator++()
            {
                ++offset_;
                return *this;
            }

            bool
            operator==(const iterator &other) const
            {
                return offset_ == other.offset_;
            }

          private:
            Rob *rob_;
            std::size_t offset_;
        };

        Range(Rob *rob, std::size_t first, std::size_t count)
            : rob_(rob), first_(first), count_(count)
        {
        }

        iterator begin() const { return {rob_, first_}; }
        iterator end() const { return {rob_, first_ + count_}; }
        std::size_t size() const { return count_; }
        bool empty() const { return count_ == 0; }
        Ref operator[](std::size_t i) const { return rob_->at(first_ + i); }

      private:
        Rob *rob_;
        std::size_t first_;
        std::size_t count_;
    };

    /**
     * Every container is sized to `capacity` at construction — a warm
     * ROB performs no steady-state heap traffic.
     */
    explicit ReorderBuffer(unsigned capacity);

    bool full() const { return count_ >= capacity_; }
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }
    unsigned capacity() const { return capacity_; }

    /**
     * In-place dispatch, step one: reset the free slot after the
     * youngest entry to a default RobEntry carrying `seq` and return
     * it for the caller to fill. `seq` must follow the youngest
     * entry's (any seq when the ROB is empty) and the ROB must not be
     * full. The entry is not in flight — find() does not see it —
     * until admit().
     */
    UNXPEC_TRANSITION("spec")
    RobEntry &claim(SeqNum seq);

    /**
     * In-place dispatch, step two: put the claimed entry in flight and
     * set its bits in the slot sets its flags call for. Instructions
     * that complete at dispatch (NOP/HALT/JMP) arrive issued and done.
     */
    UNXPEC_TRANSITION("spec")
    RobEntry &admit();

    /** Append a ready-made entry: claim, copy, admit. */
    RobEntry &
    push(const RobEntry &entry)
    {
        claim(entry.seq) = entry;
        return admit();
    }

    /** Oldest entry. */
    RobEntry &front() { return slots_[headSlot_]; }
    const RobEntry &front() const { return slots_[headSlot_]; }

    /** Retire the oldest entry. */
    UNXPEC_TRANSITION("commit")
    void popFront();

    /** Entry for a sequence number, nullptr if not in flight. */
    RobEntry *
    find(SeqNum seq)
    {
        // A seq older than the head wraps to a huge offset.
        const SeqNum offset = seq - headSeq_;
        return offset < count_ ? &at(offset) : nullptr;
    }

    const RobEntry *
    find(SeqNum seq) const
    {
        return const_cast<ReorderBuffer *>(this)->find(seq);
    }

    /**
     * Remove every entry younger than `seq` and return them
     * oldest-first. The entries stay in their slots, so the returned
     * range is valid until the next claim() or clear().
     */
    UNXPEC_ROLLBACK("*")
    Range<true> squashYoungerThan(SeqNum seq);

    /**
     * Mark an entry issued. Must be used instead of writing
     * entry.issued so the slot sets stay coherent.
     */
    UNXPEC_TRANSITION("spec")
    void markIssued(RobEntry &entry);

    /** Mark an entry done (same contract as markIssued). */
    UNXPEC_TRANSITION("spec")
    void markDone(RobEntry &entry);

    /**
     * Park the operand-ready, unissued `entry` on `blocker`, an older
     * entry that is not done: the entry leaves the ready set and
     * returns to it when markDone(blocker) runs (see file comment).
     */
    UNXPEC_TRANSITION("spec")
    void park(RobEntry &entry, SeqNum blocker);

    /** True when a not-yet-done conditional branch older than `seq`
     *  exists. */
    bool
    olderUnresolvedBranch(SeqNum seq) const
    {
        return oldest(unresolvedBranches_) < seq;
    }

    /** True when a not-yet-done memory operation older than `seq`
     *  exists (the fence/clflush readiness check). */
    bool
    olderPendingMem(SeqNum seq) const
    {
        return oldest(pendingMem_) < seq;
    }

    // Youngest blocker older than the in-flight entry `seq`, kSeqNone
    // when there is none: the entry an RDTSCP, a FENCE or a CLFLUSH
    // parks on (see file comment).

    /** Youngest older entry that is not done (unissued or
     *  outstanding). */
    SeqNum
    youngestNotDoneBefore(SeqNum seq) const
    {
        return youngestBefore(seq, [this](std::size_t w) {
            return unissued_[w] | outstanding_[w];
        });
    }

    /** Youngest older pending (not-done) memory operation. */
    SeqNum
    youngestPendingMemBefore(SeqNum seq) const
    {
        return youngestBefore(
            seq, [this](std::size_t w) { return pendingMem_[w]; });
    }

    /** Youngest older unresolved conditional branch. */
    SeqNum
    youngestUnresolvedBranchBefore(SeqNum seq) const
    {
        return youngestBefore(
            seq, [this](std::size_t w) { return unresolvedBranches_[w]; });
    }

    /** True when the ready unissued set is not empty: tickIssue has
     *  an entry to issue or a time- or commit-bound wait to re-check. */
    bool
    anyReadyUnissued() const
    {
        return oldest(readyUnissued_) != kSeqNone;
    }

    /** In-flight memory operations (LSQ occupancy). */
    unsigned memCount() const { return memCount_; }

    /**
     * Visit, oldest first, the unissued entries whose operands are
     * both ready and that are not parked — the only entries tickIssue
     * has to look at. Kept current by the eager wakeup (see file
     * comment). `visit(RobEntry &)` returns false to stop the walk; it
     * may take the visited entry out of the set (markIssued, park).
     */
    template <typename Visit>
    void
    forEachReadyUnissued(Visit &&visit)
    {
        walk(readyUnissued_,
             [&](std::size_t slot) { return visit(slots_[slot]); });
    }

    /** Visit the issued-but-not-done entries oldest first (writeback;
     *  same contract as forEachReadyUnissued, with markDone). A
     *  visitor that squashes younger entries must stop the walk. */
    template <typename Visit>
    void
    forEachOutstanding(Visit &&visit)
    {
        walk(outstanding_,
             [&](std::size_t slot) { return visit(slots_[slot]); });
    }

    template <typename Visit>
    void
    forEachOutstanding(Visit &&visit) const
    {
        walk(outstanding_,
             [&](std::size_t slot) { return visit(slots_[slot]); });
    }

    /** Visit every in-flight store and fence oldest first (load gating
     *  and forwarding walk these instead of the whole ROB). */
    template <typename Visit>
    void
    forEachStoreFence(Visit &&visit) const
    {
        walk(storeFences_,
             [&](std::size_t slot) { return visit(slots_[slot]); });
    }

    /**
     * Cross-check every slot set against a full scan of the entries
     * (sim/audit.hh): no bit for a slot outside the live range, and
     * each set, walked oldest first, element-for-element identical to
     * the reference model. Throws AuditError on divergence.
     */
    void auditInvariants(Cycle now) const;

    /**
     * Event tracer for instruction-lifecycle events (nullptr = off).
     * The admit/markIssued/markDone/popFront/squash funnels stamp
     * dispatch/issue/writeback/commit/squash events through it; the
     * owning Core keeps the tracer's cycle current.
     */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }
    Tracer *tracer() const { return tracer_; }

    UNXPEC_TRANSITION("reset")
    void clear();

    // Range-for over the in-flight entries, oldest first.
    Range<false>::iterator begin() { return {this, 0}; }
    Range<false>::iterator end() { return {this, count_}; }
    Range<true>::iterator begin() const { return {this, 0}; }
    Range<true>::iterator end() const { return {this, count_}; }

  private:
    using SlotSet = std::vector<std::uint64_t>;

    /** Slot `offset` positions after the head (offset < capacity). */
    std::size_t
    slotAt(std::size_t offset) const
    {
        const std::size_t slot = headSlot_ + offset;
        return slot >= capacity_ ? slot - capacity_ : slot;
    }

    /** Position of `slot` counted from the head slot. */
    std::size_t
    offsetOf(std::size_t slot) const
    {
        return slot >= headSlot_ ? slot - headSlot_
                                 : slot + capacity_ - headSlot_;
    }

    RobEntry &at(std::size_t offset) { return slots_[slotAt(offset)]; }
    const RobEntry &
    at(std::size_t offset) const
    {
        return slots_[slotAt(offset)];
    }

    /** Slot an entry lives in (entries never move). */
    std::size_t
    slotOf(const RobEntry &entry) const
    {
        return static_cast<std::size_t>(&entry - slots_.data());
    }

    static void
    setSlot(SlotSet &set, std::size_t slot)
    {
        set[slot / 64] |= std::uint64_t{1} << (slot % 64);
    }

    static void
    clearSlot(SlotSet &set, std::size_t slot)
    {
        set[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    }

    static bool
    testSlot(const SlotSet &set, std::size_t slot)
    {
        return (set[slot / 64] >> (slot % 64)) & 1;
    }

    /**
     * Call `visit(slot)` for every slot in `set`, oldest first: the
     * head word from the head slot up, the words after it, the words
     * before it, then the head word below the head slot. Each word is
     * read when the walk reaches it, so the visitor may clear the bit
     * it is visiting (but no bit it has yet to visit). Stops when
     * `visit` returns false.
     */
    template <typename Visit>
    void
    walk(const SlotSet &set, Visit &&visit) const
    {
        const std::size_t head_word = headSlot_ / 64;
        const std::uint64_t head_mask = ~std::uint64_t{0}
                                        << (headSlot_ % 64);
        std::size_t w = head_word;
        std::uint64_t word = set[w] & head_mask;
        for (std::size_t step = 0;; ++step) {
            while (word != 0) {
                const unsigned bit =
                    static_cast<unsigned>(__builtin_ctzll(word));
                word &= word - 1;
                if (!visit(w * 64 + bit))
                    return;
            }
            if (step == maskWords_)
                return;
            w = w + 1 == maskWords_ ? 0 : w + 1;
            word = set[w];
            if (w == head_word)
                word &= ~head_mask;
        }
    }

    /** Seq of the oldest entry in `set`, kSeqNone when empty. */
    SeqNum
    oldest(const SlotSet &set) const
    {
        SeqNum seq = kSeqNone;
        walk(set, [&](std::size_t slot) {
            seq = slots_[slot].seq;
            return false;
        });
        return seq;
    }

    /**
     * Seq of the youngest entry older than the in-flight entry `seq`
     * whose bit is set in `word(w)`, the w-th word of one slot set or
     * of several OR-ed together; kSeqNone when there is none. The
     * backward twin of walk: from the slot before `seq`'s down to the
     * head slot, across the wrap when `seq`'s slot lies below the
     * head's, one word at a time.
     */
    template <typename Word>
    SeqNum
    youngestBefore(SeqNum seq, Word &&word) const
    {
        const std::size_t offset = static_cast<std::size_t>(seq - headSeq_);
        if (offset == 0)
            return kSeqNone;
        const std::size_t slot = slotAt(offset);
        std::size_t found;
        if (slot > headSlot_) {
            found = highestIn(word, headSlot_, slot);
        } else {
            found = highestIn(word, 0, slot);
            if (found == kNoSlot)
                found = highestIn(word, headSlot_, capacity_);
        }
        return found == kNoSlot ? kSeqNone : slots_[found].seq;
    }

    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    /** Highest slot in [lo, hi) whose bit is set in `word(w)`, kNoSlot
     *  when there is none (or the range is empty). */
    template <typename Word>
    static std::size_t
    highestIn(Word &word, std::size_t lo, std::size_t hi)
    {
        if (lo >= hi)
            return kNoSlot;
        const std::size_t lo_word = lo / 64;
        std::size_t w = (hi - 1) / 64;
        std::uint64_t bits = word(w) & (~std::uint64_t{0} >>
                                        (63 - (hi - 1) % 64));
        for (;;) {
            if (w == lo_word)
                bits &= ~std::uint64_t{0} << (lo % 64);
            if (bits != 0) {
                return w * 64 + 63 -
                       static_cast<unsigned>(__builtin_clzll(bits));
            }
            if (w == lo_word)
                return kNoSlot;
            bits = word(--w);
        }
    }

    /** Clear `slot` in every slot set (squash). */
    void dropSlot(std::size_t slot);

    /** Set `consumer`'s bit in the dependent row of `producer`. */
    void
    addDependent(std::size_t producer_slot, std::size_t consumer_slot)
    {
        depMask_[producer_slot * maskWords_ + consumer_slot / 64] |=
            std::uint64_t{1} << (consumer_slot % 64);
    }

    /** Register `entry` in the dependent bitmap of each not-ready
     *  operand's producer (dispatch side of the eager wakeup). */
    void registerDependents(const RobEntry &entry);

    /** Deliver `producer`'s result to every registered dependent,
     *  release entries parked on it, and set the ready bit of those
     *  with nothing left to wait for. */
    void wakeDependents(const RobEntry &producer);

    /** Wake the occupant of `slot`, if it is live and actually names
     *  `producer` (stale bits are skipped). */
    void wakeSlot(std::size_t slot, const RobEntry &producer);

    unsigned capacity_;
    /** 64-bit words per slot set and per dependent row. */
    std::size_t maskWords_;
    std::vector<RobEntry> slots_;
    std::size_t headSlot_ = 0;
    std::size_t count_ = 0;
    /** Seq of the entry in the head slot (meaningful when count_ > 0). */
    SeqNum headSeq_ = 0;

    // Per-slot bitsets (see file comment), maskWords_ words each. Each
    // marks in-flight (hence possibly speculative) entries that
    // squashYoungerThan must drop exactly — speculative state under
    // the speccheck contract, cross-checked dynamically by
    // auditInvariants.
    UNXPEC_SPEC_STATE SlotSet unissued_;
    /** Unissued entries with both operands ready and not parked. */
    UNXPEC_SPEC_STATE SlotSet readyUnissued_;
    UNXPEC_SPEC_STATE SlotSet outstanding_;
    UNXPEC_SPEC_STATE SlotSet storeFences_;
    UNXPEC_SPEC_STATE SlotSet pendingMem_;
    UNXPEC_SPEC_STATE SlotSet unresolvedBranches_;
    /**
     * Dependent bitmaps: row `slot` holds one bit per slot whose
     * occupant waits on that slot's entry (for an operand, or parked
     * on it). The whole table is capacity * maskWords_ words, a row
     * zeroed when admit() gives its slot a new entry.
     */
    UNXPEC_SPEC_STATE std::vector<std::uint64_t> depMask_;
    UNXPEC_SPEC_STATE unsigned memCount_ = 0;
    Tracer *tracer_ = nullptr;

    /** Test-only corruption hook for proving the auditor fires. */
    friend struct AuditTap;
};

} // namespace unxpec

#endif // UNXPEC_CPU_ROB_HH
