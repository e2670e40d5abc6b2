#include "cpu/rob.hh"

#include <algorithm>

#include "sim/log.hh"
#include "sim/trace.hh"

namespace unxpec {

namespace {

/** Lifecycle instant through the ROB's tracer, if one is attached. */
inline void
traceLifecycle(Tracer *tracer, TraceKind kind, const RobEntry &entry)
{
    if (kTraceEnabled && tracer != nullptr &&
        tracer->enabled(kTraceCatCpu)) {
        tracer->instant(kind, entry.seq, kAddrInvalid, entry.pc);
    }
}

} // namespace

ReorderBuffer::ReorderBuffer(unsigned capacity)
    : capacity_(capacity),
      maskWords_((capacity + 63) / 64),
      slots_(capacity),
      unissued_(maskWords_, 0),
      readyUnissued_(maskWords_, 0),
      outstanding_(maskWords_, 0),
      storeFences_(maskWords_, 0),
      pendingMem_(maskWords_, 0),
      unresolvedBranches_(maskWords_, 0),
      depMask_(static_cast<std::size_t>(capacity) * maskWords_, 0)
{
    if (capacity == 0)
        panic("ReorderBuffer: capacity must be positive");
}

RobEntry &
ReorderBuffer::claim(SeqNum seq)
{
    if (full())
        panic("ReorderBuffer::claim on full ROB");
    if (count_ == 0)
        headSeq_ = seq;
    else if (seq != headSeq_ + count_)
        panic("ReorderBuffer::claim: non-consecutive sequence number");
    RobEntry &entry = at(count_);
    entry = RobEntry{};
    entry.seq = seq;
    return entry;
}

RobEntry &
ReorderBuffer::admit()
{
    const std::size_t slot = slotAt(count_);
    RobEntry &entry = slots_[slot];
    ++count_;

    // The entry now owns this slot: clear whatever dependent bits a
    // squashed or committed former occupant left in its producer row.
    std::fill_n(depMask_.begin() + slot * maskWords_, maskWords_, 0);

    if (!entry.issued) {
        setSlot(unissued_, slot);
        if (entry.srcReady[0] && entry.srcReady[1])
            setSlot(readyUnissued_, slot);
        else
            registerDependents(entry);
    } else if (!entry.done) {
        setSlot(outstanding_, slot);
    }
    const Opcode op = entry.inst.op;
    if (isMem(op)) {
        ++memCount_;
        if (!entry.done)
            setSlot(pendingMem_, slot);
    }
    if (isStore(op) || op == Opcode::FENCE)
        setSlot(storeFences_, slot);
    if (isCondBranch(op) && !entry.done)
        setSlot(unresolvedBranches_, slot);

    traceLifecycle(tracer_, TraceKind::Dispatch, entry);
    return entry;
}

void
ReorderBuffer::popFront()
{
    const RobEntry &head = slots_[headSlot_];
    // Commit retires only done entries, so of the slot sets only the
    // stores/fences set can hold the head; the mem count can too.
    if (isMem(head.inst.op))
        --memCount_;
    clearSlot(storeFences_, headSlot_);
    traceLifecycle(tracer_, TraceKind::Commit, head);
    headSlot_ = slotAt(1);
    ++headSeq_;
    --count_;
}

void
ReorderBuffer::markIssued(RobEntry &entry)
{
    const std::size_t slot = slotOf(entry);
    entry.issued = true;
    clearSlot(unissued_, slot);
    clearSlot(readyUnissued_, slot);
    if (!entry.done)
        setSlot(outstanding_, slot);
    traceLifecycle(tracer_, TraceKind::Issue, entry);
}

void
ReorderBuffer::markDone(RobEntry &entry)
{
    const std::size_t slot = slotOf(entry);
    entry.done = true;
    clearSlot(outstanding_, slot);
    clearSlot(pendingMem_, slot);
    clearSlot(unresolvedBranches_, slot);
    wakeDependents(entry);
    traceLifecycle(tracer_, TraceKind::Writeback, entry);
}

void
ReorderBuffer::park(RobEntry &entry, SeqNum blocker)
{
    const std::size_t slot = slotOf(entry);
    entry.orderBlocker = blocker;
    clearSlot(readyUnissued_, slot);
    addDependent(slotOf(*find(blocker)), slot);
}

void
ReorderBuffer::registerDependents(const RobEntry &entry)
{
    for (unsigned src = 0; src < 2; ++src) {
        // The producer is live and not done (dispatch captures done
        // producers' values directly), so its row is current.
        if (!entry.srcReady[src])
            addDependent(slotOf(*find(entry.producer[src])), slotOf(entry));
    }
}

void
ReorderBuffer::wakeDependents(const RobEntry &producer)
{
    const std::size_t row = slotOf(producer) * maskWords_;
    for (std::size_t w = 0; w < maskWords_; ++w) {
        std::uint64_t bits = depMask_[row + w];
        if (bits == 0)
            continue;
        depMask_[row + w] = 0;
        while (bits != 0) {
            const unsigned bit =
                static_cast<unsigned>(__builtin_ctzll(bits));
            bits &= bits - 1;
            wakeSlot(w * 64 + bit, producer);
        }
    }
}

void
ReorderBuffer::wakeSlot(std::size_t slot, const RobEntry &producer)
{
    // A squashed consumer leaves a stale bit pointing at a dead (or
    // reused) slot.
    if (offsetOf(slot) >= count_)
        return;
    RobEntry &consumer = slots_[slot];
    bool woke = false;
    for (unsigned s = 0; s < 2; ++s) {
        if (!consumer.srcReady[s] &&
            consumer.producer[s] == producer.seq) {
            consumer.srcValue[s] = producer.result;
            consumer.srcReady[s] = true;
            woke = true;
        }
    }
    if (consumer.orderBlocker == producer.seq) {
        consumer.orderBlocker = kSeqNone;
        woke = true;
    }
    if (woke && consumer.srcReady[0] && consumer.srcReady[1] &&
        !consumer.issued) {
        setSlot(readyUnissued_, slot);
    }
}

void
ReorderBuffer::dropSlot(std::size_t slot)
{
    clearSlot(unissued_, slot);
    clearSlot(readyUnissued_, slot);
    clearSlot(outstanding_, slot);
    clearSlot(storeFences_, slot);
    clearSlot(pendingMem_, slot);
    clearSlot(unresolvedBranches_, slot);
}

ReorderBuffer::Range<true>
ReorderBuffer::squashYoungerThan(SeqNum seq)
{
    // Entries up to and including `seq` survive.
    const std::size_t keep =
        seq < headSeq_ ? 0
                       : static_cast<std::size_t>(std::min<SeqNum>(
                             count_, seq - headSeq_ + 1));
    for (std::size_t offset = keep; offset < count_; ++offset) {
        if (isMem(at(offset).inst.op))
            --memCount_;
        dropSlot(slotAt(offset));
    }
    const Range<true> squashed(this, keep, count_ - keep);
    count_ = keep;
    for (const RobEntry &entry : squashed)
        traceLifecycle(tracer_, TraceKind::Squash, entry);
    return squashed;
}

void
ReorderBuffer::clear()
{
    headSlot_ = 0;
    count_ = 0;
    headSeq_ = 0;
    std::fill(unissued_.begin(), unissued_.end(), 0);
    std::fill(readyUnissued_.begin(), readyUnissued_.end(), 0);
    std::fill(outstanding_.begin(), outstanding_.end(), 0);
    std::fill(storeFences_.begin(), storeFences_.end(), 0);
    std::fill(pendingMem_.begin(), pendingMem_.end(), 0);
    std::fill(unresolvedBranches_.begin(), unresolvedBranches_.end(), 0);
    std::fill(depMask_.begin(), depMask_.end(), 0);
    memCount_ = 0;
}

} // namespace unxpec
