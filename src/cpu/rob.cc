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

RobEntry &
ReorderBuffer::push(RobEntry entry)
{
    if (full())
        panic("ReorderBuffer::push on full ROB");
    if (!entries_.empty() && entry.seq != entries_.back().seq + 1)
        panic("ReorderBuffer::push: non-consecutive sequence number");

    // This entry now owns ring slot seq % capacity: clear whatever
    // dependent bits a squashed or committed former occupant left in
    // the slot's producer row.
    std::fill_n(depMask_.begin() +
                    (entry.seq % capacity_) * maskWords_,
                maskWords_, 0);

    // Entries arrive in ascending seq order, so plain appends keep
    // every side list sorted. Instructions that complete at dispatch
    // (NOP/HALT/JMP) arrive already issued+done and join no list.
    // Every list is reserved to ROB capacity, which bounds its size.
    if (!entry.issued) {
        unissued_.push_back(entry.seq); // lint-ok(steady-alloc): reserved
        if (entry.srcReady[0] && entry.srcReady[1])
            // lint-ok(steady-alloc): reserved
            readyUnissued_.push_back(entry.seq);
        else
            registerDependents(entry);
    } else if (!entry.done)
        outstanding_.push_back(entry.seq); // lint-ok(steady-alloc): reserved
    const Opcode op = entry.inst.op;
    if (isMem(op)) {
        ++memCount_;
        if (!entry.done)
            pendingMem_.push_back(entry.seq); // lint-ok(steady-alloc): reserved
    }
    if (isStore(op) || op == Opcode::FENCE)
        storeFences_.push_back(entry.seq); // lint-ok(steady-alloc): reserved
    if (isCondBranch(op) && !entry.done)
        // lint-ok(steady-alloc): reserved
        unresolvedBranches_.push_back(entry.seq);

    entries_.push_back(std::move(entry)); // lint-ok(steady-alloc): ring
    traceLifecycle(tracer_, TraceKind::Dispatch, entries_.back());
    return entries_.back();
}

void
ReorderBuffer::popFront()
{
    const RobEntry &head = entries_.front();
    const Opcode op = head.inst.op;
    // Commit retires only done entries, so the pending/unissued/
    // outstanding lists cannot contain the head; the all-stores list
    // and the mem count can.
    if (isMem(op))
        --memCount_;
    if (!storeFences_.empty() && storeFences_.front() == head.seq)
        storeFences_.erase(storeFences_.begin());
    traceLifecycle(tracer_, TraceKind::Commit, head);
    entries_.pop_front();
}

void
ReorderBuffer::markIssued(RobEntry &entry)
{
    entry.issued = true;
    eraseSeq(unissued_, entry.seq);
    eraseSeq(readyUnissued_, entry.seq);
    if (!entry.done) {
        const auto it = std::lower_bound(outstanding_.begin(),
                                         outstanding_.end(), entry.seq);
        outstanding_.insert(it, entry.seq); // lint-ok(steady-alloc): reserved
    }
    traceLifecycle(tracer_, TraceKind::Issue, entry);
}

void
ReorderBuffer::markDone(RobEntry &entry)
{
    entry.done = true;
    eraseSeq(outstanding_, entry.seq);
    if (isMem(entry.inst.op))
        eraseSeq(pendingMem_, entry.seq);
    if (isCondBranch(entry.inst.op))
        eraseSeq(unresolvedBranches_, entry.seq);
    wakeDependents(entry);
    traceLifecycle(tracer_, TraceKind::Writeback, entry);
}

void
ReorderBuffer::park(RobEntry &entry, SeqNum blocker)
{
    entry.orderBlocker = blocker;
    eraseSeq(readyUnissued_, entry.seq);
    addDependent(blocker, entry.seq);
}

void
ReorderBuffer::registerDependents(const RobEntry &entry)
{
    for (unsigned slot = 0; slot < 2; ++slot) {
        // The producer is live and not done (dispatch captures done
        // producers' values directly), so its row is current.
        if (!entry.srcReady[slot])
            addDependent(entry.producer[slot], entry.seq);
    }
}

void
ReorderBuffer::wakeDependents(const RobEntry &producer)
{
    const std::size_t row = (producer.seq % capacity_) * maskWords_;
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
    if (entries_.empty())
        return;
    // Recover the live seq occupying this ring slot; a squashed
    // consumer leaves a stale bit pointing at a dead (or reused) slot.
    const SeqNum front = entries_.front().seq;
    const std::size_t offset =
        (slot + capacity_ - front % capacity_) % capacity_;
    if (offset >= entries_.size())
        return;
    RobEntry &consumer = entries_[offset];
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
        const auto it = std::lower_bound(readyUnissued_.begin(),
                                         readyUnissued_.end(),
                                         consumer.seq);
        // lint-ok(steady-alloc): reserved
        readyUnissued_.insert(it, consumer.seq);
    }
}

const std::vector<RobEntry> &
ReorderBuffer::squashYoungerThan(SeqNum seq)
{
    // Reuse the scratch buffer (reserved to ROB capacity at
    // construction): the squash path runs once per misprediction and
    // must stay allocation-free.
    squashScratch_.clear();
    while (!entries_.empty() && entries_.back().seq > seq) {
        if (isMem(entries_.back().inst.op))
            --memCount_;
        // lint-ok(steady-alloc): reserved
        squashScratch_.push_back(std::move(entries_.back()));
        entries_.pop_back();
    }
    trimYoungerThan(unissued_, seq);
    trimYoungerThan(readyUnissued_, seq);
    trimYoungerThan(outstanding_, seq);
    trimYoungerThan(storeFences_, seq);
    trimYoungerThan(pendingMem_, seq);
    trimYoungerThan(unresolvedBranches_, seq);
    // Return them oldest-first for readability downstream.
    std::reverse(squashScratch_.begin(), squashScratch_.end());
    for (const RobEntry &entry : squashScratch_)
        traceLifecycle(tracer_, TraceKind::Squash, entry);
    return squashScratch_;
}

void
ReorderBuffer::clear()
{
    entries_.clear();
    unissued_.clear();
    outstanding_.clear();
    storeFences_.clear();
    pendingMem_.clear();
    unresolvedBranches_.clear();
    squashScratch_.clear();
    readyUnissued_.clear();
    std::fill(depMask_.begin(), depMask_.end(), 0);
    memCount_ = 0;
}

} // namespace unxpec
