#include "cpu/lsq.hh"

#include <algorithm>

#include "sim/trace.hh"

namespace unxpec {

namespace {

/** Gate-decision instant through the ROB's tracer, if attached. */
inline void
traceGate(const ReorderBuffer &rob, TraceKind kind, SeqNum seq, Addr addr)
{
    if (Tracer *tracer = rob.tracer();
        tracer != nullptr && tracer->enabled(kTraceCatCpu)) {
        tracer->instant(kind, seq, lineAlign(addr));
    }
}

} // namespace

LoadGateResult
LoadStoreQueue::gateLoad(const ReorderBuffer &rob, SeqNum seq, Addr addr,
                         unsigned size)
{
    LoadGateResult result;
    // Walk only the in-flight stores and fences, oldest first (the
    // order of a full ROB scan).
    rob.forEachStoreFence([&](const RobEntry &entry) {
        if (entry.seq >= seq)
            return false;
        if (!entry.done) {
            // A pending fence, or a store whose address (or data) is
            // not resolved yet: be conservative until it is done.
            result.gate = LoadGate::Blocked;
            result.blocker = entry.seq;
            return false;
        }
        if (entry.inst.op == Opcode::FENCE)
            return true;
        const Addr store_begin = entry.effAddr;
        const Addr store_end = store_begin + entry.inst.size;
        const Addr load_begin = addr;
        const Addr load_end = addr + size;
        const bool overlap =
            store_begin < load_end && load_begin < store_end;
        if (!overlap)
            return true;
        if (store_begin <= load_begin && load_end <= store_end) {
            // Fully covered: forward (latest older store wins, so keep
            // scanning and overwrite).
            const unsigned shift =
                static_cast<unsigned>(load_begin - store_begin) * 8;
            std::uint64_t value = entry.storeValue >> shift;
            if (size < 8)
                value &= (1ull << (size * 8)) - 1;
            result.gate = LoadGate::Forward;
            result.forwardValue = value;
            return true;
        }
        // Partial overlap: wait for the store to drain.
        result.gate = LoadGate::Blocked;
        return false;
    });
    if (result.gate == LoadGate::Blocked)
        traceGate(rob, TraceKind::LoadBlocked, seq, addr);
    else if (result.gate == LoadGate::Forward)
        traceGate(rob, TraceKind::LoadForward, seq, addr);
    return result;
}

bool
LoadStoreQueue::fenceReady(const ReorderBuffer &rob, SeqNum seq)
{
    return !rob.olderPendingMem(seq);
}

Cycle
LoadStoreQueue::olderLoadsDrainCycle(const ReorderBuffer &rob, SeqNum seq)
{
    // The outstanding set is exactly the issued-but-not-done entries.
    Cycle drain = 0;
    rob.forEachOutstanding([&](const RobEntry &entry) {
        if (entry.seq >= seq)
            return false;
        if (isLoad(entry.inst.op))
            drain = std::max(drain, entry.readyCycle);
        return true;
    });
    return drain;
}

} // namespace unxpec
