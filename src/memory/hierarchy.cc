#include "memory/hierarchy.hh"

#include <algorithm>

#include "sim/log.hh"
#include "sim/trace.hh"

namespace unxpec {

namespace {

/** Trace levels stamped on cache events (tracks in the exporter). */
constexpr std::uint8_t kTraceL1I = 0;
constexpr std::uint8_t kTraceL1D = 1;
constexpr std::uint8_t kTraceL2 = 2;

/** Access-summary span: request at `now`, data at `record.ready`. */
inline void
traceAccess(Tracer *tracer, TraceKind kind, std::uint8_t level,
            const MemAccessRecord &record, Cycle now)
{
    if (!(kTraceEnabled && tracer != nullptr &&
          tracer->enabled(kTraceCatCache))) {
        return;
    }
    std::uint16_t flags = 0;
    if (record.write)
        flags |= kTraceFlagWrite;
    if (record.speculative)
        flags |= kTraceFlagSpeculative;
    if (record.invisible)
        flags |= kTraceFlagInvisible;
    tracer->span(kind, now, record.ready - now, record.seq,
                 record.lineAddr, 0, level, flags);
}

} // namespace

void
MemoryHierarchy::setTracer(Tracer *tracer)
{
    tracer_ = tracer;
    l1i_.setTracer(tracer, kTraceL1I);
    l1d_.setTracer(tracer, kTraceL1D);
    // A shared L2 keeps the owning core's tracer; events on it would
    // otherwise be claimed by whichever core attached last.
    if (ownsShared())
        l2_.setTracer(tracer, kTraceL2);
}

MemoryHierarchy::MemoryHierarchy(const SystemConfig &cfg, Rng &rng,
                                 Arena *arena)
    : cfg_(cfg),
      rng_(rng),
      mem_(cfg.memory, rng),
      l1i_(cfg.l1i, rng, cfg.seed * 0x9e37u + 1, arena),
      l1d_(cfg.l1d, rng, cfg.seed * 0x9e37u + 2, arena),
      l2_(cfg.l2, rng, cfg.seed * 0x9e37u + 3, arena)
{
}

void
MemoryHierarchy::bindShared(Cache *l2, MainMemory *mem)
{
    l2p_ = l2;
    memp_ = mem;
}

void
MemoryHierarchy::setCoherence(CoherenceEngine *engine, unsigned core_id)
{
    coh_ = engine;
    coreId_ = core_id;
    if (engine != nullptr)
        engine->attach(core_id, this);
}

void
MemoryHierarchy::writeHit(CacheLine &hit)
{
    hit.dirty = true;
    // S -> M upgrade: other cores' copies must go first.
    if (coh_ != nullptr && hit.coh == CohState::Shared)
        coh_->invalidateRemote(coreId_, hit.lineAddr);
    coh::onLocalWrite(hit);
}

MemAccessRecord
MemoryHierarchy::access(Addr addr, Cycle now, bool write, bool speculative,
                        SeqNum seq)
{
    const Addr line = lineAlign(addr);

    MemAccessRecord record;
    record.lineAddr = line;
    record.write = write;
    record.speculative = speculative;
    record.seq = seq;
    record.issued = now;

    l1d_.mshr().release(now);
    l2p_->mshr().release(now);

    // --- L1D lookup ------------------------------------------------
    // One combined lookup: set computation and tag scan happen once,
    // and the hit path reuses the (set, way) coordinates instead of
    // re-probing for touch/markDirty.
    if (const auto l1look = l1d_.lookup(line); l1look.line != nullptr) {
        CacheLine *hit = l1look.line;
        if (hit->fillCycle <= now) {
            // Plain hit.
            record.l1Hit = true;
            record.ready = now + cfg_.l1d.hitLatency;
            ++l1d_.hits();
            l1d_.touchAt(l1look.set, l1look.way);
            if (write)
                writeHit(*hit);
            traceAccess(tracer_, TraceKind::CacheHit, kTraceL1D, record,
                        now);
            return record;
        }
        // Line is inflight: merge with the outstanding fill.
        if (MshrEntry *entry = l1d_.mshr().find(line)) {
            ++entry->targets;
            record.merged = true;
            record.ready = std::max(entry->readyCycle,
                                    now + cfg_.l1d.hitLatency);
            ++l1d_.misses();
            if (write)
                writeHit(*hit);
            traceAccess(tracer_, TraceKind::MshrMerge, kTraceL1D, record,
                        now);
            return record;
        }
        // Inflight line whose MSHR entry was displaced: wait for the
        // fill directly.
        record.merged = true;
        record.ready = std::max(hit->fillCycle, now + cfg_.l1d.hitLatency);
        ++l1d_.misses();
        if (write)
            writeHit(*hit);
        traceAccess(tracer_, TraceKind::MshrMerge, kTraceL1D, record, now);
        return record;
    }

    ++l1d_.misses();

    // MSHR back-pressure: a full file delays the new miss until the
    // earliest outstanding fill retires.
    Cycle base = now;
    if (l1d_.mshr().full()) {
        base = std::max(base, l1d_.mshr().earliestReady());
        l1d_.mshr().release(base);
    }

    Cycle fill_ready = base + cfg_.l1d.hitLatency; // L1 lookup cost

    // --- cross-core snoop (Machine configs only) --------------------
    // Other cores' L1s are probed before the shared L2: a committed
    // remote copy is downgraded (and recorded for squash-undo), a
    // defended speculative copy turns the whole request into a dummy
    // miss, and a write drops every remote copy.
    bool shared_fill = false;
    if (coh_ != nullptr) {
        const CoherenceEngine::SnoopResult snoop =
            coh_->snoop(coreId_, line, base, write, speculative, record);
        if (snoop.dummyMiss) {
            record.dummyMiss = true;
            record.ready =
                fill_ready + cfg_.l2.hitLatency + memp_->accessLatency();
            traceAccess(tracer_, TraceKind::CacheMiss, kTraceL2, record,
                        now);
            return record;
        }
        if (snoop.served) {
            record.servedBySnoop = true;
            record.snoopOwner = static_cast<std::uint8_t>(snoop.owner);
            shared_fill = true;
        }
    }

    // --- L2 lookup --------------------------------------------------
    if (const auto l2look = l2p_->lookup(line); l2look.line != nullptr) {
        CacheLine *l2hit = l2look.line;
        if (l2hit->fillCycle <= base + cfg_.l1d.hitLatency) {
            if (coh_ != nullptr &&
                coh_->hideSharedSpeculative(*l2hit, line, base)) {
                // The installing core's L1 copy is gone but its
                // speculative L2 line survives: still invisible.
                record.dummyMiss = true;
                ++l2p_->misses();
                record.ready = fill_ready + cfg_.l2.hitLatency +
                               memp_->accessLatency();
                traceAccess(tracer_, TraceKind::CacheMiss, kTraceL2,
                            record, now);
                return record;
            }
            record.l2Hit = true;
            fill_ready += cfg_.l2.hitLatency;
            ++l2p_->hits();
            l2p_->touchAt(l2look.set, l2look.way);
        } else if (MshrEntry *entry = l2p_->mshr().find(line)) {
            ++entry->targets;
            record.merged = true;
            fill_ready = std::max(entry->readyCycle,
                                  fill_ready + cfg_.l2.hitLatency);
            ++l2p_->misses();
        } else {
            // Inflight L2 line whose MSHR entry was displaced.
            record.merged = true;
            fill_ready = std::max(l2hit->fillCycle,
                                  fill_ready + cfg_.l2.hitLatency);
            ++l2p_->misses();
        }
    } else {
        ++l2p_->misses();
        if (l2p_->mshr().full()) {
            const Cycle wait = l2p_->mshr().earliestReady();
            fill_ready = std::max(fill_ready, wait);
            l2p_->mshr().release(fill_ready);
        }
        fill_ready += cfg_.l2.hitLatency + memp_->accessLatency();

        // Install into L2 (eagerly; fillCycle marks actual arrival).
        const FillResult l2fill = l2p_->install(line, fill_ready,
                                                speculative, seq);
        record.l2Installed = true;
        record.l2Set = l2fill.set;
        record.l2Way = l2fill.way;
        record.l2Victim = l2fill.victimLine;
        record.l2VictimValid = l2fill.victimValid;
        if (!l2p_->mshr().full())
            l2p_->mshr().allocate(line, fill_ready, speculative, seq);
        // Inclusion: the displaced shared-L2 line may live in other
        // cores' L1s.
        if (coh_ != nullptr && l2fill.victimValid)
            coh_->backInvalidate(l2fill.victimLine);
    }

    // --- L1D fill ---------------------------------------------------
    const FillResult l1fill = l1d_.install(line, fill_ready, speculative,
                                           seq);
    record.l1Installed = true;
    record.l1Set = l1fill.set;
    record.l1Way = l1fill.way;
    record.l1Victim = l1fill.victimLine;
    record.l1VictimValid = l1fill.victimValid;
    record.l1VictimDirty = l1fill.victimDirty;
    if (!l1d_.mshr().full()) {
        MshrEntry &entry = l1d_.mshr().allocate(line, fill_ready,
                                                speculative, seq);
        entry.victimLine = l1fill.victimLine;
        entry.victimValid = l1fill.victimValid;
        entry.victimDirty = l1fill.victimDirty;
    }

    if (shared_fill && !write) {
        // A remote L1 still holds the line: both copies are S now.
        coh::onSharedFill(l1d_.line(l1fill.set, l1fill.way));
    }

    if (write)
        l1d_.markDirty(line);

    record.ready = fill_ready;
    // L2 hit, merged with an outstanding L2 fill, or a full miss to
    // memory — in every case the L1 is being filled.
    traceAccess(tracer_,
                record.l2Hit      ? TraceKind::CacheHit
                : record.merged   ? TraceKind::MshrMerge
                                  : TraceKind::CacheMiss,
                kTraceL2, record, now);
    return record;
}

MemAccessRecord
MemoryHierarchy::accessInvisible(Addr addr, Cycle now, SeqNum seq)
{
    const Addr line = lineAlign(addr);

    MemAccessRecord record;
    record.lineAddr = line;
    record.speculative = true;
    record.invisible = true;
    record.seq = seq;
    record.issued = now;

    if (const CacheLine *hit = l1d_.probe(line);
        hit != nullptr && hit->fillCycle <= now) {
        record.l1Hit = true;
        record.ready = now + cfg_.l1d.hitLatency;
        traceAccess(tracer_, TraceKind::CacheHit, kTraceL1D, record, now);
        return record;
    }
    Cycle ready = now + cfg_.l1d.hitLatency;
    if (const CacheLine *hit = l2p_->probe(line);
        hit != nullptr && hit->fillCycle <= now) {
        record.l2Hit = true;
        record.ready = ready + cfg_.l2.hitLatency;
        traceAccess(tracer_, TraceKind::CacheHit, kTraceL2, record, now);
        return record;
    }
    record.ready = ready + cfg_.l2.hitLatency + memp_->accessLatency();
    traceAccess(tracer_, TraceKind::CacheMiss, kTraceL2, record, now);
    return record;
}

MemAccessRecord
MemoryHierarchy::accessSafeSpec(Addr addr, Cycle now, SeqNum seq)
{
    const Addr line = lineAlign(addr);

    MemAccessRecord record;
    record.lineAddr = line;
    record.speculative = true;
    record.seq = seq;
    record.issued = now;

    // Committed L1 hit: served in place. Probe-only — even the
    // replacement state is left alone, so a squash has nothing to undo.
    if (const CacheLine *hit = l1d_.probe(line);
        hit != nullptr && hit->fillCycle <= now) {
        record.l1Hit = true;
        record.ready = now + cfg_.l1d.hitLatency;
        traceAccess(tracer_, TraceKind::CacheHit, kTraceL1D, record, now);
        return record;
    }

    record.shadow = true;

    // Merge with an earlier speculative fill of the same line.
    if (const ShadowL1::Entry *entry = shadow_.find(line)) {
        record.merged = true;
        record.ready = std::max(entry->readyCycle,
                                now + cfg_.l1d.hitLatency);
        traceAccess(tracer_, TraceKind::MshrMerge, kTraceL1D, record, now);
        return record;
    }

    // Miss: compute the fill latency from probes and park the fill in
    // the shadow L1. The caches never see the request.
    Cycle ready = now + cfg_.l1d.hitLatency;
    if (const CacheLine *hit = l2p_->probe(line);
        hit != nullptr && hit->fillCycle <= now) {
        record.l2Hit = true;
        ready += cfg_.l2.hitLatency;
    } else {
        ready += cfg_.l2.hitLatency + memp_->accessLatency();
    }
    shadow_.fill(line, ready, seq);
    record.ready = ready;
    traceAccess(tracer_,
                record.l2Hit ? TraceKind::CacheHit : TraceKind::CacheMiss,
                kTraceL2, record, now);
    return record;
}

MemAccessRecord
MemoryHierarchy::accessCacheSquash(Addr addr, Cycle now, SeqNum seq)
{
    const Addr line = lineAlign(addr);

    MemAccessRecord record;
    record.lineAddr = line;
    record.speculative = true;
    record.seq = seq;
    record.issued = now;

    l1d_.mshr().release(now);

    // Committed L1 hit: served in place, probe-only (see accessSafeSpec).
    if (const CacheLine *hit = l1d_.probe(line);
        hit != nullptr && hit->fillCycle <= now) {
        record.l1Hit = true;
        record.ready = now + cfg_.l1d.hitLatency;
        traceAccess(tracer_, TraceKind::CacheHit, kTraceL1D, record, now);
        return record;
    }

    record.mshrOnly = true;

    // Merge with a parked fill of the same line. The entry keeps its
    // original installer: that load's own squash record cancels it, and
    // an installer older than the squash keeps its fill legitimately.
    if (MshrEntry *entry = l1d_.mshr().find(line)) {
        ++entry->targets;
        record.merged = true;
        record.ready = std::max(entry->readyCycle,
                                now + cfg_.l1d.hitLatency);
        traceAccess(tracer_, TraceKind::MshrMerge, kTraceL1D, record, now);
        return record;
    }

    // Miss: compute the fill latency and park it in a cancellable MSHR
    // entry. No tags are installed anywhere — the line only enters the
    // caches if the load commits (commitPendingFill).
    Cycle base = now;
    if (l1d_.mshr().full()) {
        base = std::max(base, l1d_.mshr().earliestReady());
        l1d_.mshr().release(base);
    }
    Cycle fill_ready = base + cfg_.l1d.hitLatency;
    if (const CacheLine *hit = l2p_->probe(line);
        hit != nullptr && hit->fillCycle <= now) {
        record.l2Hit = true;
        fill_ready += cfg_.l2.hitLatency;
    } else {
        fill_ready += cfg_.l2.hitLatency + memp_->accessLatency();
    }
    l1d_.mshr().allocate(line, fill_ready, true, seq);
    record.ready = fill_ready;
    traceAccess(tracer_,
                record.l2Hit ? TraceKind::CacheHit : TraceKind::CacheMiss,
                kTraceL2, record, now);
    return record;
}

void
MemoryHierarchy::promoteCommitted(Addr line, Cycle now)
{
    if (const CacheLine *hit = l1d_.probe(line); hit != nullptr)
        return;
    if (l2p_->probe(line) == nullptr) {
        const FillResult l2fill = l2p_->install(line, now, false, kSeqNone);
        if (coh_ != nullptr && l2fill.victimValid)
            coh_->backInvalidate(l2fill.victimLine);
    }
    l1d_.install(line, now, false, kSeqNone);
}

void
MemoryHierarchy::commitShadow(const MemAccessRecord &record, Cycle now)
{
    if (!record.shadow)
        return;
    // Only the load whose entry is still resident promotes; a line the
    // FIFO dropped is simply refetched on the next demand access.
    if (shadow_.promote(record.lineAddr))
        promoteCommitted(record.lineAddr, now);
}

bool
MemoryHierarchy::discardShadow(const MemAccessRecord &record)
{
    if (!record.shadow)
        return false;
    return shadow_.discard(record.lineAddr);
}

void
MemoryHierarchy::commitPendingFill(const MemAccessRecord &record, Cycle now)
{
    if (!record.mshrOnly)
        return;
    l1d_.mshr().cancel(record.lineAddr, record.seq);
    promoteCommitted(record.lineAddr, now);
}

bool
MemoryHierarchy::cancelPendingFill(const MemAccessRecord &record)
{
    if (!record.mshrOnly)
        return false;
    return l1d_.mshr().cancel(record.lineAddr, record.seq);
}

Cycle
MemoryHierarchy::fetchReady(Addr addr, Cycle now)
{
    const Addr line = lineAlign(addr);

    if (const auto look = l1i_.lookup(line); look.line != nullptr) {
        // Resident (possibly still filling): data at the later of the
        // lookup and the fill arrival.
        ++l1i_.hits();
        l1i_.touchAt(look.set, look.way);
        return std::max(now + cfg_.l1i.hitLatency, look.line->fillCycle);
    }
    ++l1i_.misses();

    Cycle ready = now + cfg_.l1i.hitLatency;
    if (const auto l2look = l2p_->lookup(line); l2look.line != nullptr) {
        ready = std::max(ready + cfg_.l2.hitLatency, l2look.line->fillCycle);
        ++l2p_->hits();
        l2p_->touchAt(l2look.set, l2look.way);
    } else {
        ++l2p_->misses();
        ready += cfg_.l2.hitLatency + memp_->accessLatency();
        const FillResult l2fill = l2p_->install(line, ready, false,
                                                kSeqNone);
        if (coh_ != nullptr && l2fill.victimValid)
            coh_->backInvalidate(l2fill.victimLine);
    }
    l1i_.install(line, ready, false, kSeqNone);
    // Only misses are traced on the I-side: steady-state hits would
    // flood the ring at one event per fetched instruction.
    if (kTraceEnabled && tracer_ != nullptr &&
        tracer_->enabled(kTraceCatCache)) {
        tracer_->span(TraceKind::CacheMiss, now, ready - now, kSeqNone,
                      line, 0, kTraceL1I);
    }
    return ready;
}

bool
MemoryHierarchy::flushLine(Addr addr)
{
    const Addr line = lineAlign(addr);
    // clflush is architecturally machine-wide: with an engine attached
    // every core's copy goes, not just this core's.
    if (coh_ != nullptr)
        return coh_->flushAll(line);
    bool dirty = false;
    if (const CacheLine *hit = l1d_.probe(line))
        dirty = dirty || hit->dirty;
    if (const CacheLine *hit = l2_.probe(line))
        dirty = dirty || hit->dirty;
    l1d_.invalidate(line);
    l2_.invalidate(line);
    l1i_.invalidate(line);
    l1d_.mshr().squash(line);
    l2_.mshr().squash(line);
    return dirty;
}

void
MemoryHierarchy::commitInstall(const MemAccessRecord &record)
{
    if (record.l1Installed)
        l1d_.commitSpeculative(record.lineAddr, record.seq);
    if (record.l2Installed)
        l2p_->commitSpeculative(record.lineAddr, record.seq);
}

void
MemoryHierarchy::undoInflight(const MemAccessRecord &record)
{
    if (record.l1Installed &&
        l1d_.invalidateAt(record.l1Set, record.l1Way, record.lineAddr)) {
        if (record.l1VictimValid) {
            l1d_.installAt(record.l1Set, record.l1Way, record.l1Victim,
                           record.l1VictimDirty, 0);
            if (coh_ != nullptr)
                coh_->ensureInclusion(record.l1Victim, 0);
        }
    }
    if (record.l2Installed &&
        l2p_->invalidateAt(record.l2Set, record.l2Way, record.lineAddr)) {
        if (record.l2VictimValid)
            l2p_->installAt(record.l2Set, record.l2Way, record.l2Victim,
                            false, 0);
    }
    l1d_.mshr().squash(record.lineAddr);
    l2p_->mshr().squash(record.lineAddr);
}

bool
MemoryHierarchy::cleanupInvalidateL1(const MemAccessRecord &record)
{
    return l1d_.invalidateAt(record.l1Set, record.l1Way, record.lineAddr);
}

bool
MemoryHierarchy::cleanupInvalidateL2(const MemAccessRecord &record)
{
    return l2p_->invalidateAt(record.l2Set, record.l2Way, record.lineAddr);
}

void
MemoryHierarchy::cleanupRestoreL1(const MemAccessRecord &record, Cycle now)
{
    // The victim's data is refetched from L2/memory; only the tag state
    // matters here. Put it back into the way the transient fill used.
    l1d_.installAt(record.l1Set, record.l1Way, record.l1Victim,
                   record.l1VictimDirty, now);
    ++l1d_.stats().counter("restores");
    if (coh_ != nullptr)
        coh_->ensureInclusion(record.l1Victim, now);
}

void
MemoryHierarchy::undoSnoopDowngrade(const MemAccessRecord &record)
{
    if (coh_ != nullptr)
        coh_->undoSnoopDowngrade(record);
}

void
MemoryHierarchy::cleanupRestoreL2(const MemAccessRecord &record, Cycle now)
{
    l2p_->installAt(record.l2Set, record.l2Way, record.l2Victim, false,
                    now);
    ++l2p_->stats().counter("restores");
}

void
MemoryHierarchy::dropSpeculativeMark(const MemAccessRecord &record, bool l1,
                                     bool l2)
{
    if (l1 && record.l1Installed) {
        if (CacheLine *line = l1d_.probeMutable(record.lineAddr)) {
            line->speculative = false;
            line->installer = kSeqNone;
        }
    }
    if (l2 && record.l2Installed) {
        if (CacheLine *line = l2p_->probeMutable(record.lineAddr)) {
            line->speculative = false;
            line->installer = kSeqNone;
        }
    }
}

void
MemoryHierarchy::resetCaches()
{
    l1i_.reset();
    l1d_.reset();
    if (ownsShared())
        l2_.reset();
    shadow_.clear();
}

void
MemoryHierarchy::reseed(std::uint64_t seed)
{
    cfg_.seed = seed;
    if (ownsShared())
        mem_.reset(cfg_.memory);
    // Same key-derivation as the constructor so reseed(s) is
    // indistinguishable from construction with cfg.seed == s.
    l1i_.reseed(seed * 0x9e37u + 1);
    l1d_.reseed(seed * 0x9e37u + 2);
    if (ownsShared())
        l2_.reseed(seed * 0x9e37u + 3);
    shadow_.clear();
}

} // namespace unxpec
