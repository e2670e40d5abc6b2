#include "memory/coherence.hh"

#include "memory/cache.hh"
#include "memory/hierarchy.hh"
#include "memory/main_memory.hh"
#include "sim/audit.hh"
#include "sim/log.hh"
#include "sim/trace.hh"

#include <map>
#include <string>
#include <utility>

namespace unxpec {

namespace {

/** Coherence-track instant, guarded like every other trace site. */
inline void
traceCoh(Tracer *tracer, TraceKind kind, Cycle now, Addr line,
         unsigned owner)
{
    if (!(tracer != nullptr && tracer->enabled(kTraceCatCoherence))) {
        return;
    }
    tracer->instantAt(now, kind, kSeqNone, line, owner,
                      static_cast<std::uint8_t>(owner));
}

} // namespace

CoherenceEngine::CoherenceEngine(const SystemConfig &cfg)
    : cfg_(cfg),
      protections_(cfg.cleanupMode != CleanupMode::UnsafeBaseline),
      stats_("coherence"),
      snoops_(stats_.counter("snoops", "L1-miss snoop broadcasts")),
      remoteHits_(stats_.counter("remote_hits",
                                 "snoops served by a remote L1 copy")),
      downgrades_(stats_.counter("downgrades",
                                 "immediate M/E->S downgrades")),
      delayedDowngrades_(stats_.counter(
          "delayed_downgrades",
          "downgrades deferred to the installer's commit (defense)")),
      dummyMisses_(stats_.counter(
          "dummy_misses", "speculative copies hidden as full misses")),
      remoteInvalidations_(stats_.counter(
          "remote_invalidations", "copies dropped by a remote write")),
      backInvalidations_(stats_.counter(
          "back_invalidations", "L1 copies dropped by shared-L2 eviction")),
      downgradeUndos_(stats_.counter(
          "downgrade_undos", "squash-time restorations of owner state"))
{
}

void
CoherenceEngine::attach(unsigned core_id, MemoryHierarchy *hier)
{
    if (cores_.size() <= core_id)
        // lint-ok(steady-alloc): machine-construction registration
        cores_.resize(core_id + 1, nullptr);
    cores_[core_id] = hier;
}

Cache &
CoherenceEngine::sharedL2() const
{
    return cores_[0]->l2();
}

CoherenceEngine::SnoopResult
CoherenceEngine::snoop(unsigned requester, Addr line, Cycle now, bool write,
                       bool speculative, MemAccessRecord &record)
{
    SnoopResult result;
    ++snoops_;
    for (unsigned i = 0; i < cores_.size(); ++i) {
        if (i == requester)
            continue;
        Cache &l1d = cores_[i]->l1d();
        CacheLine *hit = l1d.probeMutable(line);
        if (hit == nullptr || hit->fillCycle > now)
            continue;

        if (write) {
            // Write upgrade: every remote copy — S, E, M, even a
            // speculative fill in flight — is dropped. The backing
            // store is functional, so a dirty copy needs no timing
            // writeback here.
            l1d.invalidate(line);
            l1d.mshr().squash(line);
            ++remoteInvalidations_;
            traceCoh(tracer_, TraceKind::SnoopInvalidate, now, line, i);
            continue; // invalidate *all* sharers
        }

        if (protections_ && hit->speculative) {
            // §II-B: a defended speculative copy must be invisible.
            // Serve the requester a dummy miss and defer the M/E->S
            // downgrade until the installing load commits.
            coh::onDelayedDowngrade(*hit);
            ++dummyMisses_;
            ++delayedDowngrades_;
            result.dummyMiss = true;
            result.owner = i;
            traceCoh(tracer_, TraceKind::SnoopDummyMiss, now, line, i);
            traceCoh(tracer_, TraceKind::SnoopDelayedDowngrade, now, line,
                     i);
            return result;
        }

        const CohState prev = hit->coh;
        coh::onRemoteRead(*hit);
        if (!result.served) {
            result.served = true;
            result.owner = i;
            result.prevState = prev;
            ++remoteHits_;
            traceCoh(tracer_, TraceKind::SnoopServe, now, line, i);
            if (prev == CohState::Modified || prev == CohState::Exclusive) {
                result.downgraded = true;
                ++downgrades_;
                traceCoh(tracer_, TraceKind::SnoopDowngrade, now, line, i);
                if (speculative) {
                    // The requester may squash: remember what to undo.
                    record.snoopDowngrade = true;
                    record.snoopOwner = static_cast<std::uint8_t>(i);
                    record.snoopPrevState = prev;
                }
            }
        }
    }
    return result;
}

CrossCoreProbe
CoherenceEngine::remoteRead(unsigned requester, Addr addr, Cycle now)
{
    const Addr line = lineAlign(addr);
    // Drawn up front — hit or miss — so the jitter stream advances
    // identically on every probe.
    const Cycle miss_latency = cfg_.l1d.hitLatency + cfg_.l2.hitLatency +
                               cores_[0]->mem().accessLatency();
    const Cycle transfer_latency =
        cfg_.l1d.hitLatency + cfg_.l2.hitLatency;

    CrossCoreProbe probe;
    ++snoops_;

    auto dummy = [&](CacheLine &slot, unsigned owner) {
        coh::onDelayedDowngrade(slot);
        ++dummyMisses_;
        ++delayedDowngrades_;
        probe.hit = false;
        probe.dummyMiss = true;
        probe.ready = now + miss_latency;
        probe.observed = CohState::Invalid;
        traceCoh(tracer_, TraceKind::SnoopDummyMiss, now, line, owner);
        traceCoh(tracer_, TraceKind::SnoopDelayedDowngrade, now, line,
                 owner);
    };

    for (unsigned i = 0; i < cores_.size(); ++i) {
        if (i == requester)
            continue;
        CacheLine *hit = cores_[i]->l1d().probeMutable(line);
        if (hit == nullptr || hit->fillCycle > now)
            continue;
        if (protections_ && hit->speculative) {
            dummy(*hit, i);
            return probe;
        }
        const CohState prev = hit->coh;
        coh::onRemoteRead(*hit);
        ++remoteHits_;
        traceCoh(tracer_, TraceKind::SnoopServe, now, line, i);
        if (prev == CohState::Modified || prev == CohState::Exclusive) {
            ++downgrades_;
            traceCoh(tracer_, TraceKind::SnoopDowngrade, now, line, i);
        }
        probe.hit = true;
        probe.ready = now + transfer_latency;
        probe.observed = hit->coh;
        return probe;
    }

    // No L1 copy: the shared L2 may still hold it.
    if (CacheLine *hit = sharedL2().probeMutable(line);
        hit != nullptr && hit->fillCycle <= now) {
        if (protections_ && hit->speculative) {
            dummy(*hit, 0);
            return probe;
        }
        ++remoteHits_;
        probe.hit = true;
        probe.ready = now + transfer_latency;
        probe.observed = hit->coh;
        return probe;
    }

    probe.hit = false;
    probe.ready = now + miss_latency;
    probe.observed = CohState::Invalid;
    return probe;
}

void
CoherenceEngine::invalidateRemote(unsigned writer, Addr line)
{
    for (unsigned i = 0; i < cores_.size(); ++i) {
        if (i == writer)
            continue;
        Cache &l1d = cores_[i]->l1d();
        if (l1d.probe(line) != nullptr) {
            l1d.invalidate(line);
            l1d.mshr().squash(line);
            ++remoteInvalidations_;
            traceCoh(tracer_, TraceKind::SnoopInvalidate,
                     tracer_ != nullptr ? tracer_->now() : 0, line, i);
        }
    }
}

void
CoherenceEngine::backInvalidate(Addr victim)
{
    if (victim == kAddrInvalid)
        return;
    for (unsigned i = 0; i < cores_.size(); ++i) {
        MemoryHierarchy *core = cores_[i];
        bool dropped = false;
        if (core->l1d().probe(victim) != nullptr) {
            core->l1d().invalidate(victim);
            core->l1d().mshr().squash(victim);
            dropped = true;
        }
        if (core->l1i().probe(victim) != nullptr) {
            core->l1i().invalidate(victim);
            dropped = true;
        }
        if (dropped) {
            ++backInvalidations_;
            traceCoh(tracer_, TraceKind::BackInvalidate,
                     tracer_ != nullptr ? tracer_->now() : 0, victim, i);
        }
    }
}

bool
CoherenceEngine::hideSharedSpeculative(CacheLine &slot, Addr line, Cycle now)
{
    if (!protections_ || !slot.speculative)
        return false;
    coh::onDelayedDowngrade(slot);
    ++dummyMisses_;
    ++delayedDowngrades_;
    traceCoh(tracer_, TraceKind::SnoopDummyMiss, now, line, 0);
    traceCoh(tracer_, TraceKind::SnoopDelayedDowngrade, now, line, 0);
    return true;
}

void
CoherenceEngine::ensureInclusion(Addr line, Cycle now)
{
    if (line == kAddrInvalid)
        return;
    if (sharedL2().probe(line) != nullptr)
        return;
    const FillResult fill = sharedL2().install(line, now, false, kSeqNone);
    if (fill.victimValid)
        backInvalidate(fill.victimLine);
}

bool
CoherenceEngine::flushAll(Addr line)
{
    bool dirty = false;
    for (MemoryHierarchy *core : cores_) {
        if (const CacheLine *hit = core->l1d().probe(line))
            dirty = dirty || hit->dirty;
        core->l1d().invalidate(line);
        core->l1i().invalidate(line);
        core->l1d().mshr().squash(line);
    }
    if (const CacheLine *hit = sharedL2().probe(line))
        dirty = dirty || hit->dirty;
    sharedL2().invalidate(line);
    sharedL2().mshr().squash(line);
    return dirty;
}

void
CoherenceEngine::undoSnoopDowngrade(const MemAccessRecord &record)
{
    if (!record.snoopDowngrade || record.snoopOwner >= cores_.size())
        return;
    CacheLine *slot =
        cores_[record.snoopOwner]->l1d().probeMutable(record.lineAddr);
    if (slot == nullptr)
        return;
    coh::onDowngradeUndo(*slot, record.snoopPrevState);
    ++downgradeUndos_;
    traceCoh(tracer_, TraceKind::DowngradeUndo,
             tracer_ != nullptr ? tracer_->now() : 0, record.lineAddr,
             record.snoopOwner);
}

void
CoherenceEngine::auditInvariants(Cycle now) const
{
    // 1. Single-writer: a line with an M/E owner has exactly one valid
    //    L1D copy across the machine.
    //    map line -> (valid copies, M/E owners, first M/E core).
    std::map<Addr, std::pair<unsigned, unsigned>> lines;
    for (unsigned i = 0; i < cores_.size(); ++i) {
        for (const Addr addr : cores_[i]->l1d().residentLines()) {
            const CacheLine *slot = cores_[i]->l1d().probe(addr);
            auto &entry = lines[addr];
            ++entry.first;
            if (slot->coh == CohState::Modified ||
                slot->coh == CohState::Exclusive) {
                ++entry.second;
            }
            // 3. A pending delayed downgrade only makes sense on a
            //    still-speculative copy: commit applies it, squash
            //    removes the line.
            if (slot->pendingDowngrade && !slot->speculative) {
                audit::fail("coherence", now,
                            "line " + std::to_string(addr) + " on core " +
                                std::to_string(i) +
                                " carries pendingDowngrade but is no "
                                "longer speculative");
            }
        }
    }
    for (const auto &[addr, entry] : lines) {
        if (entry.second > 1) {
            audit::fail("coherence", now,
                        "line " + std::to_string(addr) + " has " +
                            std::to_string(entry.second) +
                            " M/E owners across L1Ds");
        }
        if (entry.second == 1 && entry.first > 1) {
            audit::fail("coherence", now,
                        "line " + std::to_string(addr) +
                            " is M/E in one L1D but valid in " +
                            std::to_string(entry.first) + " L1Ds");
        }
    }

    // 2. Inclusion: every valid private-L1 line is resident in the
    //    shared L2.
    const Cache &l2 = sharedL2();
    for (unsigned i = 0; i < cores_.size(); ++i) {
        for (const Addr addr : cores_[i]->l1d().residentLines()) {
            if (l2.probe(addr) == nullptr) {
                audit::fail("coherence", now,
                            "line " + std::to_string(addr) +
                                " valid in core " + std::to_string(i) +
                                " L1D but absent from the shared L2");
            }
        }
        for (const Addr addr : cores_[i]->l1i().residentLines()) {
            if (l2.probe(addr) == nullptr) {
                audit::fail("coherence", now,
                            "line " + std::to_string(addr) +
                                " valid in core " + std::to_string(i) +
                                " L1I but absent from the shared L2");
            }
        }
    }
}

} // namespace unxpec
