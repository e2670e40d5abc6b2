#include "memory/cache.hh"

#include <algorithm>

#include "memory/coherence.hh"
#include "sim/log.hh"
#include "sim/trace.hh"

namespace unxpec {

Cache::Cache(const CacheConfig &cfg, Rng &rng, std::uint64_t index_key)
    : cfg_(cfg),
      numSets_(cfg.numSets()),
      rowOf_(cfg.numSets()),
      tags_((static_cast<std::size_t>(cfg.numSets()) + 1) * cfg.ways),
      lines_((static_cast<std::size_t>(cfg.numSets()) + 1) * cfg.ways),
      repl_(cfg.repl, cfg.numSets() + 1, cfg.ways, rng),
      index_(cfg.index, cfg.numSets(), index_key),
      mshr_(cfg.mshrs),
      stats_(cfg.name),
      hits_(stats_.counter("hits", "demand hits")),
      misses_(stats_.counter("misses", "demand misses")),
      evictions_(stats_.counter("evictions", "valid lines displaced")),
      invalidations_(stats_.counter("invalidations",
                                    "lines invalidated (incl. cleanup)")),
      restores_(stats_.counter("restores", "victims restored by cleanup"))
{
    if (cfg.ways == 0 || cfg.ways > 64)
        fatal("cache ", cfg.name, ": ways must be in [1, 64]");
    // lint-ok(steady-alloc): one-time construction sizing
    touchedSets_.reserve(numSets_);
}

CacheLine &
Cache::line(unsigned set, unsigned way)
{
    return lines_[rowBase(set) + way];
}

FillResult
Cache::install(Addr line_addr, Cycle fill_cycle, bool speculative,
               SeqNum installer)
{
    const unsigned set = index_.set(line_addr);
    const unsigned row = claimRow(set);
    const std::size_t base = static_cast<std::size_t>(row) * cfg_.ways;

    FillResult result;
    result.set = set;

    // Prefer an invalid way.
    Addr *tags = tags_.data() + base;
    unsigned chosen = cfg_.ways;
    for (unsigned way = 0; way < cfg_.ways; ++way) {
        if (tags[way] == kEmptyTag) {
            chosen = way;
            break;
        }
    }
    if (chosen == cfg_.ways) {
        chosen = repl_.victim(row);
        const CacheLine &victim = lines_[base + chosen];
        result.victimLine = ~tags[chosen];
        result.victimValid = true;
        result.victimDirty = victim.dirty;
        result.victimSpeculative = victim.speculative;
        ++evictions_;
        if (tracer_ != nullptr && tracer_->enabled(kTraceCatCache)) {
            tracer_->instant(
                TraceKind::CacheEvict, installer, result.victimLine, 0,
                traceLevel_,
                static_cast<std::uint16_t>(
                    (result.victimDirty ? kTraceFlagDirty : 0) |
                    (result.victimSpeculative ? kTraceFlagSpeculative
                                              : 0)));
        }
    }

    CacheLine &slot = lines_[base + chosen];
    slot.valid = true;
    slot.dirty = false;
    slot.speculative = speculative;
    slot.installer = speculative ? installer : 0;
    slot.fillCycle = fill_cycle;
    coh::onFill(slot);
    tags[chosen] = tagKey(line_addr);
    repl_.fill(row, chosen);

    if (tracer_ != nullptr && tracer_->enabled(kTraceCatCache)) {
        // Span from the request (the tracer's current cycle) to the
        // fill's landing; a backdated fill renders as an instant.
        const Cycle start = std::min(tracer_->now(), fill_cycle);
        tracer_->span(
            TraceKind::CacheFill, start, fill_cycle - start, installer,
            line_addr, 0, traceLevel_,
            speculative
                ? static_cast<std::uint16_t>(kTraceFlagSpeculative)
                : std::uint16_t{0});
    }

    result.way = chosen;
    return result;
}

void
Cache::installAt(unsigned set, unsigned way, Addr line_addr, bool dirty,
                 Cycle fill_cycle)
{
    if (set >= numSets_ || way >= cfg_.ways)
        panic("Cache::installAt out of range");
    const unsigned row = claimRow(set);
    const std::size_t idx = static_cast<std::size_t>(row) * cfg_.ways + way;
    CacheLine &slot = lines_[idx];
    slot.valid = true;
    slot.dirty = dirty;
    slot.speculative = false;
    slot.installer = 0;
    slot.fillCycle = fill_cycle;
    coh::onRestore(slot, dirty);
    tags_[idx] = tagKey(line_addr);
    repl_.fill(row, way);
    if (tracer_ != nullptr && tracer_->enabled(kTraceCatCache)) {
        tracer_->instantAt(fill_cycle, TraceKind::CacheRestore, kSeqNone,
                           line_addr, 0, traceLevel_,
                           dirty
                               ? static_cast<std::uint16_t>(kTraceFlagDirty)
                               : std::uint16_t{0});
    }
}

bool
Cache::invalidate(Addr line_addr)
{
    const std::size_t base = rowBase(index_.set(line_addr));
    const int way = findWayAt(base, line_addr);
    if (way < 0)
        return false;
    lines_[base + static_cast<unsigned>(way)].reset();
    tags_[base + static_cast<unsigned>(way)] = kEmptyTag;
    ++invalidations_;
    if (tracer_ != nullptr && tracer_->enabled(kTraceCatCache)) {
        tracer_->instant(TraceKind::CacheInvalidate, kSeqNone, line_addr,
                         0, traceLevel_);
    }
    return true;
}

bool
Cache::invalidateAt(unsigned set, unsigned way, Addr line_addr)
{
    if (set >= numSets_ || way >= cfg_.ways)
        panic("Cache::invalidateAt out of range");
    const std::size_t idx = rowBase(set) + way;
    CacheLine &candidate = lines_[idx];
    if (candidate.valid && tags_[idx] == tagKey(line_addr)) {
        candidate.reset();
        tags_[idx] = kEmptyTag;
        ++invalidations_;
        if (tracer_ != nullptr && tracer_->enabled(kTraceCatCache)) {
            tracer_->instant(TraceKind::CacheInvalidate, kSeqNone,
                             line_addr, 0, traceLevel_);
        }
        return true;
    }
    return false;
}

void
Cache::markDirty(Addr line_addr)
{
    if (CacheLine *hit = probeMutable(line_addr)) {
        hit->dirty = true;
        coh::onLocalWrite(*hit);
    }
}

void
Cache::commitSpeculative(Addr line_addr, SeqNum installer)
{
    CacheLine *hit = probeMutable(line_addr);
    if (hit != nullptr && hit->speculative && hit->installer == installer) {
        hit->speculative = false;
        hit->installer = 0;
        // Apply the coherence downgrade CleanupSpec delayed while the
        // installer was speculative.
        coh::onCommit(*hit);
    }
}

unsigned
Cache::setOccupancy(unsigned set) const
{
    const Addr *tags = tags_.data() + rowBase(set);
    unsigned occupancy = 0;
    for (unsigned way = 0; way < cfg_.ways; ++way) {
        if (tags[way] != kEmptyTag)
            ++occupancy;
    }
    return occupancy;
}

std::vector<Addr>
Cache::residentLines() const
{
    // Row 0 and the rows past the claimed ones hold nothing.
    const Addr *first = tags_.data() + cfg_.ways;
    const Addr *last = first + touchedSets_.size() * cfg_.ways;
    std::vector<Addr> resident;
    // lint-ok(steady-alloc): audit/debug helper, not a tick path
    resident.reserve(static_cast<std::size_t>(last - first));
    for (const Addr *key = first; key != last; ++key) {
        if (*key != kEmptyTag)
            resident.push_back(~*key); // lint-ok(steady-alloc): audit
    }
    std::sort(resident.begin(), resident.end());
    return resident;
}

void
Cache::reset()
{
    // The claimed rows are rows 1..touchedSets_.size(), contiguous.
    const std::size_t used = touchedSets_.size() * cfg_.ways;
    tags_.clear(cfg_.ways, used);
    lines_.clear(cfg_.ways, used);
    repl_.clearRows(1, static_cast<unsigned>(touchedSets_.size()));
    for (const unsigned set : touchedSets_)
        rowOf_[set] = 0;
    touchedSets_.clear();
    mshr_.clear();
}

void
Cache::reseed(std::uint64_t index_key)
{
    reset();
    repl_.restartClock();
    index_.rekey(index_key);
    stats_.resetAll();
}

} // namespace unxpec
