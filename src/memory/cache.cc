#include "memory/cache.hh"

#include <algorithm>

#include "memory/coherence.hh"
#include "sim/log.hh"
#include "sim/trace.hh"

namespace unxpec {

namespace {

/** Allowed-way mask for one domain; pure function of the config. */
std::uint64_t
computeAllowedMask(const CacheConfig &cfg, unsigned domain)
{
    const unsigned usable = cfg.ways - cfg.nomoReservedWays;
    const std::uint64_t all =
        cfg.ways >= 64 ? ~0ull : ((1ull << cfg.ways) - 1);
    if (cfg.nomoReservedWays == 0)
        return all;
    const std::uint64_t own =
        usable >= 64 ? ~0ull : ((1ull << usable) - 1);
    // Domain 0 owns the low ways; the SMT sibling (domain 1) owns the
    // NoMo-reserved high ways.
    return domain == 0 ? own : (all & ~own);
}

} // namespace

Cache::Cache(const CacheConfig &cfg, Rng &rng, std::uint64_t index_key)
    : cfg_(cfg),
      numSets_(cfg.numSets()),
      tags_(static_cast<std::size_t>(cfg.numSets()) * cfg.ways,
            kAddrInvalid),
      lines_(static_cast<std::size_t>(cfg.numSets()) * cfg.ways,
             CacheLine{}),
      repl_(cfg.repl, cfg.numSets(), cfg.ways, rng),
      index_(cfg.index, cfg.numSets(), index_key),
      mshr_(cfg.mshrs),
      touchedMask_((cfg.numSets() + 63) / 64, 0),
      allowedMask_{computeAllowedMask(cfg, 0), computeAllowedMask(cfg, 1)},
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
    if (cfg.nomoReservedWays >= cfg.ways)
        fatal("cache ", cfg.name, ": NoMo reservation leaves no usable way");
    // lint-ok(steady-alloc): one-time construction sizing
    touchedSets_.reserve(numSets_);
}

Addr &
Cache::tag(unsigned set, unsigned way)
{
    return tags_[static_cast<std::size_t>(set) * cfg_.ways + way];
}

CacheLine &
Cache::line(unsigned set, unsigned way)
{
    return lines_[static_cast<std::size_t>(set) * cfg_.ways + way];
}

const CacheLine &
Cache::line(unsigned set, unsigned way) const
{
    return lines_[static_cast<std::size_t>(set) * cfg_.ways + way];
}

FillResult
Cache::install(Addr line_addr, Cycle fill_cycle, bool speculative,
               SeqNum installer, unsigned domain)
{
    const unsigned set = index_.set(line_addr);
    const std::uint64_t mask = allowedMask_[domain == 0 ? 0 : 1];

    FillResult result;
    result.set = set;

    // Prefer an invalid allowed way.
    const Addr *tags = tags_.data() + static_cast<std::size_t>(set) * cfg_.ways;
    unsigned chosen = cfg_.ways;
    for (unsigned way = 0; way < cfg_.ways; ++way) {
        if ((mask & (1ull << way)) && tags[way] == kAddrInvalid) {
            chosen = way;
            break;
        }
    }
    if (chosen == cfg_.ways) {
        chosen = repl_.victim(set, mask);
        CacheLine &victim = line(set, chosen);
        result.victimLine = victim.lineAddr;
        result.victimValid = true;
        result.victimDirty = victim.dirty;
        result.victimSpeculative = victim.speculative;
        ++evictions_;
        if (kTraceEnabled && tracer_ != nullptr &&
            tracer_->enabled(kTraceCatCache)) {
            tracer_->instant(
                TraceKind::CacheEvict, installer, result.victimLine, 0,
                traceLevel_,
                static_cast<std::uint16_t>(
                    (result.victimDirty ? kTraceFlagDirty : 0) |
                    (result.victimSpeculative ? kTraceFlagSpeculative
                                              : 0)));
        }
    }

    CacheLine &slot = line(set, chosen);
    slot.lineAddr = line_addr;
    slot.valid = true;
    slot.dirty = false;
    slot.speculative = speculative;
    slot.installer = speculative ? installer : kSeqNone;
    slot.fillCycle = fill_cycle;
    coh::onFill(slot);
    tag(set, chosen) = line_addr;
    repl_.fill(set, chosen);
    markTouched(set);

    if (kTraceEnabled && tracer_ != nullptr &&
        tracer_->enabled(kTraceCatCache)) {
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
    CacheLine &slot = line(set, way);
    slot.lineAddr = line_addr;
    slot.valid = true;
    slot.dirty = dirty;
    slot.speculative = false;
    slot.installer = kSeqNone;
    slot.fillCycle = fill_cycle;
    coh::onRestore(slot, dirty);
    tag(set, way) = line_addr;
    repl_.fill(set, way);
    markTouched(set);
    if (kTraceEnabled && tracer_ != nullptr &&
        tracer_->enabled(kTraceCatCache)) {
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
    const int way = findWay(line_addr);
    if (way < 0)
        return false;
    const unsigned set = index_.set(line_addr);
    line(set, static_cast<unsigned>(way)).reset();
    tag(set, static_cast<unsigned>(way)) = kAddrInvalid;
    ++invalidations_;
    if (kTraceEnabled && tracer_ != nullptr &&
        tracer_->enabled(kTraceCatCache)) {
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
    CacheLine &candidate = line(set, way);
    if (candidate.valid && candidate.lineAddr == line_addr) {
        candidate.reset();
        tag(set, way) = kAddrInvalid;
        ++invalidations_;
        if (kTraceEnabled && tracer_ != nullptr &&
            tracer_->enabled(kTraceCatCache)) {
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
        hit->installer = kSeqNone;
        // Apply the coherence downgrade CleanupSpec delayed while the
        // installer was speculative.
        coh::onCommit(*hit);
    }
}

unsigned
Cache::setOccupancy(unsigned set) const
{
    const Addr *tags = tags_.data() + static_cast<std::size_t>(set) * cfg_.ways;
    unsigned occupancy = 0;
    for (unsigned way = 0; way < cfg_.ways; ++way) {
        if (tags[way] != kAddrInvalid)
            ++occupancy;
    }
    return occupancy;
}

std::vector<Addr>
Cache::residentLines() const
{
    std::vector<Addr> resident;
    // lint-ok(steady-alloc): audit/debug helper, not a tick path
    resident.reserve(tags_.size());
    for (const Addr tag_addr : tags_) {
        if (tag_addr != kAddrInvalid)
            resident.push_back(tag_addr); // lint-ok(steady-alloc): audit
    }
    std::sort(resident.begin(), resident.end());
    return resident;
}

void
Cache::reset()
{
    for (const unsigned set : touchedSets_) {
        const std::size_t first = static_cast<std::size_t>(set) * cfg_.ways;
        std::fill_n(tags_.begin() + first, cfg_.ways, kAddrInvalid);
        for (unsigned way = 0; way < cfg_.ways; ++way)
            lines_[first + way].reset();
        repl_.clearSet(set);
        touchedMask_[set / 64] = 0;
    }
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
