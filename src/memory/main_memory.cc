#include "memory/main_memory.hh"

#include <algorithm>
#include <cmath>

#include "sim/log.hh"

namespace unxpec {

MainMemory::Page &
MainMemory::pageFor(Addr page_number)
{
    if (page_number == cachedPageNumber_ && cachedPage_ != nullptr) {
        // The map's pages are never actually const; the cache stores a
        // const pointer only so the read path can share it.
        return const_cast<Page &>(*cachedPage_);
    }
    auto it = pages_.find(page_number);
    if (it == pages_.end()) {
        // First touch of a page: warm-up cost only — a pooled trial's
        // working set re-touches the same pages, already resident.
        it = pages_.emplace(page_number, Page{}).first; // lint-ok(steady-alloc): first-touch
        allocOrder_.push_back(&it->second); // lint-ok(steady-alloc): first-touch
    }
    cachedPageNumber_ = page_number;
    cachedPage_ = &it->second;
    return it->second;
}

const MainMemory::Page *
MainMemory::findPage(Addr page_number) const
{
    if (page_number == cachedPageNumber_)
        return cachedPage_;
    auto it = pages_.find(page_number);
    if (it == pages_.end())
        return nullptr;
    cachedPageNumber_ = page_number;
    cachedPage_ = &it->second;
    return cachedPage_;
}

std::uint8_t
MainMemory::read8(Addr addr) const
{
    const Page *p = findPage(addr / kPageBytes);
    return p == nullptr ? 0 : (*p)[addr % kPageBytes];
}

void
MainMemory::write8(Addr addr, std::uint8_t value)
{
    pageFor(addr / kPageBytes)[addr % kPageBytes] = value;
}

std::uint64_t
MainMemory::read64(Addr addr) const
{
    return read(addr, 8);
}

void
MainMemory::write64(Addr addr, std::uint64_t value)
{
    write(addr, value, 8);
}

std::uint64_t
MainMemory::read(Addr addr, unsigned size) const
{
    const unsigned offset = static_cast<unsigned>(addr % kPageBytes);
    if (offset + size <= kPageBytes) [[likely]] {
        // Single page lookup for the whole access.
        const Page *p = findPage(addr / kPageBytes);
        if (p == nullptr)
            return 0;
        const std::uint8_t *bytes = p->data() + offset;
        std::uint64_t value = 0;
        for (unsigned i = 0; i < size; ++i)
            value |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
        return value;
    }
    // Page-straddling access: per-byte path (read8 still hits the
    // last-page cache for all bytes on each side of the boundary).
    std::uint64_t value = 0;
    for (unsigned i = 0; i < size; ++i)
        value |= static_cast<std::uint64_t>(read8(addr + i)) << (8 * i);
    return value;
}

void
MainMemory::write(Addr addr, std::uint64_t value, unsigned size)
{
    const unsigned offset = static_cast<unsigned>(addr % kPageBytes);
    if (offset + size <= kPageBytes) [[likely]] {
        std::uint8_t *bytes = pageFor(addr / kPageBytes).data() + offset;
        for (unsigned i = 0; i < size; ++i)
            bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
        return;
    }
    for (unsigned i = 0; i < size; ++i)
        write8(addr + i, static_cast<std::uint8_t>(value >> (8 * i)));
}

Cycle
MainMemory::accessLatency()
{
    double latency = cfg_.accessLatency;
    if (cfg_.jitterSigma > 0.0)
        latency += rng_.gaussian(0.0, cfg_.jitterSigma);
    latency = std::max(1.0, latency);
    return static_cast<Cycle>(std::llround(latency));
}

void
MainMemory::reset()
{
    // Walk the deterministic allocation-order list, not the hash map:
    // the zeroing itself is order-insensitive, but keeping every
    // container walk deterministic is what lets scripts/speccheck forbid
    // unordered iteration outright instead of judging call sites.
    for (Page *page : allocOrder_)
        page->fill(0);
    // Page pointers stay valid (no node was erased); the cache needs no
    // invalidation, but reset it anyway so reuse starts predictably.
    invalidatePageCache();
}

} // namespace unxpec
