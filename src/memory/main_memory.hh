/**
 * @file
 * Functional backing store plus DRAM timing. Function and timing are
 * split: every load reads its value from here regardless of cache
 * state, so caches stay tag-only and rollback can never corrupt data.
 * The timing side models a fixed access latency (Table I: 50 ns after
 * L2) with optional gaussian jitter for noisy-host experiments.
 *
 * Hot path: read()/write() resolve their page with a single hash
 * lookup (not one per byte) behind a last-page cache, so the common
 * case — repeated access within one 4 KB page — touches the hash map
 * not at all. Accesses that straddle a page boundary fall back to the
 * per-byte path. Page pointers are stable (std::unordered_map never
 * moves nodes), so the cache is invalidated only by clear()/reset().
 */

#ifndef UNXPEC_MEMORY_MAIN_MEMORY_HH
#define UNXPEC_MEMORY_MAIN_MEMORY_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/config.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace unxpec {

/** Flat byte-addressable memory with sparse page allocation. */
class MainMemory
{
  public:
    MainMemory(const MemoryConfig &cfg, Rng &rng) : cfg_(cfg), rng_(rng) {}

    std::uint8_t read8(Addr addr) const;
    void write8(Addr addr, std::uint8_t value);

    std::uint64_t read64(Addr addr) const;
    void write64(Addr addr, std::uint64_t value);

    /** Read `size` bytes little-endian (size in {1, 2, 4, 8}). */
    std::uint64_t read(Addr addr, unsigned size) const;
    void write(Addr addr, std::uint64_t value, unsigned size);

    /** One DRAM access latency in cycles (jitter applied if enabled). */
    Cycle accessLatency();

    /** Adjust the base latency at run time (models DVFS/thermal drift
     *  shifting the cycles-per-DRAM-access ratio between rounds). */
    void setAccessLatency(unsigned cycles) { cfg_.accessLatency = cycles; }

    const MemoryConfig &config() const { return cfg_; }

    /** Drop all contents (fresh address space). */
    void
    clear()
    {
        pages_.clear();
        allocOrder_.clear();
        invalidatePageCache();
    }

    /**
     * Restore freshly-constructed state without deallocating: reinstate
     * the given config (undoing setAccessLatency) and zero every
     * allocated page in place — functionally identical to clear(),
     * since absent pages read as zero, but allocation-free on reuse
     * (Core::reset).
     */
    void reset(const MemoryConfig &cfg);

  private:
    static constexpr unsigned kPageBytes = 4096;
    using Page = std::array<std::uint8_t, kPageBytes>;

    /** Page for `page_number`, allocating on first touch. */
    Page &pageFor(Addr page_number);
    /** Page for `page_number`, nullptr when never written. */
    const Page *findPage(Addr page_number) const;

    void
    invalidatePageCache()
    {
        cachedPageNumber_ = kAddrInvalid;
        cachedPage_ = nullptr;
    }

    MemoryConfig cfg_;
    Rng &rng_;
    std::unordered_map<Addr, Page> pages_;
    /**
     * Allocated pages in first-touch order. The map is only ever used
     * for point lookups (hash iteration order is unspecified — a
     * reproducibility hazard scripts/speccheck rejects); any walk over the
     * allocated pages goes through this deterministic side list
     * instead. Pointers are stable: unordered_map never moves nodes.
     */
    std::vector<Page *> allocOrder_;

    // Last-page cache: one entry, shared by reads and writes. mutable
    // so const reads can refresh it; purely an access-path memo, never
    // observable state.
    mutable Addr cachedPageNumber_ = kAddrInvalid;
    mutable const Page *cachedPage_ = nullptr;
};

} // namespace unxpec

#endif // UNXPEC_MEMORY_MAIN_MEMORY_HH
