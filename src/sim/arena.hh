/**
 * @file
 * Monotonic arena allocator for per-trial simulation state. A Core
 * owns one Arena and carves its hot structures out of it — ROB ring
 * and side lists, decode ring, cache tag/metadata arrays, replacement
 * stamps, MSHR files — so one trial's working set is a handful of
 * contiguous chunks ("trial-major" layout) instead of dozens of
 * scattered heap blocks, and steady-state execution performs zero
 * heap allocations after warm-up (DESIGN.md §13 defines the
 * allocation envelope; tests/core_reset_test.cc asserts it with the
 * sim/alloc_gauge.hh counting hook).
 *
 * The arena is bump-pointer and monotonic: allocate() never frees,
 * deallocation is a no-op, and reset() rewinds every chunk for reuse
 * without returning memory to the host. Containers that reserve their
 * full capacity at construction (the only pattern the adopters use —
 * enforced by scripts/lint_sim.py's steady-alloc rule) therefore never
 * touch the heap again for the arena's lifetime. A container that
 * *did* regrow would leak its old block inside the arena: growth is a
 * bug in an adopter, not supported usage.
 *
 * ArenaAllocator<T> is the std-allocator adapter. With a null arena it
 * falls back to global new/delete, so every arena-aware container also
 * works standalone (unit tests construct bare Caches and ROBs without
 * an arena).
 */

#ifndef UNXPEC_SIM_ARENA_HH
#define UNXPEC_SIM_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace unxpec {

/** Chunked monotonic bump allocator. Not thread-safe: one owner. */
class Arena
{
  public:
    static constexpr std::size_t kDefaultChunkBytes = 256 * 1024;

    explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes);

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * `bytes` of storage aligned to `align` (a power of two). Never
     * returns nullptr; grows by whole chunks when the current one is
     * exhausted. Zero-byte requests return a valid unique pointer.
     */
    void *allocate(std::size_t bytes, std::size_t align);

    /**
     * Rewind every chunk for reuse. No destructors run — the caller
     * must have destroyed (or must never reuse) objects handed out
     * before the reset. Chunk memory is retained, so a reset arena
     * serves the same allocation sequence without touching the heap.
     */
    void reset();

    /** Bytes handed out since construction / the last reset(). */
    std::size_t bytesAllocated() const { return bytesAllocated_; }
    /** Host-memory chunks owned (never shrinks). */
    std::size_t chunkCount() const { return chunks_.size(); }
    /** Total host bytes reserved across all chunks. */
    std::size_t bytesReserved() const { return bytesReserved_; }

  private:
    struct Chunk
    {
        std::unique_ptr<std::byte[]> data;
        std::size_t size = 0;
        std::size_t used = 0;
    };

    /** Append a chunk of at least `min_bytes`. */
    Chunk &grow(std::size_t min_bytes);

    std::size_t chunkBytes_;
    std::size_t current_ = 0; //!< index of the chunk being bumped
    std::size_t bytesAllocated_ = 0;
    std::size_t bytesReserved_ = 0;
    std::vector<Chunk> chunks_;
};

/**
 * std-allocator adapter over an Arena. Null-arena instances allocate
 * from the global heap; arena-backed instances bump-allocate and treat
 * deallocate() as a no-op (monotonic).
 */
template <typename T>
class ArenaAllocator
{
  public:
    using value_type = T;

    ArenaAllocator() = default;
    explicit ArenaAllocator(Arena *arena) : arena_(arena) {}

    template <typename U>
    ArenaAllocator(const ArenaAllocator<U> &other) : arena_(other.arena())
    {
    }

    T *
    allocate(std::size_t n)
    {
        if (arena_ != nullptr) {
            return static_cast<T *>(
                arena_->allocate(n * sizeof(T), alignof(T)));
        }
        return static_cast<T *>(::operator new(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t) noexcept
    {
        if (arena_ == nullptr)
            ::operator delete(p);
        // Arena-backed storage is monotonic: freed on Arena::reset()
        // or destruction, never piecemeal.
    }

    Arena *arena() const { return arena_; }

    template <typename U>
    bool
    operator==(const ArenaAllocator<U> &other) const
    {
        return arena_ == other.arena();
    }

    template <typename U>
    bool
    operator!=(const ArenaAllocator<U> &other) const
    {
        return arena_ != other.arena();
    }

  private:
    Arena *arena_ = nullptr;
};

/** Vector whose storage comes from an Arena (or the heap when null). */
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

} // namespace unxpec

#endif // UNXPEC_SIM_ARENA_HH
