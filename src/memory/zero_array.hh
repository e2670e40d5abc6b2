/**
 * @file
 * ZeroArray: the one allocation path of the per-way cache arrays (tags,
 * line metadata, LRU stamps). It is a fixed-size calloc block whose
 * all-zero bytes are each element's empty state, so a freshly built
 * array is already reset. A large calloc is served from fresh anonymous
 * pages, which the kernel maps on first touch: a 2 MB L2 costs no page
 * faults and no resident memory for the sets a run never writes.
 */

#ifndef UNXPEC_MEMORY_ZERO_ARRAY_HH
#define UNXPEC_MEMORY_ZERO_ARRAY_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>

namespace unxpec {

/** True when an object whose bytes are all zero equals `T{}`. */
template <class T>
constexpr bool
zeroBytesAreEmpty()
{
    return std::bit_cast<T>(std::array<unsigned char, sizeof(T)>{}) == T{};
}

/** Fixed-size array whose elements start as (and reset to) `T{}`. */
template <class T>
class ZeroArray
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "calloc/free neither construct nor destroy elements");
    static_assert(zeroBytesAreEmpty<T>(),
                  "calloc's zero bytes must be the element's empty state");

  public:
    explicit ZeroArray(std::size_t size)
        : data_(static_cast<T *>(std::calloc(size, sizeof(T)))), size_(size)
    {
        if (data_ == nullptr && size != 0)
            throw std::bad_alloc();
    }

    std::size_t size() const { return size_; }
    T *data() { return data_.get(); }
    const T *data() const { return data_.get(); }
    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }
    const T *begin() const { return data_.get(); }
    const T *end() const { return data_.get() + size_; }

    /** Return `count` elements from `first` on to `T{}`. */
    void
    clear(std::size_t first, std::size_t count)
    {
        std::fill_n(data_.get() + first, count, T{});
    }

  private:
    struct Free
    {
        void operator()(T *p) const { std::free(p); }
    };

    std::unique_ptr<T[], Free> data_;
    std::size_t size_;
};

} // namespace unxpec

#endif // UNXPEC_MEMORY_ZERO_ARRAY_HH
