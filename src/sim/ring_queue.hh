/**
 * @file
 * Fixed-capacity circular queue, used for the core's decode queue. A
 * std::deque's libstdc++ implementation allocates and frees 512-byte
 * node blocks as the queue breathes, heap churn in a per-cycle tick
 * path.
 * RingQueue allocates its full capacity once at construction and never
 * touches the heap again: push/pop are an index bump and an assignment.
 *
 * Deque-compatible surface used by the adopters: push_back, pop_front,
 * pop_back, front, back, operator[], size/empty/full, clear, and
 * forward iteration (range-for over live elements, oldest first).
 * Elements must be default-constructible and assignable; capacity is
 * a hard bound — push_back on a full ring is a logic error (panic).
 */

#ifndef UNXPEC_SIM_RING_QUEUE_HH
#define UNXPEC_SIM_RING_QUEUE_HH

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/log.hh"

namespace unxpec {

template <typename T>
class RingQueue
{
  public:
    explicit RingQueue(std::size_t capacity)
    {
        if (capacity == 0)
            panic("RingQueue: capacity must be positive");
        // lint-ok(steady-alloc): one-time construction, never regrows
        buf_.resize(capacity);
    }

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    bool full() const { return count_ == buf_.size(); }
    std::size_t capacity() const { return buf_.size(); }

    /** Element `i` positions past the oldest element. */
    T &operator[](std::size_t i) { return buf_[wrap(head_ + i)]; }
    const T &
    operator[](std::size_t i) const
    {
        return buf_[wrap(head_ + i)];
    }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }
    T &back() { return buf_[wrap(head_ + count_ - 1)]; }
    const T &back() const { return buf_[wrap(head_ + count_ - 1)]; }

    T &
    push_back(T value)
    {
        if (full())
            panic("RingQueue::push_back on full ring");
        const std::size_t slot = wrap(head_ + count_);
        buf_[slot] = std::move(value);
        ++count_;
        return buf_[slot];
    }

    void
    pop_front()
    {
        if (empty())
            panic("RingQueue::pop_front on empty ring");
        head_ = wrap(head_ + 1);
        --count_;
    }

    void
    pop_back()
    {
        if (empty())
            panic("RingQueue::pop_back on empty ring");
        --count_;
    }

    /** Drop the youngest elements until only `keep` remain. */
    void
    truncate(std::size_t keep)
    {
        if (keep > count_)
            panic("RingQueue::truncate beyond size");
        count_ = keep;
    }

    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

    template <bool Const>
    class Iter
    {
      public:
        using Ring = std::conditional_t<Const, const RingQueue, RingQueue>;
        using Ref = std::conditional_t<Const, const T &, T &>;
        using Ptr = std::conditional_t<Const, const T *, T *>;

        Iter(Ring *ring, std::size_t pos) : ring_(ring), pos_(pos) {}

        Ref operator*() const { return (*ring_)[pos_]; }
        Ptr operator->() const { return &(*ring_)[pos_]; }

        Iter &
        operator++()
        {
            ++pos_;
            return *this;
        }

        bool
        operator==(const Iter &other) const
        {
            return pos_ == other.pos_;
        }

        bool
        operator!=(const Iter &other) const
        {
            return pos_ != other.pos_;
        }

      private:
        Ring *ring_;
        std::size_t pos_;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    iterator begin() { return iterator(this, 0); }
    iterator end() { return iterator(this, count_); }
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, count_); }

  private:
    /** Ring index of position `i`; every caller passes i < 2 *
     *  capacity, so one compare-and-subtract replaces a division. */
    std::size_t
    wrap(std::size_t i) const
    {
        return i >= buf_.size() ? i - buf_.size() : i;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace unxpec

#endif // UNXPEC_SIM_RING_QUEUE_HH
