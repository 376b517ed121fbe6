/**
 * @file
 * A fixed-capacity FIFO over one contiguous array: the storage behind
 * the reorder buffer and the fetch queue.  Slots are reused in place,
 * so an element's address is stable from push to pop, neither end ever
 * allocates, and the i-th oldest element is one add and one compare
 * away.
 */

#ifndef CPE_CPU_RING_HH
#define CPE_CPU_RING_HH

#include <cstddef>
#include <vector>

#include "util/logging.hh"

namespace cpe::cpu {

/** Fixed-capacity ring buffer, oldest element at index 0. */
template <typename T>
class Ring
{
  public:
    explicit Ring(std::size_t capacity) : slots_(capacity)
    {
        CPE_ASSERT(capacity >= 1, "a ring needs at least one slot");
    }

    std::size_t capacity() const { return slots_.size(); }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == slots_.size(); }

    /** The @p i-th oldest element; @p i < size(). */
    T &operator[](std::size_t i) { return slots_[wrap(head_ + i)]; }
    const T &operator[](std::size_t i) const
    {
        return slots_[wrap(head_ + i)];
    }

    T &front() { return slots_[head_]; }

    /** Append a copy of @p value; @return the element in its slot. */
    T &push_back(const T &value) { return claim() = value; }

    /** Append a value-initialized element, to be filled in place. */
    T &emplace_back() { return claim() = T{}; }

    void
    pop_front()
    {
        CPE_ASSERT(size_ > 0, "pop_front on an empty ring");
        head_ = wrap(head_ + 1);
        --size_;
    }

    void clear() { head_ = size_ = 0; }

  private:
    /** Reduce an index below 2 * capacity() into the array. */
    std::size_t
    wrap(std::size_t i) const
    {
        return i >= slots_.size() ? i - slots_.size() : i;
    }

    T &
    claim()
    {
        CPE_ASSERT(!full(), "push into a full ring");
        T &slot = slots_[wrap(head_ + size_)];
        ++size_;
        return slot;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace cpe::cpu

#endif // CPE_CPU_RING_HH
