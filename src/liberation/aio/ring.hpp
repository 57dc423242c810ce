// Fixed-capacity circular rings backing a queue_pair.
//
// Deliberately single-threaded: a queue_pair is driven by one thread at a
// time, which both submits and drains, so these need no atomics and stay
// trivially inspectable in tests.
#pragma once

#include <cstddef>
#include <vector>

namespace liberation::aio {

/// Power-of-two-free circular buffer with explicit capacity. push() on a
/// full ring and pop() on an empty ring are programmer errors; callers
/// (the queue_pair) size rings from the configured queue depth so neither
/// can occur in correct use — both are guarded in debug via the full()/
/// empty() predicates the call sites check.
template <typename T>
class ring {
public:
    explicit ring(std::size_t capacity)
        : slots_(capacity == 0 ? 1 : capacity) {}

    [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
    [[nodiscard]] std::size_t size() const noexcept { return count_; }
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
    [[nodiscard]] bool full() const noexcept { return count_ == slots_.size(); }

    /// Append one entry; returns false (entry dropped) if full.
    bool push(const T& value) {
        if (full()) return false;
        slots_[tail_] = value;
        tail_ = next(tail_);
        ++count_;
        return true;
    }

    /// Remove and return the oldest entry; ring must not be empty.
    T pop() {
        T value = slots_[head_];
        head_ = next(head_);
        --count_;
        return value;
    }

    /// Oldest entry without removing it; ring must not be empty.
    [[nodiscard]] const T& front() const { return slots_[head_]; }

    void clear() noexcept {
        head_ = tail_ = 0;
        count_ = 0;
    }

private:
    [[nodiscard]] std::size_t next(std::size_t i) const noexcept {
        return i + 1 == slots_.size() ? 0 : i + 1;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
    std::size_t count_ = 0;
};

}  // namespace liberation::aio
