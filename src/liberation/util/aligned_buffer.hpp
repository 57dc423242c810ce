// Cache-line-aligned RAII byte buffer for coding regions.
//
// Every strip/element buffer in the library lives in one of these: 64-byte
// alignment keeps the word-wise XOR kernels on their fast path and keeps
// buffers that different threads write (one per volume shard) off each
// other's cache lines.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <utility>

#include "liberation/util/assert.hpp"

namespace liberation::util {

class aligned_buffer {
public:
    static constexpr std::size_t alignment = 64;

    aligned_buffer() noexcept = default;

    /// Allocates `size` zero-initialized bytes. The allocation is rounded
    /// up to the next 64-byte (full vector register / cache line) multiple:
    /// capacity() >= size() is always a multiple of 64, and every byte up
    /// to capacity() is allocated and zero-initialized. Vector XOR kernels
    /// may therefore issue full-width *loads* over the tail of a
    /// library-owned buffer without faulting (tail *stores* must still stay
    /// within size(): elements of one strip share the buffer, so writing
    /// padding of an interior element would clobber its neighbour).
    explicit aligned_buffer(std::size_t size) : size_(size) {
        if (size_ == 0) return;
        capacity_ = (size_ + alignment - 1) / alignment * alignment;
        data_ = static_cast<std::byte*>(std::aligned_alloc(alignment, capacity_));
        if (data_ == nullptr) throw std::bad_alloc{};
        std::memset(data_, 0, capacity_);
    }

    aligned_buffer(const aligned_buffer&) = delete;
    aligned_buffer& operator=(const aligned_buffer&) = delete;

    aligned_buffer(aligned_buffer&& other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0)),
          capacity_(std::exchange(other.capacity_, 0)) {}

    aligned_buffer& operator=(aligned_buffer&& other) noexcept {
        if (this != &other) {
            release();
            data_ = std::exchange(other.data_, nullptr);
            size_ = std::exchange(other.size_, 0);
            capacity_ = std::exchange(other.capacity_, 0);
        }
        return *this;
    }

    ~aligned_buffer() { release(); }

    [[nodiscard]] std::byte* data() noexcept { return data_; }
    [[nodiscard]] const std::byte* data() const noexcept { return data_; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

    /// Allocated bytes: size() rounded up to a 64-byte multiple (0 for an
    /// empty buffer). Bytes in [size(), capacity()) are readable padding.
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

    [[nodiscard]] std::span<std::byte> span() noexcept { return {data_, size_}; }
    [[nodiscard]] std::span<const std::byte> span() const noexcept {
        return {data_, size_};
    }

    /// Sub-span [offset, offset+len).
    [[nodiscard]] std::span<std::byte> subspan(std::size_t offset,
                                               std::size_t len) noexcept {
        LIBERATION_EXPECTS(offset + len <= size_);
        return {data_ + offset, len};
    }

    void zero() noexcept {
        // Clears the padding too, restoring the all-zero tail guarantee.
        if (data_ != nullptr) std::memset(data_, 0, capacity_);
    }

private:
    void release() noexcept {
        std::free(data_);
        data_ = nullptr;
        size_ = 0;
        capacity_ = 0;
    }

    std::byte* data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
};

}  // namespace liberation::util
