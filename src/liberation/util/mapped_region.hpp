// Move-only owner of one MAP_SHARED file mapping.
//
// The persistence layer maps two areas of each member file: the data
// area, which it hands to the member's vdisk as its medium, and the
// metadata area below it, which the superblock store writes. A store
// into a mapping lands in the page cache like a completed pwrite(), with
// no system call, and fdatasync() on the file writes it back. After a
// sync the kernel write-protects the synced pages again, so the first
// store into each of them takes a minor write fault. Destruction unmaps.
#pragma once

#include <cstddef>
#include <utility>

#if defined(_WIN32)
#error "mapped_region requires a POSIX platform"
#endif

#include <sys/mman.h>
#include <sys/types.h>

namespace liberation::util {

class mapped_region {
public:
    mapped_region() noexcept = default;

    /// Map [offset, offset + len) of `fd` read-write and shared. `offset`
    /// must be a page-size multiple. Returns an empty region on failure.
    [[nodiscard]] static mapped_region map_shared(int fd, std::size_t offset,
                                                  std::size_t len) noexcept {
        mapped_region r;
        if (fd < 0 || len == 0) return r;
        void* p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_SHARED, fd,
                         static_cast<off_t>(offset));
        if (p == MAP_FAILED) return r;
        r.data_ = static_cast<std::byte*>(p);
        r.size_ = len;
        return r;
    }

    mapped_region(const mapped_region&) = delete;
    mapped_region& operator=(const mapped_region&) = delete;
    mapped_region(mapped_region&& other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0)) {}
    mapped_region& operator=(mapped_region&& other) noexcept {
        if (this != &other) {
            release();
            data_ = std::exchange(other.data_, nullptr);
            size_ = std::exchange(other.size_, 0);
        }
        return *this;
    }
    ~mapped_region() { release(); }

    [[nodiscard]] std::byte* data() const noexcept { return data_; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return data_ == nullptr; }

private:
    void release() noexcept {
        if (data_ != nullptr) ::munmap(data_, size_);
        data_ = nullptr;
        size_ = 0;
    }

    std::byte* data_ = nullptr;
    std::size_t size_ = 0;
};

}  // namespace liberation::util
