// File backend: the per-disk backing files of a persistent array.
//
// `file_backend` opens one regular file per disk slot, sized to
// `data_offset + capacity`. The raid/persist/ layer owns the metadata
// below `data_offset` (file header, superblock cores, checksum-table
// copies) and reads and writes it with positioned I/O through
// pread_raw()/pwrite_raw().
//
// Data lives in the mapping. map_data() maps a file's data area
// MAP_SHARED, and the member's vdisk uses that mapping as its medium, so
// a landed data write is one store into the page cache with no system
// call. No data transfer goes through this class.
//
// Durability model: a store into the mapping, like a completed pwrite(),
// survives a *process kill* (the page cache belongs to the kernel).
// Surviving a machine crash additionally needs fdatasync ordering, which
// writes back mmap-dirtied pages as well. The persistence layer drives it
// through flush() according to its fsync protocol (docs/PERSISTENCE.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "liberation/util/mapped_region.hpp"

namespace liberation::aio {

struct file_backend_config {
    /// Byte offset of the data area within each file: what map_data()
    /// maps starts here. The raw calls below address absolute file
    /// offsets (metadata lives below this). Must be a page-size multiple.
    std::size_t data_offset = 0;
};

/// Data-transfer counters. Always zero: data reaches the files through
/// the mapping, not through the backend. Kept because the stack bench
/// reports them.
struct file_backend_stats {
    std::uint64_t direct_transfers = 0;
    std::uint64_t buffered_transfers = 0;
    std::uint64_t direct_fallbacks = 0;
};

class file_backend {
public:
    /// Open (creating and extending as needed) one file per path. Each
    /// file is sized to `data_offset + capacity` so the whole data area
    /// can be mapped, reading zeros where never written. A path that
    /// cannot be opened leaves its slot permanently failed
    /// (ok(i) == false) — callers degrade around it the same way they
    /// degrade around a dead disk.
    file_backend(std::vector<std::string> paths, std::size_t capacity,
                 const file_backend_config& cfg = {});
    ~file_backend();

    file_backend(const file_backend&) = delete;
    file_backend& operator=(const file_backend&) = delete;

    /// True when the slot's file opened (and sized) successfully.
    [[nodiscard]] bool ok(std::uint32_t file) const noexcept;
    [[nodiscard]] file_backend_stats stats() const noexcept { return {}; }

    // ---- data area ------------------------------------------------------
    /// Map the file's data area read-write and shared; empty when the slot
    /// is not open or mmap fails.
    [[nodiscard]] util::mapped_region map_data(std::uint32_t file) const;
    /// Allocate the file's data area on the filesystem (posix_fallocate),
    /// so stores into the mapping never find a hole the filesystem cannot
    /// fill (which would raise SIGBUS).
    [[nodiscard]] bool preallocate_data(std::uint32_t file);

    // ---- raw access (absolute file offsets) -----------------------------
    // The persistence layer reads/writes superblock slots through these.
    [[nodiscard]] bool pread_raw(std::uint32_t file, std::size_t offset,
                                 std::span<std::byte> out);
    [[nodiscard]] bool pwrite_raw(std::uint32_t file, std::size_t offset,
                                  std::span<const std::byte> in);

    /// fdatasync one file / all open files, mapped data included. Needed
    /// only for machine-crash durability.
    [[nodiscard]] bool flush(std::uint32_t file);
    [[nodiscard]] bool flush_all();

private:
    file_backend_config cfg_;
    std::size_t capacity_;
    std::vector<int> fds_;  ///< -1 = open failed
};

}  // namespace liberation::aio
