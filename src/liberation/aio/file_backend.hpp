// File backend: the per-disk backing files of a persistent array.
//
// `file_backend` opens one regular file per disk slot, sized to
// `data_offset + capacity`. Both areas of a file are reached through
// MAP_SHARED mappings, never through positioned I/O:
//
//   * map_meta() maps the metadata area [0, data_offset) that the
//     raid/persist/ layer owns (file header, superblock cores, checksum-
//     table copies); a superblock persist is a few stores into it;
//   * map_data() maps the data area, which the member's vdisk uses as its
//     medium, so a landed data write is one store into the page cache.
//
// No byte transfer goes through this class; a persist or a data write
// makes no system call. Both areas are allocated on the filesystem
// before they are stored into (map_meta() does it, preallocate_data() for
// the data area), so a store never finds a hole the filesystem cannot
// fill, which would raise SIGBUS.
//
// Durability model: a store into a mapping survives a *process kill* (the
// page cache belongs to the kernel), though a kill in the middle of a
// store can leave that store half done. Surviving a machine crash
// additionally needs fdatasync ordering, which writes back mmap-dirtied
// pages. The persistence layer drives it through flush() according to
// its fsync protocol (docs/PERSISTENCE.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "liberation/util/mapped_region.hpp"

namespace liberation::aio {

struct file_backend_config {
    /// Byte offset of the data area within each file: map_meta() maps
    /// what lies below it, map_data() what starts here. Must be a
    /// page-size multiple.
    std::size_t data_offset = 0;
};

/// Transfer counters. Always zero: bytes reach the files through the
/// mappings, not through the backend. Kept because the stack bench
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

    // ---- metadata area ----------------------------------------------------
    /// Allocate the file's metadata area [0, data_offset) on the
    /// filesystem (posix_fallocate), then map it read-write and shared;
    /// empty when the slot is not open or either step fails.
    [[nodiscard]] util::mapped_region map_meta(std::uint32_t file);

    /// fdatasync one file, both mappings included. Needed only for
    /// machine-crash durability.
    [[nodiscard]] bool flush(std::uint32_t file);

private:
    file_backend_config cfg_;
    std::size_t capacity_;
    std::vector<int> fds_;  ///< -1 = open failed
};

}  // namespace liberation::aio
