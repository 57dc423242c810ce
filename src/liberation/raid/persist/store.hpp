// Persistence store: the backing files of one RAID-6 array.
//
// A `store` owns one file per disk slot (`<dir>/disk-NN.img`), each framed
// as [file header][core A][core B][table copy A][table copy B][data area]
// (see superblock.hpp), through a `file_backend`. Both areas of each
// member file are mapped MAP_SHARED: the data area (map_data()) serves as
// that member's vdisk medium, and the metadata area below data_offset is
// where the store writes superblocks, so neither a data write nor a
// persist makes a system call. The metadata area is mapped for every slot
// of this array and never for a foreign one. The array keeps its
// authoritative metadata in memory; the store holds one mutable
// superblock *image* per slot, and the array's persistence hooks edit the
// relevant images and call persist().
//
// persist() costs what changed, not the whole superblock: checksum words
// enter an image through update_crcs(), which marks the 4 KiB table pages
// whose words actually changed. persist() bumps the image's seq, stores
// each dirty page into the table copy the last persisted core does not
// reference, then encodes the core into the slot's presized buffer and
// stores it into core slot `seq % 2`. Every byte goes through one funnel,
// write_meta(), which also counts the traffic (kStoreCounters). Every
// piece of that state — image, dirty bits, encode buffers, mapping —
// belongs to one slot. The array persists from whichever single thread
// runs its operation (the caller, or a volume shard's dispatcher), so one
// slot is never persisted from two threads at once.
//
// Fsync ordering (machine-crash durability, `store_config::sync_meta`):
// one fdatasync after the core write. The core records the CRC of every
// page it references, so pages and core may reach the medium in any
// order: a core whose pages did not all land fails validation and mount
// falls back to the previous core, whose pages this persist never
// touched. A record-ahead intent entry is therefore durable before the
// data writes it covers are issued — the same ordering the in-memory
// array maintains against simulated power loss. fdatasync also writes
// back the pages dirtied through the data mapping. With sync_meta off,
// writes still survive process kills (the kernel owns the page cache),
// which is what the chaos campaign's kill-and-remount phases exercise; a
// kill in the middle of a store can leave a torn core or page, which the
// two cores and the copy-on-write pages detect. See docs/PERSISTENCE.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "liberation/aio/file_backend.hpp"
#include "liberation/obs/metrics.hpp"
#include "liberation/raid/persist/superblock.hpp"

namespace liberation::raid::persist {

/// Metadata traffic of one store: a typed view of the counters
/// kStoreCounters declares in the owning array's registry.
struct store_stats {
    std::uint64_t pages_written = 0;  ///< checksum-table pages stored
    std::uint64_t cores_written = 0;  ///< superblock cores stored
    std::uint64_t meta_bytes = 0;     ///< header + page + core bytes stored
    std::uint64_t syncs = 0;          ///< fdatasync calls on member files
};

/// The store's counters (see obs::counter_def).
inline constexpr obs::counter_def<store_stats> kStoreCounters[] = {
    {"persist_table_pages_written_total",
     "checksum-table pages stored into the mapped metadata area (pages)",
     &store_stats::pages_written},
    {"persist_cores_written_total",
     "superblock cores stored into the mapped metadata area (cores)",
     &store_stats::cores_written},
    {"persist_meta_bytes_total",
     "metadata bytes stored: file headers, table pages and cores (bytes)",
     &store_stats::meta_bytes},
    {"persist_fdatasyncs_total", "fdatasync calls on member files (calls)",
     &store_stats::syncs},
};

struct store_config {
    std::string dir;          ///< directory holding disk-NN.img files
    /// Unsupported: the data area is a shared mapping, which cannot be
    /// O_DIRECT. create_array and mount_array refuse `true` by name.
    bool direct_io = false;
    bool sync_meta = false;   ///< fdatasync each superblock persist
    bool sync_data = false;   ///< fdatasync after each data write (paranoid mode)
};

/// What probe found in one slot's backing file, before any geometry is
/// known: header, both superblocks (core + pages), and how they decoded.
struct disk_probe {
    std::string path;
    bool file_present = false;
    std::uint64_t file_size = 0;  ///< bytes; a member shorter than its
                                  ///< data area's end is never mapped
    /// Format version the file header claims (0: no header magic). A
    /// value other than superblock_version is a file this build cannot
    /// read; mount refuses it by name instead of re-initializing it.
    std::uint32_t format_version = 0;
    bool header_ok = false;     ///< file header decoded and sane
    file_header header;
    int bad_slots = 0;          ///< cores invalid or with torn pages (0..2)
    /// The valid superblock with the larger seq, checksum table loaded
    /// from the pages its core references.
    std::optional<superblock> sb;
};

/// Read-only scan of a store directory (plain stdio — never creates or
/// modifies anything). Returns one probe per slot index from 0 through
/// the highest index with a file present; trailing entries may be absent
/// placeholders when earlier files exist but later ones were lost.
[[nodiscard]] std::vector<disk_probe> probe_dir(const std::string& dir);

class store {
public:
    /// `<dir>/disk-NN.img` for slot NN.
    [[nodiscard]] static std::string disk_path(const std::string& dir,
                                               std::uint32_t slot);

    /// Create fresh backing files for every slot: write-once file header,
    /// both checksum-table copies, then both cores primed with the given
    /// image (so even the very first persist has a valid fallback), and
    /// the data area preallocated. All
    /// images must share table dimensions — they fix the layout. The
    /// store's counters live in `metrics` (the owning array's registry).
    /// Returns nullptr if any file cannot be created or written.
    static std::unique_ptr<store> format(const store_config& cfg,
                                         std::vector<superblock> images,
                                         std::size_t disk_capacity,
                                         obs::registry& metrics);

    /// Reopen existing files laid out as `layout`. `images` holds the
    /// per-slot in-memory state the mounter decided on: decoded (checksum
    /// table and page table as the file's valid core describes them), or
    /// fabricated for kicked disks; slots listed in `fresh_slots` get
    /// their header, table copies and cores rewritten from scratch
    /// (missing or unreadable files being re-initialized as blank rebuild
    /// targets). Slots in `foreign_slots` hold another array's file: they
    /// are left out of metadata replication and never mapped or written
    /// until reinit_slot(). Every other slot's metadata area is mapped;
    /// one that cannot be (say, the filesystem is full when its area is
    /// allocated) is left unmapped, and meta_mapped() tells the mounter
    /// to fail that member. Returns nullptr when a fresh slot cannot be
    /// initialized.
    static std::unique_ptr<store> attach(
        const store_config& cfg, std::vector<superblock> images,
        std::size_t disk_capacity, const member_layout& layout,
        const std::vector<std::uint32_t>& fresh_slots,
        const std::vector<std::uint32_t>& foreign_slots,
        obs::registry& metrics);

    [[nodiscard]] std::size_t slot_count() const noexcept {
        return slots_.size();
    }
    [[nodiscard]] std::uint64_t uuid() const noexcept { return uuid_; }
    [[nodiscard]] const member_layout& layout() const noexcept {
        return layout_;
    }
    [[nodiscard]] bool slot_ok(std::uint32_t slot) const noexcept {
        return backend_->ok(slot);
    }
    /// True when the slot's metadata area is mapped, so its persists can
    /// succeed.
    [[nodiscard]] bool meta_mapped(std::uint32_t slot) const noexcept {
        return !slots_[slot].meta.empty();
    }

    /// Slots participating in metadata replication (superblock persists
    /// and data mappings). attach() leaves foreign or geometry-mismatched
    /// files out so a stray disk from another array is never
    /// overwritten; reinit_slot() reclaims a slot once the operator
    /// installs a blank replacement.
    [[nodiscard]] bool meta_slot(std::uint32_t slot) const noexcept {
        return ((meta_mask_ >> slot) & 1) != 0;
    }
    /// Reclaim a slot for this array: rewrite its file header, table
    /// copies and cores from the current image, preallocate its data area
    /// and re-enable metadata updates for it.
    bool reinit_slot(std::uint32_t slot);

    /// The mutable in-memory superblock image for a slot. The array's
    /// hooks edit images, then persist() the ones they touched. Checksum
    /// words change only through update_crcs(), which tracks the pages
    /// persist() must write.
    [[nodiscard]] superblock& image(std::uint32_t slot) {
        return slots_[slot].image;
    }
    [[nodiscard]] const superblock& image(std::uint32_t slot) const {
        return slots_[slot].image;
    }

    /// Set checksum words [first, first + words.size()) of a slot's image,
    /// marking dirty every table page whose words actually change.
    void update_crcs(std::uint32_t slot, std::size_t first,
                     std::span<const std::uint32_t> words);

    /// Bump the image's seq, store its dirty table pages copy-on-write,
    /// then its core into core slot `seq % 2` (one fdatasync when
    /// sync_meta). No system call unless sync_meta. False when the slot's
    /// metadata area is not mapped or the sync fails; the image then
    /// still owes the same pages to the next persist.
    bool persist(std::uint32_t slot);

    /// Map a slot's data area as its member's medium (empty on failure).
    [[nodiscard]] util::mapped_region map_data(std::uint32_t slot) const {
        return backend_->map_data(slot);
    }

    /// fdatasync one slot's file / every open file (both mappings
    /// included).
    [[nodiscard]] bool flush(std::uint32_t slot);
    [[nodiscard]] bool flush_all();
    [[nodiscard]] aio::file_backend& backend() noexcept { return *backend_; }
    [[nodiscard]] const store_config& config() const noexcept { return cfg_; }
    [[nodiscard]] store_stats stats() const noexcept {
        return ctr_.snapshot();
    }

private:
    /// Everything persist() touches for one slot; nothing is shared
    /// across slots.
    struct slot_meta {
        superblock image;
        /// Page table of the last persisted core: the copies a persist
        /// must not overwrite, and what a failed persist rolls back to.
        std::vector<table_page_ref> persisted;
        std::vector<std::uint64_t> dirty;  ///< one bit per table page
        std::vector<std::byte> core_buf;   ///< presized core encoding
        std::vector<std::byte> page_buf;   ///< one table page
        util::mapped_region meta;          ///< [0, data_offset) of the file
    };

    enum class meta_kind { header, page, core };

    store(store_config cfg, std::vector<superblock> images,
          const member_layout& layout, std::size_t disk_capacity,
          obs::registry& metrics);

    /// Map one slot's metadata area, then write its file header, both
    /// table copies and both cores from its image, and preallocate its
    /// data area.
    bool init_slot_file(std::uint32_t slot);

    /// The one path by which metadata reaches a member file: a store of
    /// `bytes` at file offset `offset` into the slot's mapped metadata
    /// area, counted by kind.
    void write_meta(slot_meta& m, std::uint64_t offset,
                    std::span<const std::byte> bytes, meta_kind kind);

    store_config cfg_;
    member_layout layout_;
    std::uint64_t uuid_;
    std::uint64_t meta_mask_ = ~std::uint64_t{0};
    std::vector<slot_meta> slots_;
    std::unique_ptr<aio::file_backend> backend_;
    obs::counter_set<kStoreCounters> ctr_;
};

}  // namespace liberation::raid::persist
