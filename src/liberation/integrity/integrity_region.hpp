// Per-vdisk integrity region: one CRC32C per fixed-size block of the disk.
//
// Modeled as battery-backed metadata the same way `intent_log` is: a real
// array would keep these checksums in NVRAM or an interleaved on-disk
// format with its own redundancy; the simulator keeps them in a plain
// vector that survives power loss (dropped writes still *record* their
// checksum — the intent reached the metadata domain even though the bits
// never reached the medium, which is exactly what makes a torn write
// deterministically detectable on replay).
//
// The block size is the checksum granularity: the array uses
// gcd(sector_size, element_size), so every element-aligned disk I/O is
// also block-aligned and record()/verify() never straddle a partial block.
//
// Checksums are *not* updated by reads — verify() is const — and the
// region is preserved when a disk fail-stops or is replaced: the metadata
// describes the dead disk's last-known contents, which is what rebuild
// verification and replaced-disk reads need to check reconstructions
// against.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "liberation/integrity/crc32c.hpp"
#include "liberation/util/assert.hpp"
#include "liberation/xorops/xorops.hpp"

namespace liberation::integrity {

class integrity_region {
public:
    integrity_region(std::size_t capacity_bytes, std::size_t block_size)
        : block_(block_size) {
        LIBERATION_EXPECTS(block_size > 0);
        LIBERATION_EXPECTS(capacity_bytes % block_size == 0);
        // A fresh disk reads back as zeros, so seed every slot with the
        // checksum of a zero block: reads of never-written extents verify.
        const std::vector<std::byte> zero(block_size, std::byte{0});
        crcs_.assign(capacity_bytes / block_size,
                     crc32c(zero.data(), zero.size()));
    }

    [[nodiscard]] std::size_t block_size() const noexcept { return block_; }
    [[nodiscard]] std::size_t blocks() const noexcept { return crcs_.size(); }

    /// Record the checksums of the blocks covered by a write of `data` at
    /// byte `offset`. Offset and size must be block-aligned — the array
    /// guarantees this because all its disk I/O is element-aligned.
    void record(std::size_t offset, std::span<const std::byte> data) {
        check_range(offset, data.size());
        xorops::crc32c_blocks(data.data(), data.size(), block_,
                              crcs_.data() + offset / block_);
    }

    /// True iff every covered block of `data` matches its stored checksum.
    [[nodiscard]] bool verify(std::size_t offset,
                              std::span<const std::byte> data) const {
        check_range(offset, data.size());
        std::size_t b = offset / block_;
        std::uint32_t got[verify_chunk];
        for (std::size_t i = 0; i < data.size();) {
            const std::size_t run =
                std::min(data.size() - i, verify_chunk * block_);
            xorops::crc32c_blocks(data.data() + i, run, block_, got);
            for (std::size_t j = 0; j < run / block_; ++j)
                if (got[j] != crcs_[b + j]) return false;
            b += run / block_;
            i += run;
        }
        return true;
    }

    /// verify() that keeps the computed words: `out` receives one CRC32C
    /// per covered block (the fused sweep computes them for the verdict
    /// anyway) regardless of the outcome, so a caller about to write
    /// `data` back — rebuild commits, read-repair — can install() them
    /// instead of paying another traversal.
    [[nodiscard]] bool verify_capture(std::size_t offset,
                                      std::span<const std::byte> data,
                                      std::uint32_t* out) const {
        check_range(offset, data.size());
        xorops::crc32c_blocks(data.data(), data.size(), block_, out);
        return std::equal(out, out + data.size() / block_,
                          crcs_.data() + offset / block_);
    }

    /// Install checksums precomputed by a fused write traversal (one per
    /// covered block) without re-reading the data: the write path computes
    /// them inside the same pass that produces the bytes.
    void install(std::size_t offset, std::span<const std::uint32_t> crcs) {
        LIBERATION_EXPECTS(offset % block_ == 0);
        LIBERATION_EXPECTS(offset / block_ + crcs.size() <= crcs_.size());
        std::copy(crcs.begin(), crcs.end(), crcs_.data() + offset / block_);
    }

    /// The stored words of the blocks a write of `size` bytes at `offset`
    /// covers, for a writer that computes them as the bytes land
    /// (raid6_array::disk_write hands them to vdisk::write). Block-aligned,
    /// like record().
    [[nodiscard]] std::uint32_t* slots(std::size_t offset, std::size_t size) {
        check_range(offset, size);
        return crcs_.data() + offset / block_;
    }

    /// True iff precomputed per-block checksums (from a fused read
    /// traversal) all match the stored values for the covered range.
    [[nodiscard]] bool matches(std::size_t offset,
                               std::span<const std::uint32_t> crcs) const {
        LIBERATION_EXPECTS(offset % block_ == 0);
        LIBERATION_EXPECTS(offset / block_ + crcs.size() <= crcs_.size());
        return std::equal(crcs.begin(), crcs.end(),
                          crcs_.data() + offset / block_);
    }

    [[nodiscard]] std::uint32_t stored(std::size_t block) const {
        LIBERATION_EXPECTS(block < crcs_.size());
        return crcs_[block];
    }

    /// The whole checksum table, for serialization into the persistence
    /// layer's superblocks (raid/persist/).
    [[nodiscard]] std::span<const std::uint32_t> checksums() const noexcept {
        return crcs_;
    }

    /// Reinstall a persisted checksum table at mount. The count must match
    /// the region's geometry — a mismatch means the superblock belongs to
    /// a different disk size and the caller should have rejected it.
    void restore_checksums(std::span<const std::uint32_t> crcs) {
        LIBERATION_EXPECTS(crcs.size() == crcs_.size());
        crcs_.assign(crcs.begin(), crcs.end());
    }

    /// Fault injection: flip bits of a stored checksum (the metadata
    /// itself is damaged, not the data it describes). `mask` must be
    /// non-zero so the corruption is real.
    void corrupt_block(std::size_t block, std::uint32_t mask) {
        LIBERATION_EXPECTS(block < crcs_.size());
        LIBERATION_EXPECTS(mask != 0);
        crcs_[block] ^= mask;
    }

private:
    /// Blocks checksummed per verify() batch: bounds the stack buffer
    /// while amortizing the per-call dispatch over a cache-friendly run.
    static constexpr std::size_t verify_chunk = 64;

    void check_range(std::size_t offset, std::size_t size) const {
        LIBERATION_EXPECTS(offset % block_ == 0);
        LIBERATION_EXPECTS(size % block_ == 0);
        LIBERATION_EXPECTS(offset / block_ + size / block_ <= crcs_.size());
    }

    std::size_t block_;
    std::vector<std::uint32_t> crcs_;
};

}  // namespace liberation::integrity
