// Internal kernel table shared between the per-ISA translation units and
// the dispatcher (xorops.cpp). Not installed; include only from within
// src/liberation/xorops/.
//
// Each ISA tier provides one table of region kernels. All kernels accept
// arbitrary (unaligned) pointers and any byte count: vector bodies run
// full-width over the bulk of the region and delegate the sub-chunk
// remainder to the portable word/byte tail below, so a tier is correct for
// every (offset, size) combination, not just the aligned library buffers.
//
// Alias contract (all tiers): dst may coincide *exactly* with any source
// of a single xor_many pass — every source chunk is loaded before the
// destination chunk is stored. Partially overlapping regions are
// unsupported, as in the public API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace liberation::xorops::detail {

/// Sources fused per destination pass. Eight keeps 9 concurrent memory
/// streams (8 reads + 1 write) — comfortably within x86/arm L1 fill-buffer
/// budgets — and bounds the accumulator register pressure of the vector
/// bodies. The public xor_many() splits larger fan-ins into passes of at
/// most this many sources.
inline constexpr std::size_t max_fan_in = 8;

struct kernel_table {
    const char* name;  ///< impl_name() string, e.g. "avx2"

    /// dst ^= src.
    void (*xor_into)(std::byte* dst, const std::byte* src,
                     std::size_t n) noexcept;

    /// dst = a ^ b.
    void (*xor2)(std::byte* dst, const std::byte* a, const std::byte* b,
                 std::size_t n) noexcept;

    /// Fused reduction of one pass: dst (^)= srcs[0] ^ ... ^ srcs[m-1],
    /// reading each source once and writing dst once. `acc` selects ^= vs =.
    /// Requires 1 <= m <= max_fan_in.
    void (*xor_many)(std::byte* dst, const std::byte* const* srcs,
                     std::size_t m, std::size_t n, bool acc) noexcept;

    /// Fused CRC sweeps. All three produce the raw (inverted-state) CRC32C
    /// lane chains of one region per the integrity::crc32c_lane_bytes()
    /// split — lanes[0]/[1]/[2] cover [0,L)/[L,2L)/[2L,n), each chain
    /// seeded 0 — so the caller can stitch them into the region's standard
    /// CRC with a crc32c_lane_combiner. Every tier computes identical lane
    /// values; only the sweep speed differs.

    /// Checksum-only sweep of [src, src+n).
    void (*crc3)(const std::byte* src, std::size_t n,
                 std::uint32_t lanes[3]) noexcept;

    /// dst = src, checksumming the bytes inside the copy traversal.
    void (*copy_crc3)(std::byte* dst, const std::byte* src, std::size_t n,
                      std::uint32_t lanes[3]) noexcept;

    /// One xor_many pass whose final *stored* destination bytes are
    /// checksummed while still register/L1-hot. Same contract as xor_many.
    void (*xor_many_crc3)(std::byte* dst, const std::byte* const* srcs,
                          std::size_t m, std::size_t n, bool acc,
                          std::uint32_t lanes[3]) noexcept;

    /// Medium landings (xorops::land): dst = src with streaming
    /// (cache-bypassing) destination stores, left unfenced — the
    /// dispatcher fences once per landing. Null in tiers without
    /// streaming stores (scalar, neon): the dispatcher copies with
    /// regular stores.
    void (*copy_nt)(std::byte* dst, const std::byte* src,
                    std::size_t n) noexcept;

    /// copy_nt with the checksum lanes of the bytes moved computed inside
    /// the copy (copy_crc3's contract, streaming stores). Null where the
    /// tier has none: the dispatcher runs copy_nt and then crc3 over the
    /// still-cached source.
    void (*copy_crc3_nt)(std::byte* dst, const std::byte* src, std::size_t n,
                         std::uint32_t lanes[3]) noexcept;
};

const kernel_table& scalar_table() noexcept;
#if defined(__x86_64__) || defined(__i386__)
const kernel_table& avx2_table() noexcept;
const kernel_table& avx512_table() noexcept;
#endif
#if defined(__aarch64__)
const kernel_table& neon_table() noexcept;
#endif

/// Portable remainder: dst (^)= XOR of m sources over [off, n). Word steps
/// then bytes; used by every vector body for the last < chunk bytes, and by
/// the scalar tier for whole small regions.
inline void xor_many_tail(std::byte* dst, const std::byte* const* srcs,
                          std::size_t m, std::size_t off, std::size_t n,
                          bool acc) noexcept {
    std::size_t i = off;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t v;
        if (acc) {
            std::memcpy(&v, dst + i, 8);
        } else {
            std::memcpy(&v, srcs[0] + i, 8);
        }
        for (std::size_t s = acc ? 0 : 1; s < m; ++s) {
            std::uint64_t w;
            std::memcpy(&w, srcs[s] + i, 8);
            v ^= w;
        }
        std::memcpy(dst + i, &v, 8);
    }
    for (; i < n; ++i) {
        std::byte v = acc ? dst[i] : srcs[0][i];
        for (std::size_t s = acc ? 0 : 1; s < m; ++s) v ^= srcs[s][i];
        dst[i] = v;
    }
}

}  // namespace liberation::xorops::detail
