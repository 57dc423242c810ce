// CRC32C (Castagnoli) kernel: the checksum currency of the integrity
// layer, mirroring the xorops kernel conventions (plain-pointer kernels,
// span-flavoured overloads, runtime-dispatched implementations).
//
// Three implementations sit behind one entry point, the best one the CPU
// reports chosen at runtime:
//   * fold — carry-less-multiply folding (x86 VPCLMULQDQ on 512-bit
//     registers, with AVX-512VL): four accumulators fold 256 bytes per
//     step and two crc32 instructions finish, so a sweep runs at memory
//     speed rather than at the crc32 unit's;
//   * hardware — the SSE4.2 `crc32` instruction (x86) or the ARMv8 CRC
//     extension: the three-lane sweep (crc32c_lanes_hardware) stitched by
//     a cached crc32c_lane_combiner;
//   * software — slice-by-8 table lookup, portable, ~1-2 GiB/s; the
//     reference both others are tested against.
// The fused xorops kernels sweep through the same kernels (the avx512 tier
// through the fold where the CPU has it), so metadata CRCs and the data
// path share one checksum engine.
//
// The polynomial is the Castagnoli one (0x1EDC6F41, reflected 0x82F63B78),
// i.e. the CRC used by iSCSI, ext4 metadata and btrfs — chosen over
// CRC32/ISO for its better Hamming distance at 4 KiB block sizes, which is
// exactly the granularity the integrity regions checksum at.
//
// Convention: crc32c(data, n) starts from seed 0 and includes the standard
// pre/post inversion, so crc32c("123456789") == 0xE3069283 (the check
// value every CRC32C implementation must reproduce). Passing a previous
// result as `seed` continues the stream:
//   crc32c(a ++ b) == crc32c(b, crc32c(a)).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace liberation::integrity {

enum class crc32c_impl : std::uint8_t { software, hardware, fold };

/// The implementation crc32c() currently dispatches to: fold where the
/// CPU supports it, else hardware where it supports that, else software.
[[nodiscard]] crc32c_impl active_impl() noexcept;

/// True when this CPU can run the hardware (crc32 instruction) path.
[[nodiscard]] bool hardware_available() noexcept;

/// True when this CPU can run the fold path (x86 VPCLMULQDQ, AVX-512F/VL,
/// PCLMUL and SSE4.2).
[[nodiscard]] bool fold_available() noexcept;

/// Pin the dispatched implementation (tests and the crc32c bench compare
/// the paths). An unavailable fold degrades to hardware, an unavailable
/// hardware to software.
void force_impl(crc32c_impl impl) noexcept;

/// CRC32C of [data, data+n), continuing from `seed` (0 = fresh stream).
[[nodiscard]] std::uint32_t crc32c(const std::byte* data, std::size_t n,
                                   std::uint32_t seed = 0) noexcept;

[[nodiscard]] inline std::uint32_t crc32c(std::span<const std::byte> data,
                                          std::uint32_t seed = 0) noexcept {
    return crc32c(data.data(), data.size(), seed);
}

/// The individual kernels, exposed for cross-validation and benchmarking.
/// crc32c_hardware() must only be called when hardware_available(),
/// crc32c_fold() only when fold_available().
[[nodiscard]] std::uint32_t crc32c_software(const std::byte* data,
                                            std::size_t n,
                                            std::uint32_t seed = 0) noexcept;
[[nodiscard]] std::uint32_t crc32c_hardware(const std::byte* data,
                                            std::size_t n,
                                            std::uint32_t seed = 0) noexcept;
[[nodiscard]] std::uint32_t crc32c_fold(const std::byte* data, std::size_t n,
                                        std::uint32_t seed = 0) noexcept;

// ---------------------------------------------------------------------------
// Lane kernels and lane algebra of the hardware crc32c() and of the fused
// XOR+CRC traversals (xorops). The lane kernels advance the *inverted*
// running CRC with no ~seed/~result bracketing — the state domain in which
// CRC updates are linear over GF(2), so independently computed chains can
// be stitched together after the fact.

/// Lane split rule shared by every fused kernel tier: a block of n bytes
/// is checksummed as three independent chains over [0, L), [L, 2L) and
/// [2L, n) with L = crc32c_lane_bytes(n) — three chains hide the 3-cycle
/// latency of the hardware crc32 instruction, tripling sweep throughput.
/// L is 8-byte aligned so the chains advance in whole-word steps; blocks
/// under 24 bytes degenerate to a single chain in lane 2.
[[nodiscard]] constexpr std::size_t crc32c_lane_bytes(std::size_t n) noexcept {
    return (n / 3) & ~static_cast<std::size_t>(7);
}

/// The lane sweep: lanes[0]/[1]/[2] receive the raw CRC chains (each
/// seeded 0) of [0,L)/[L,2L)/[2L,n) of [src, src+n). Every kernel
/// computes identical lanes: the hardware one interleaves three crc32
/// chains (only when hardware_available()), the fold one folds each lane
/// in turn (only when fold_available(); x86-64 builds only). Every fused
/// xorops tier checksums through one of these.
void crc32c_lanes_software(const std::byte* src, std::size_t n,
                           std::uint32_t lanes[3]) noexcept;
void crc32c_lanes_hardware(const std::byte* src, std::size_t n,
                           std::uint32_t lanes[3]) noexcept;
#if defined(__x86_64__)
void crc32c_lanes_fold(const std::byte* src, std::size_t n,
                       std::uint32_t lanes[3]) noexcept;
/// The fold sweep inside a copy: dst = src, and `lanes` are those of the
/// bytes moved, read once for both jobs. With `stream` the destination is
/// written with streaming (cache-bypassing) stores, left unfenced: the
/// caller issues one store fence before anyone may rely on the bytes.
void crc32c_copy_lanes_fold(std::byte* dst, const std::byte* src,
                            std::size_t n, std::uint32_t lanes[3],
                            bool stream) noexcept;
#endif

/// Stitches the three raw lane chains of one fixed-size block back into
/// the block's standard CRC32C. The stitch multiplies each lane CRC by
/// x^(8*shift) mod P — a linear map precomputed into nibble lookup tables
/// at construction (zlib's crc32_combine operator, cached for the block
/// size instead of rebuilt per call), so combining costs ~20 table
/// lookups per block regardless of block size.
class crc32c_lane_combiner {
public:
    explicit crc32c_lane_combiner(std::size_t block_bytes) noexcept;

    [[nodiscard]] std::size_t block() const noexcept { return n_; }

    /// `lanes` holds the raw lane chains (each seeded 0) produced by a
    /// fused kernel over one block() -byte region. Returns the standard
    /// (seed 0, bracketed) CRC32C of the whole block.
    [[nodiscard]] std::uint32_t combine(
        const std::uint32_t lanes[3]) const noexcept {
        return ~(apply(shift_hi_, lanes[0]) ^ apply(shift_lo_, lanes[1]) ^
                 lanes[2] ^ seed_term_);
    }

    /// The same block continued from `seed`: crc32c(block, seed). The
    /// seed enters linearly, advanced through all block() bytes by a
    /// bit-matrix product (only a nonzero seed pays for it).
    [[nodiscard]] std::uint32_t combine(const std::uint32_t lanes[3],
                                        std::uint32_t seed) const noexcept {
        std::uint32_t r = combine(lanes);
        for (int i = 0; seed != 0; ++i, seed >>= 1) {
            if ((seed & 1u) != 0) r ^= shift_all_[i];
        }
        return r;
    }

private:
    /// x^(8*len) mod P as 8 nibble tables: apply() advances a raw state
    /// by `len` zero bytes in 8 lookups.
    struct shift_op {
        std::uint32_t tab[8][16];
    };

    [[nodiscard]] static std::uint32_t apply(const shift_op& op,
                                             std::uint32_t x) noexcept {
        std::uint32_t r = 0;
        for (int k = 0; k < 8; ++k) r ^= op.tab[k][(x >> (4 * k)) & 0xfu];
        return r;
    }

    std::size_t n_;
    shift_op shift_hi_;        ///< advance by n - L bytes (lane 0)
    shift_op shift_lo_;        ///< advance by n - 2L bytes (lane 1)
    std::uint32_t shift_all_[32];  ///< advance by n bytes, one column per bit
    std::uint32_t seed_term_;  ///< the ~0 seed advanced through all n bytes
};

/// The combiner for `block_bytes`, from a small per-thread cache: building
/// one costs a few thousand GF(2) matrix products, so callers that
/// checksum the same sizes over and over (table pages, cores, data
/// blocks) pay it once per thread. The reference stays valid until this
/// thread has asked for more than the cache's worth of other sizes.
[[nodiscard]] const crc32c_lane_combiner& crc32c_combiner_for(
    std::size_t block_bytes) noexcept;

}  // namespace liberation::integrity
