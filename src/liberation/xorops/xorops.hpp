// Word-wise XOR/copy kernels over byte regions, with per-thread operation
// counters and runtime-dispatched SIMD implementations.
//
// These kernels are the universal currency of XOR-based erasure coding: one
// region corresponds to one array-code *element* (paper Section II-A), and
// one region-XOR corresponds to one "XOR" in the paper's complexity
// accounting. The counters therefore drive every complexity figure
// (Figs. 5-8, Table I) with zero extra plumbing: run the real encoder on
// tiny regions and read the counters.
//
// Counting convention (matches the paper and Jerasure): combining n source
// regions into a destination costs n-1 XORs — the first write is a *copy*
// and is counted separately. The fused reduction preserves this exactly:
// xor_many over n sources counts 1 copy + n-1 XORs, and xor_many_into over
// n sources counts n XORs, regardless of how many memory passes the
// dispatched kernel actually performs. Complexity numbers are therefore
// invariant under fusing and across implementations. Counter updates are
// one thread-local increment per region op, which is noise next to even an
// 8-byte memory op, so the same code path serves both the complexity and
// the throughput benches.
//
// Dispatch (same pattern as integrity/crc32c.hpp): the best tier the CPU
// supports — AVX-512F, AVX2, NEON, or the portable scalar body — is
// selected once, lazily, via CPUID/baseline-ISA detection. The environment
// variable LIBERATION_XOR_IMPL ("scalar", "avx2", "avx512", "neon", or
// "auto") overrides the choice at startup; an unavailable or unknown value
// falls back to auto-detection, and "scalar" is the guaranteed-available
// forced-software fallback. Tests pin tiers with force_impl().
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace liberation::xorops {

/// Per-thread region-operation counters.
struct op_stats {
    std::uint64_t xor_ops = 0;    ///< dst ^= src region operations
    std::uint64_t copy_ops = 0;   ///< dst = src region operations
    std::uint64_t bytes_xored = 0;
    std::uint64_t bytes_copied = 0;

    void reset() noexcept { *this = op_stats{}; }
};

/// Mutable reference to this thread's counters.
op_stats& counters() noexcept;

/// Convenience: reset this thread's counters.
void reset_counters() noexcept;

// ---------------------------------------------------------------------------
// Implementation dispatch.

enum class xor_impl : std::uint8_t { scalar, avx2, avx512, neon };

/// The implementation every kernel currently dispatches to.
[[nodiscard]] xor_impl active_impl() noexcept;

/// True when this build/CPU can run the given tier (scalar always can).
[[nodiscard]] bool impl_available(xor_impl impl) noexcept;

/// Tier the library would pick on its own: the LIBERATION_XOR_IMPL
/// override when set and available, else the best tier the CPU supports.
[[nodiscard]] xor_impl default_impl() noexcept;

/// Pin the dispatched tier (benches sweep tiers; tests cross-validate).
/// An unavailable tier degrades to default_impl().
void force_impl(xor_impl impl) noexcept;

/// Lower-case tier name ("scalar", "avx2", "avx512", "neon").
[[nodiscard]] const char* impl_name(xor_impl impl) noexcept;

/// Parse an impl name as accepted by LIBERATION_XOR_IMPL. Returns true and
/// sets `out` on success ("auto" maps to the auto-detected best tier).
[[nodiscard]] bool impl_from_name(const char* name, xor_impl& out) noexcept;

/// Sources fused per destination memory pass by xor_many (larger fan-ins
/// are split into passes of at most this many sources).
[[nodiscard]] std::size_t max_fused_sources() noexcept;

// ---------------------------------------------------------------------------
// Fused XOR+CRC32C traversals. Each call covers one region of n bytes
// treated as n/block fixed-size checksum blocks (n must be a multiple of
// block): the region is produced / read exactly as by the non-fused
// kernel, and crcs[b] receives the standard CRC32C (seed 0) of block b —
// computed inside the same traversal while the bytes are register/L1-hot,
// so the separate checksum pass over cold memory disappears. Counters are
// incremented exactly as for the equivalent non-fused kernel; the CRC
// work is never counted (complexity figures are invariant under fusing).

/// Checksum-only sweep: crcs[b] = CRC32C of block b of [src, src+n).
void crc32c_blocks(const std::byte* src, std::size_t n, std::size_t block,
                   std::uint32_t* crcs) noexcept;

/// dst = src with per-block CRCs of the bytes moved (one copy op).
void copy_crc32c_blocks(std::byte* dst, const std::byte* src, std::size_t n,
                        std::size_t block, std::uint32_t* crcs) noexcept;

/// xor_many with per-block CRCs of the final destination bytes (counted
/// as 1 copy + nsrc-1 XORs, like xor_many). Requires nsrc >= 1.
void xor_many_crc32c_blocks(std::byte* dst, const std::byte* const* srcs,
                            std::size_t nsrc, std::size_t n, std::size_t block,
                            std::uint32_t* crcs) noexcept;

/// xor_many_into with per-block CRCs of the final destination bytes
/// (counted as nsrc XORs). nsrc == 0 degenerates to a checksum-only sweep
/// of the existing destination contents.
void xor_many_into_crc32c_blocks(std::byte* dst, const std::byte* const* srcs,
                                 std::size_t nsrc, std::size_t n,
                                 std::size_t block,
                                 std::uint32_t* crcs) noexcept;

// ---------------------------------------------------------------------------
// Medium landings: the copy that puts a write's bytes on a disk's medium
// (raid::vdisk::write). Landing is I/O, not coding work, so neither entry
// is counted.

/// dst = src. With `stream` the destination is written with streaming
/// (cache-bypassing) stores where the tier has them, and a store fence is
/// issued before returning: the bytes are globally visible before the
/// caller acts on the write (e.g. installs and persists its checksums).
void land(std::byte* dst, const std::byte* src, std::size_t n,
          bool stream) noexcept;

/// land() that also computes crcs[b] = CRC32C of block b of the bytes
/// moved, inside the copy (n must be a multiple of block).
void land_crc32c_blocks(std::byte* dst, const std::byte* src, std::size_t n,
                        bool stream, std::size_t block,
                        std::uint32_t* crcs) noexcept;

// ---------------------------------------------------------------------------
// Region kernels. All accept arbitrary (sector-offset) pointers and any
// size. Regions must not partially overlap; dst may coincide exactly with
// a source (for xor_many/xor_many_into: only sources among the first
// max_fused_sources(), i.e. within the first fused pass).

/// True when regions made of `element_size`-byte elements may be handed to
/// the kernels where they sit — in a host buffer or on a mapped medium —
/// rather than only inside a library-owned aligned_buffer. A kernel may
/// issue full-width loads over an element's tail (the aligned_buffer
/// contract), which stays inside the element only when its size is a
/// multiple of the 64-byte load quantum; otherwise a load at the end of a
/// host allocation or of a mapping could cross past it, and the caller
/// copies into its own buffer first. The one predicate for every such
/// choice (the stripe writer's zero-copy data, the array's views).
[[nodiscard]] constexpr bool reads_in_place(std::size_t element_size) noexcept {
    return element_size % 64 == 0;
}

/// dst[i] ^= src[i] for n bytes (dst == src is allowed and zeroes dst).
void xor_into(std::byte* dst, const std::byte* src, std::size_t n) noexcept;

/// dst[i] = a[i] ^ b[i] for n bytes (counted as one XOR op).
void xor2(std::byte* dst, const std::byte* a, const std::byte* b,
          std::size_t n) noexcept;

/// Fused multi-source reduction: dst = srcs[0] ^ ... ^ srcs[nsrc-1],
/// reading each source once and writing dst once per fused pass instead of
/// performing nsrc read-modify-write round trips. Requires nsrc >= 1
/// (nsrc == 1 degenerates to a copy). Counted as 1 copy + nsrc-1 XORs —
/// identical to the copy + xor_into chain it replaces.
void xor_many(std::byte* dst, const std::byte* const* srcs, std::size_t nsrc,
              std::size_t n) noexcept;

/// Accumulating variant: dst ^= srcs[0] ^ ... ^ srcs[nsrc-1]. nsrc == 0 is
/// a no-op. Counted as nsrc XORs.
void xor_many_into(std::byte* dst, const std::byte* const* srcs,
                   std::size_t nsrc, std::size_t n) noexcept;

/// Scatter one source into several destinations: dsts[d] ^= src for all
/// ndst destinations (the parity-update pattern — one delta, 2-3 parity
/// targets). Counted as ndst XORs.
void xor_broadcast(std::byte* const* dsts, std::size_t ndst,
                   const std::byte* src, std::size_t n) noexcept;

/// dst = src (counted as one copy op).
void copy(std::byte* dst, const std::byte* src, std::size_t n) noexcept;

/// dst = 0 (not counted; used only for buffer setup).
void zero(std::byte* dst, std::size_t n) noexcept;

/// True iff the n-byte region is all zero bytes.
[[nodiscard]] bool is_zero(const std::byte* src, std::size_t n) noexcept;

/// True iff two n-byte regions are byte-identical.
[[nodiscard]] bool equal(const std::byte* a, const std::byte* b,
                         std::size_t n) noexcept;

// Span-flavoured overloads (sizes must match; checked).
void xor_into(std::span<std::byte> dst, std::span<const std::byte> src) noexcept;
void xor2(std::span<std::byte> dst, std::span<const std::byte> a,
          std::span<const std::byte> b) noexcept;
void copy(std::span<std::byte> dst, std::span<const std::byte> src) noexcept;

/// RAII scope that zeroes this thread's counters on entry and exposes the
/// delta on request — keeps complexity measurements exception-safe.
class counting_scope {
public:
    counting_scope() noexcept { reset_counters(); }
    counting_scope(const counting_scope&) = delete;
    counting_scope& operator=(const counting_scope&) = delete;
    ~counting_scope() = default;

    [[nodiscard]] op_stats snapshot() const noexcept { return counters(); }
    [[nodiscard]] std::uint64_t xors() const noexcept {
        return counters().xor_ops;
    }
    [[nodiscard]] std::uint64_t copies() const noexcept {
        return counters().copy_ops;
    }
};

/// RAII scope that pins a tier and restores the previous one on exit —
/// keeps tier-sweeping tests and benches exception-safe.
class impl_scope {
public:
    explicit impl_scope(xor_impl impl) noexcept : prev_(active_impl()) {
        force_impl(impl);
    }
    impl_scope(const impl_scope&) = delete;
    impl_scope& operator=(const impl_scope&) = delete;
    ~impl_scope() { force_impl(prev_); }

private:
    xor_impl prev_;
};

}  // namespace liberation::xorops
