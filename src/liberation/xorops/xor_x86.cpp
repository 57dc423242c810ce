// AVX2 and AVX-512F XOR kernel tiers (x86 only; this file compiles to
// nothing elsewhere). Bodies use `__attribute__((target))` rather than
// file-level -m flags — the same pattern as integrity/crc32c.cpp — so no
// instruction outside these functions requires the extended ISA, and the
// dispatcher may safely take their addresses on any x86 CPU.
//
// All loads/stores are unaligned variants: on every AVX2/AVX-512 core the
// unaligned instruction at an aligned address costs the same as the
// aligned one, and the kernels must accept sector-offset pointers.
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include "liberation/integrity/crc32c.hpp"
#include "liberation/xorops/xor_kernels.hpp"

namespace liberation::xorops::detail {

namespace {

// ---------------------------------------------------------------------------
// AVX2: 64-byte chunks (2 x 32-byte lanes).

__attribute__((target("avx2"))) void xor_into_avx2(std::byte* dst,
                                                   const std::byte* src,
                                                   std::size_t n) noexcept {
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        const __m256i d0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
        const __m256i d1 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 32));
        const __m256i s0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
        const __m256i s1 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 32));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                            _mm256_xor_si256(d0, s0));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32),
                            _mm256_xor_si256(d1, s1));
    }
    const std::byte* srcs[1] = {src};
    xor_many_tail(dst, srcs, 1, i, n, /*acc=*/true);
}

__attribute__((target("avx2"))) void xor2_avx2(std::byte* dst,
                                               const std::byte* a,
                                               const std::byte* b,
                                               std::size_t n) noexcept {
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        const __m256i a0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
        const __m256i a1 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i + 32));
        const __m256i b0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
        const __m256i b1 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i + 32));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                            _mm256_xor_si256(a0, b0));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32),
                            _mm256_xor_si256(a1, b1));
    }
    const std::byte* srcs[2] = {a, b};
    xor_many_tail(dst, srcs, 2, i, n, /*acc=*/false);
}

__attribute__((target("avx2"))) void xor_many_avx2(std::byte* dst,
                                                   const std::byte* const* srcs,
                                                   std::size_t m, std::size_t n,
                                                   bool acc) noexcept {
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        __m256i a0, a1;
        std::size_t s;
        if (acc) {
            a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
            a1 = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(dst + i + 32));
            s = 0;
        } else {
            a0 = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(srcs[0] + i));
            a1 = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(srcs[0] + i + 32));
            s = 1;
        }
        for (; s < m; ++s) {
            a0 = _mm256_xor_si256(
                a0, _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(srcs[s] + i)));
            a1 = _mm256_xor_si256(
                a1, _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(srcs[s] + i + 32)));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), a0);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32), a1);
    }
    xor_many_tail(dst, srcs, m, i, n, acc);
}

// ---------------------------------------------------------------------------
// AVX-512F: 128-byte chunks (2 zmm), then one 64-byte step. Pure xors never
// need the BW/DQ extensions, so plain avx512f is the gate.

__attribute__((target("avx512f"))) void xor_into_avx512(
    std::byte* dst, const std::byte* src, std::size_t n) noexcept {
    std::size_t i = 0;
    for (; i + 128 <= n; i += 128) {
        const __m512i d0 = _mm512_loadu_si512(dst + i);
        const __m512i d1 = _mm512_loadu_si512(dst + i + 64);
        const __m512i s0 = _mm512_loadu_si512(src + i);
        const __m512i s1 = _mm512_loadu_si512(src + i + 64);
        _mm512_storeu_si512(dst + i, _mm512_xor_si512(d0, s0));
        _mm512_storeu_si512(dst + i + 64, _mm512_xor_si512(d1, s1));
    }
    if (i + 64 <= n) {
        _mm512_storeu_si512(dst + i,
                            _mm512_xor_si512(_mm512_loadu_si512(dst + i),
                                             _mm512_loadu_si512(src + i)));
        i += 64;
    }
    const std::byte* srcs[1] = {src};
    xor_many_tail(dst, srcs, 1, i, n, /*acc=*/true);
}

__attribute__((target("avx512f"))) void xor2_avx512(std::byte* dst,
                                                    const std::byte* a,
                                                    const std::byte* b,
                                                    std::size_t n) noexcept {
    std::size_t i = 0;
    for (; i + 128 <= n; i += 128) {
        const __m512i a0 = _mm512_loadu_si512(a + i);
        const __m512i a1 = _mm512_loadu_si512(a + i + 64);
        const __m512i b0 = _mm512_loadu_si512(b + i);
        const __m512i b1 = _mm512_loadu_si512(b + i + 64);
        _mm512_storeu_si512(dst + i, _mm512_xor_si512(a0, b0));
        _mm512_storeu_si512(dst + i + 64, _mm512_xor_si512(a1, b1));
    }
    if (i + 64 <= n) {
        _mm512_storeu_si512(dst + i,
                            _mm512_xor_si512(_mm512_loadu_si512(a + i),
                                             _mm512_loadu_si512(b + i)));
        i += 64;
    }
    const std::byte* srcs[2] = {a, b};
    xor_many_tail(dst, srcs, 2, i, n, /*acc=*/false);
}

__attribute__((target("avx512f"))) void xor_many_avx512(
    std::byte* dst, const std::byte* const* srcs, std::size_t m, std::size_t n,
    bool acc) noexcept {
    std::size_t i = 0;
    for (; i + 128 <= n; i += 128) {
        __m512i a0, a1;
        std::size_t s;
        if (acc) {
            a0 = _mm512_loadu_si512(dst + i);
            a1 = _mm512_loadu_si512(dst + i + 64);
            s = 0;
        } else {
            a0 = _mm512_loadu_si512(srcs[0] + i);
            a1 = _mm512_loadu_si512(srcs[0] + i + 64);
            s = 1;
        }
        for (; s < m; ++s) {
            a0 = _mm512_xor_si512(a0, _mm512_loadu_si512(srcs[s] + i));
            a1 = _mm512_xor_si512(a1, _mm512_loadu_si512(srcs[s] + i + 64));
        }
        _mm512_storeu_si512(dst + i, a0);
        _mm512_storeu_si512(dst + i + 64, a1);
    }
    if (i + 64 <= n) {
        __m512i a0;
        std::size_t s;
        if (acc) {
            a0 = _mm512_loadu_si512(dst + i);
            s = 0;
        } else {
            a0 = _mm512_loadu_si512(srcs[0] + i);
            s = 1;
        }
        for (; s < m; ++s) {
            a0 = _mm512_xor_si512(a0, _mm512_loadu_si512(srcs[s] + i));
        }
        _mm512_storeu_si512(dst + i, a0);
        i += 64;
    }
    xor_many_tail(dst, srcs, m, i, n, acc);
}

/// Streaming copies for medium landings: streaming stores need an aligned
/// destination, so a short head is peeled off with regular stores; the
/// copy is unfenced (xorops::land fences once).
__attribute__((target("avx2"))) void copy_nt_avx2(std::byte* dst,
                                                  const std::byte* src,
                                                  std::size_t n) noexcept {
    std::size_t head =
        (32 - (reinterpret_cast<std::uintptr_t>(dst) & 31)) & 31;
    if (head > n) head = n;
    std::memcpy(dst, src, head);
    std::size_t i = head;
    for (; i + 32 <= n; i += 32) {
        _mm256_stream_si256(
            reinterpret_cast<__m256i*>(dst + i),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)));
    }
    std::memcpy(dst + i, src + i, n - i);
}

__attribute__((target("avx512f"))) void copy_nt_avx512(
    std::byte* dst, const std::byte* src, std::size_t n) noexcept {
    std::size_t head =
        (64 - (reinterpret_cast<std::uintptr_t>(dst) & 63)) & 63;
    if (head > n) head = n;
    std::memcpy(dst, src, head);
    std::size_t i = head;
    for (; i + 64 <= n; i += 64) {
        _mm512_stream_si512(reinterpret_cast<__m512i*>(dst + i),
                            _mm512_loadu_si512(src + i));
    }
    std::memcpy(dst + i, src + i, n - i);
}

// ---------------------------------------------------------------------------
// Fused CRC sweeps over the three lane chains of the crc32c_lane_bytes()
// split (three chains hide the crc32 instruction's 3-cycle latency). The
// checksum-only sweep is integrity::crc32c_lanes_hardware; the copy
// kernels interleave the same chains with their copy streams. Lane values
// are stitched back into block CRCs by the caller's crc32c_lane_combiner.

#if defined(__x86_64__)

/// Copy with the checksum riding inside the same traversal: three 32-byte
/// copy streams (one per lane) interleaved with their crc32 chains, so
/// the bytes are read once for both jobs.
__attribute__((target("avx2,sse4.2"))) void copy_crc3_avx2(
    std::byte* dst, const std::byte* src, std::size_t n,
    std::uint32_t lanes[3]) noexcept {
    const std::size_t lane = integrity::crc32c_lane_bytes(n);
    const std::byte* s0 = src;
    const std::byte* s1 = src + lane;
    const std::byte* s2 = src + 2 * lane;
    std::byte* d0 = dst;
    std::byte* d1 = dst + lane;
    std::byte* d2 = dst + 2 * lane;
    std::uint64_t c0 = 0, c1 = 0, c2 = 0;
    std::size_t i = 0;
    for (; i + 32 <= lane; i += 32) {
        // The three lane streams are short (a third of a block each), so
        // the hardware prefetcher restarts constantly; prefetch each
        // stream a few hundred bytes ahead by hand. Prefetches past the
        // lane end are architecturally harmless.
        _mm_prefetch(reinterpret_cast<const char*>(s0 + i) + 512,
                     _MM_HINT_T0);
        _mm_prefetch(reinterpret_cast<const char*>(s1 + i) + 512,
                     _MM_HINT_T0);
        _mm_prefetch(reinterpret_cast<const char*>(s2 + i) + 512,
                     _MM_HINT_T0);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(d0 + i),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s0 + i)));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(d1 + i),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s1 + i)));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(d2 + i),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s2 + i)));
        std::uint64_t w;
        for (std::size_t q = 0; q < 32; q += 8) {
            std::memcpy(&w, s0 + i + q, 8);
            c0 = __builtin_ia32_crc32di(c0, w);
            std::memcpy(&w, s1 + i + q, 8);
            c1 = __builtin_ia32_crc32di(c1, w);
            std::memcpy(&w, s2 + i + q, 8);
            c2 = __builtin_ia32_crc32di(c2, w);
        }
    }
    for (; i + 8 <= lane; i += 8) {
        std::uint64_t w0, w1, w2;
        std::memcpy(&w0, s0 + i, 8);
        std::memcpy(&w1, s1 + i, 8);
        std::memcpy(&w2, s2 + i, 8);
        std::memcpy(d0 + i, &w0, 8);
        std::memcpy(d1 + i, &w1, 8);
        std::memcpy(d2 + i, &w2, 8);
        c0 = __builtin_ia32_crc32di(c0, w0);
        c1 = __builtin_ia32_crc32di(c1, w1);
        c2 = __builtin_ia32_crc32di(c2, w2);
    }
    const std::size_t rem = n - 2 * lane;
    std::size_t j = i;
    for (; j + 8 <= rem; j += 8) {
        std::uint64_t w;
        std::memcpy(&w, s2 + j, 8);
        std::memcpy(d2 + j, &w, 8);
        c2 = __builtin_ia32_crc32di(c2, w);
    }
    std::uint32_t c2w = static_cast<std::uint32_t>(c2);
    for (; j < rem; ++j) {
        d2[j] = s2[j];
        c2w = __builtin_ia32_crc32qi(c2w,
                                     std::to_integer<unsigned char>(s2[j]));
    }
    lanes[0] = static_cast<std::uint32_t>(c0);
    lanes[1] = static_cast<std::uint32_t>(c1);
    lanes[2] = c2w;
}

// The fused reductions produce the whole (block-sized) destination with
// the regular XOR body, then sweep it while it is still L1-resident: the
// region is touched once from the memory system's point of view, and the
// XOR and CRC units (different execution ports) overlap across blocks.

void xor_many_crc3_avx2(std::byte* dst, const std::byte* const* srcs,
                        std::size_t m, std::size_t n, bool acc,
                        std::uint32_t lanes[3]) noexcept {
    xor_many_avx2(dst, srcs, m, n, acc);
    integrity::crc32c_lanes_hardware(dst, n, lanes);
}

void xor_many_crc3_avx512(std::byte* dst, const std::byte* const* srcs,
                          std::size_t m, std::size_t n, bool acc,
                          std::uint32_t lanes[3]) noexcept {
    xor_many_avx512(dst, srcs, m, n, acc);
    integrity::crc32c_lanes_hardware(dst, n, lanes);
}

/// 64-byte copy streams for the avx512 tier; checksum engine unchanged.
__attribute__((target("avx512f,sse4.2"))) void copy_crc3_avx512(
    std::byte* dst, const std::byte* src, std::size_t n,
    std::uint32_t lanes[3]) noexcept {
    const std::size_t lane = integrity::crc32c_lane_bytes(n);
    const std::byte* s0 = src;
    const std::byte* s1 = src + lane;
    const std::byte* s2 = src + 2 * lane;
    std::uint64_t c0 = 0, c1 = 0, c2 = 0;
    std::size_t i = 0;
    for (; i + 64 <= lane; i += 64) {
        // Same manual prefetch story as the avx2 tier: three short lane
        // streams defeat the hardware stream prefetcher.
        _mm_prefetch(reinterpret_cast<const char*>(s0 + i) + 512,
                     _MM_HINT_T0);
        _mm_prefetch(reinterpret_cast<const char*>(s1 + i) + 512,
                     _MM_HINT_T0);
        _mm_prefetch(reinterpret_cast<const char*>(s2 + i) + 512,
                     _MM_HINT_T0);
        _mm512_storeu_si512(dst + i, _mm512_loadu_si512(s0 + i));
        _mm512_storeu_si512(dst + lane + i, _mm512_loadu_si512(s1 + i));
        _mm512_storeu_si512(dst + 2 * lane + i, _mm512_loadu_si512(s2 + i));
        std::uint64_t w;
        for (std::size_t q = 0; q < 64; q += 8) {
            std::memcpy(&w, s0 + i + q, 8);
            c0 = __builtin_ia32_crc32di(c0, w);
            std::memcpy(&w, s1 + i + q, 8);
            c1 = __builtin_ia32_crc32di(c1, w);
            std::memcpy(&w, s2 + i + q, 8);
            c2 = __builtin_ia32_crc32di(c2, w);
        }
    }
    for (; i + 8 <= lane; i += 8) {
        std::uint64_t w0, w1, w2;
        std::memcpy(&w0, s0 + i, 8);
        std::memcpy(&w1, s1 + i, 8);
        std::memcpy(&w2, s2 + i, 8);
        std::memcpy(dst + i, &w0, 8);
        std::memcpy(dst + lane + i, &w1, 8);
        std::memcpy(dst + 2 * lane + i, &w2, 8);
        c0 = __builtin_ia32_crc32di(c0, w0);
        c1 = __builtin_ia32_crc32di(c1, w1);
        c2 = __builtin_ia32_crc32di(c2, w2);
    }
    const std::size_t rem = n - 2 * lane;
    std::size_t j = i;
    for (; j + 8 <= rem; j += 8) {
        std::uint64_t w;
        std::memcpy(&w, s2 + j, 8);
        std::memcpy(dst + 2 * lane + j, &w, 8);
        c2 = __builtin_ia32_crc32di(c2, w);
    }
    std::uint32_t c2w = static_cast<std::uint32_t>(c2);
    for (; j < rem; ++j) {
        dst[2 * lane + j] = s2[j];
        c2w = __builtin_ia32_crc32qi(c2w,
                                     std::to_integer<unsigned char>(s2[j]));
    }
    lanes[0] = static_cast<std::uint32_t>(c0);
    lanes[1] = static_cast<std::uint32_t>(c1);
    lanes[2] = c2w;
}

// The avx512 tier's checksum engine where the CPU has VPCLMULQDQ: every
// lane is folded (integrity::crc32c_lanes_fold), still the raw chain of
// its segment, so the lanes match every other tier's bit for bit.

void copy_crc3_fold(std::byte* dst, const std::byte* src, std::size_t n,
                    std::uint32_t lanes[3]) noexcept {
    integrity::crc32c_copy_lanes_fold(dst, src, n, lanes, /*stream=*/false);
}

void copy_crc3_nt_fold(std::byte* dst, const std::byte* src, std::size_t n,
                       std::uint32_t lanes[3]) noexcept {
    integrity::crc32c_copy_lanes_fold(dst, src, n, lanes, /*stream=*/true);
}

void xor_many_crc3_fold(std::byte* dst, const std::byte* const* srcs,
                        std::size_t m, std::size_t n, bool acc,
                        std::uint32_t lanes[3]) noexcept {
    xor_many_avx512(dst, srcs, m, n, acc);
    integrity::crc32c_lanes_fold(dst, n, lanes);
}

#endif  // __x86_64__

}  // namespace

const kernel_table& avx2_table() noexcept {
#if defined(__x86_64__)
    static const kernel_table table{
        "avx2",     xor_into_avx2,  xor2_avx2,
        xor_many_avx2,
        integrity::crc32c_lanes_hardware, copy_crc3_avx2,
        xor_many_crc3_avx2,
        copy_nt_avx2, /*copy_crc3_nt=*/nullptr};
#else
    // i386 has no 64-bit crc32 instruction; the dispatcher falls back to
    // the scalar tier's software fused sweeps.
    static const kernel_table table{
        "avx2",     xor_into_avx2,  xor2_avx2,
        xor_many_avx2,
        nullptr,    nullptr,        nullptr,
        copy_nt_avx2, nullptr};
#endif
    return table;
}

const kernel_table& avx512_table() noexcept {
#if defined(__x86_64__)
    static const kernel_table three_lane{
        "avx512",   xor_into_avx512,  xor2_avx512,
        xor_many_avx512,
        integrity::crc32c_lanes_hardware, copy_crc3_avx512,
        xor_many_crc3_avx512,
        copy_nt_avx512, /*copy_crc3_nt=*/nullptr};
    static const kernel_table fold{
        "avx512",   xor_into_avx512,  xor2_avx512,
        xor_many_avx512,
        integrity::crc32c_lanes_fold, copy_crc3_fold,
        xor_many_crc3_fold,
        copy_nt_avx512, copy_crc3_nt_fold};
    // Chosen by CPUID like the tier itself: AVX-512F cores without
    // VPCLMULQDQ keep the three-lane crc32 sweep.
    static const kernel_table& table =
        integrity::fold_available() ? fold : three_lane;
#else
    static const kernel_table table{
        "avx512",   xor_into_avx512,  xor2_avx512,
        xor_many_avx512,
        nullptr,    nullptr,          nullptr,
        copy_nt_avx512, nullptr};
#endif
    return table;
}

}  // namespace liberation::xorops::detail

#endif  // x86
