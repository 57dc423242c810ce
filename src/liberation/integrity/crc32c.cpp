#include "liberation/integrity/crc32c.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <iterator>
#include <optional>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_CRC32
#define HWCAP_CRC32 (1u << 7)
#endif
#endif

namespace liberation::integrity {

namespace {

// ---------------------------------------------------------------------------
// Software path: slice-by-8.
//
// t[0] is the classic reflected-polynomial byte table; t[s] extends it so
// that eight input bytes fold into the CRC with eight independent table
// lookups per iteration instead of eight dependent ones. The recurrence
// t[s][i] = (t[s-1][i] >> 8) ^ t[0][t[s-1][i] & 0xff] expresses "advance
// the partial remainder by one more zero byte".

constexpr std::uint32_t kPolyReflected = 0x82F63B78u;

struct crc_tables {
    std::uint32_t t[8][256];

    crc_tables() noexcept {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c & 1u) ? (c >> 1) ^ kPolyReflected : c >> 1;
            t[0][i] = c;
        }
        for (std::uint32_t s = 1; s < 8; ++s)
            for (std::uint32_t i = 0; i < 256; ++i)
                t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xffu];
    }
};

const crc_tables tables;

// Raw kernels work on the *inverted* running CRC (callers handle the
// standard ~seed / ~result bracketing), so chaining composes exactly.
std::uint32_t software_raw(std::uint32_t crc, const std::byte* p,
                           std::size_t n) noexcept {
    const auto& t = tables.t;
    // Slice-by-8 loads two 32-bit words per iteration; the little-endian
    // byte order of the loads matches the reflected polynomial. (All
    // supported targets are little-endian; the byte-at-a-time tail below
    // is the portable fallback and handles any residue.)
    while (n >= 8) {
        std::uint32_t lo, hi;
        std::memcpy(&lo, p, 4);
        std::memcpy(&hi, p + 4, 4);
        lo ^= crc;
        crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
              t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
              t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^
              t[0][hi >> 24];
        p += 8;
        n -= 8;
    }
    while (n-- > 0) {
        crc = (crc >> 8) ^
              t[0][(crc ^ std::to_integer<std::uint32_t>(*p++)) & 0xffu];
    }
    return crc;
}

// ---------------------------------------------------------------------------
// Hardware path: the three-lane sweep. The crc32 instruction has a 3-cycle
// dependency latency, so a single chain caps out near 2.7 bytes/cycle;
// the three independent chains of the crc32c_lane_bytes() split keep the
// unit saturated at ~8 bytes/cycle. Chains 0 and 1 are whole words (L is
// 8-byte aligned); lane 2 is the long one and finishes its remainder
// word- then byte-wise.

#if defined(__x86_64__)

__attribute__((target("sse4.2"))) void lanes_hardware(
    const std::byte* src, std::size_t n, std::uint32_t lanes[3]) noexcept {
    const std::size_t lane = crc32c_lane_bytes(n);
    const std::byte* p0 = src;
    const std::byte* p1 = src + lane;
    const std::byte* p2 = src + 2 * lane;
    std::uint64_t c0 = 0, c1 = 0, c2 = 0;
    std::size_t i = 0;
    for (; i + 8 <= lane; i += 8) {
        std::uint64_t w0, w1, w2;
        std::memcpy(&w0, p0 + i, 8);
        std::memcpy(&w1, p1 + i, 8);
        std::memcpy(&w2, p2 + i, 8);
        c0 = __builtin_ia32_crc32di(c0, w0);
        c1 = __builtin_ia32_crc32di(c1, w1);
        c2 = __builtin_ia32_crc32di(c2, w2);
    }
    const std::size_t rem = n - 2 * lane;
    std::size_t j = i;
    for (; j + 8 <= rem; j += 8) {
        std::uint64_t w;
        std::memcpy(&w, p2 + j, 8);
        c2 = __builtin_ia32_crc32di(c2, w);
    }
    auto c2w = static_cast<std::uint32_t>(c2);
    for (; j < rem; ++j) {
        c2w = __builtin_ia32_crc32qi(c2w,
                                     std::to_integer<unsigned char>(p2[j]));
    }
    lanes[0] = static_cast<std::uint32_t>(c0);
    lanes[1] = static_cast<std::uint32_t>(c1);
    lanes[2] = c2w;
}

bool detect_hardware() noexcept { return __builtin_cpu_supports("sse4.2"); }

// ---------------------------------------------------------------------------
// Fold path: carry-less-multiply folding (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009) on
// 512-bit registers. Four accumulators hold 256 consecutive bytes; each
// loop step multiplies every 128-bit lane forward by x^2048 and XORs in the
// lane 256 bytes further on, so the message stays congruent (mod P) to
// what the accumulators hold. At the end the accumulators fold into one
// 128-bit lane V, and the raw state is V·x^32 mod P — exactly what two
// crc32 instructions compute from V's two qwords.
//
// Frame: a 128-bit lane loaded little-endian is the polynomial whose
// highest coefficient is bit 0 of byte 0 (the reflected convention). For
// a lane with qwords q0 (earlier) and q1, lane·x^D = q0·x^(D+64) + q1·x^D;
// a carry-less product of reflected operands lands one degree up, so the
// multipliers are x^(D+63) and x^(D-1) mod P, each a 32-bit remainder in
// the high half of its qword.

/// x^e mod P in the raw-state representation (bit i = coefficient of
/// x^(31-i)), evaluated at compile time for the fold constants.
constexpr std::uint32_t xpow_mod(std::size_t e) noexcept {
    std::uint32_t r = 0x80000000u;  // x^0
    for (std::size_t i = 0; i < e; ++i)
        r = (r >> 1) ^ ((r & 1u) != 0 ? kPolyReflected : 0u);
    return r;
}

/// The multiplier pair that advances a 128-bit lane by D bits.
template <std::size_t D>
struct fold_by {
    static constexpr std::uint64_t q0 = std::uint64_t{xpow_mod(D + 63)} << 32;
    static constexpr std::uint64_t q1 = std::uint64_t{xpow_mod(D - 1)} << 32;
};

enum class fold_store : std::uint8_t { none, copy, stream };

#define LIBERATION_FOLD_TARGET \
    __attribute__((target("avx512f,avx512vl,vpclmulqdq,pclmul,sse4.2")))

/// One crc32 chain over [src, src+n), word- then byte-wise, copying to
/// dst with regular stores unless S is none: the fold path's head, tail
/// and short inputs.
template <fold_store S>
LIBERATION_FOLD_TARGET std::uint32_t chain_raw(std::uint32_t crc,
                                               std::byte* dst,
                                               const std::byte* src,
                                               std::size_t n) noexcept {
    std::size_t i = 0;
    std::uint64_t c = crc;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t w;
        std::memcpy(&w, src + i, 8);
        if constexpr (S != fold_store::none) std::memcpy(dst + i, &w, 8);
        c = _mm_crc32_u64(c, w);
    }
    auto c32 = static_cast<std::uint32_t>(c);
    for (; i < n; ++i) {
        if constexpr (S != fold_store::none) dst[i] = src[i];
        c32 = _mm_crc32_u8(c32, std::to_integer<unsigned char>(src[i]));
    }
    return c32;
}

template <fold_store S>
LIBERATION_FOLD_TARGET inline __m512i fold_load(std::byte* dst,
                                                const std::byte* src) noexcept {
    const __m512i v = _mm512_loadu_si512(src);
    if constexpr (S == fold_store::copy) _mm512_storeu_si512(dst, v);
    if constexpr (S == fold_store::stream)
        _mm512_stream_si512(reinterpret_cast<__m512i*>(dst), v);
    return v;
}

template <std::size_t D>
LIBERATION_FOLD_TARGET inline __m512i fold512(__m512i x,
                                              __m512i next) noexcept {
    constexpr auto q0 = static_cast<long long>(fold_by<D>::q0);
    constexpr auto q1 = static_cast<long long>(fold_by<D>::q1);
    const __m512i k = _mm512_set_epi64(q1, q0, q1, q0, q1, q0, q1, q0);
    return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                     _mm512_clmulepi64_epi128(x, k, 0x11),
                                     next, 0x96);
}

template <std::size_t D>
LIBERATION_FOLD_TARGET inline __m128i fold128(__m128i x,
                                              __m128i next) noexcept {
    const __m128i k = _mm_set_epi64x(static_cast<long long>(fold_by<D>::q1),
                                     static_cast<long long>(fold_by<D>::q0));
    return _mm_ternarylogic_epi64(_mm_clmulepi64_si128(x, k, 0x00),
                                  _mm_clmulepi64_si128(x, k, 0x11), next,
                                  0x96);
}

/// The raw chain of [src, src+n) continued from raw state `crc`; S
/// selects whether the bytes are also copied to dst, and how (with S
/// none, dst is only offset, never written: callers pass src). Streaming
/// stores need a 64-byte-aligned destination, so a stream copy runs its
/// head up to that boundary through the chain first. The stream is not
/// fenced here: the caller fences once per medium write.
template <fold_store S>
LIBERATION_FOLD_TARGET std::uint32_t fold_raw(std::uint32_t crc,
                                              std::byte* dst,
                                              const std::byte* src,
                                              std::size_t n) noexcept {
    constexpr fold_store kTailStore =
        S == fold_store::none ? fold_store::none : fold_store::copy;
    if constexpr (S == fold_store::stream) {
        const std::size_t head = std::min(
            n, (64 - (reinterpret_cast<std::uintptr_t>(dst) & 63)) & 63);
        crc = chain_raw<kTailStore>(crc, dst, src, head);
        dst += head;
        src += head;
        n -= head;
    }
    if (n < 256) return chain_raw<kTailStore>(crc, dst, src, n);
    __m512i x0 = _mm512_xor_si512(fold_load<S>(dst, src),
                                  _mm512_castsi128_si512(_mm_cvtsi32_si128(
                                      static_cast<int>(crc))));
    __m512i x1 = fold_load<S>(dst + 64, src + 64);
    __m512i x2 = fold_load<S>(dst + 128, src + 128);
    __m512i x3 = fold_load<S>(dst + 192, src + 192);
    std::size_t i = 256;
    for (; i + 256 <= n; i += 256) {
        x0 = fold512<2048>(x0, fold_load<S>(dst + i, src + i));
        x1 = fold512<2048>(x1, fold_load<S>(dst + i + 64, src + i + 64));
        x2 = fold512<2048>(x2, fold_load<S>(dst + i + 128, src + i + 128));
        x3 = fold512<2048>(x3, fold_load<S>(dst + i + 192, src + i + 192));
    }
    // 4 x 512 -> 512 -> 128 bits: each lane advances by its distance to
    // the last lane of the last 256-byte block.
    x3 = fold512<1536>(x0, fold512<1024>(x1, fold512<512>(x2, x3)));
    // (maskz extracts: the plain ones trip g++ 12's uninitialized-value
    // warning inside its own header.)
    __m128i v = _mm512_maskz_extracti32x4_epi32(0xf, x3, 3);
    v = fold128<128>(_mm512_maskz_extracti32x4_epi32(0xf, x3, 2), v);
    v = fold128<256>(_mm512_maskz_extracti32x4_epi32(0xf, x3, 1), v);
    v = fold128<384>(_mm512_maskz_extracti32x4_epi32(0xf, x3, 0), v);
    std::uint64_t c = _mm_crc32_u64(
        0, static_cast<std::uint64_t>(_mm_cvtsi128_si64(v)));
    c = _mm_crc32_u64(c, static_cast<std::uint64_t>(_mm_extract_epi64(v, 1)));
    return chain_raw<kTailStore>(static_cast<std::uint32_t>(c), dst + i,
                                 src + i, n - i);
}

#undef LIBERATION_FOLD_TARGET

/// Three lanes through the fold, each its own raw chain. Lanes under 256
/// bytes would each run one latency-bound crc32 chain, so short blocks
/// take the interleaved three-lane sweep instead (same lane values).
template <fold_store S>
void lanes_fold(std::byte* dst, const std::byte* src, std::size_t n,
                std::uint32_t lanes[3]) noexcept {
    const std::size_t lane = crc32c_lane_bytes(n);
    if (lane < 256) {
        if constexpr (S != fold_store::none) std::memcpy(dst, src, n);
        lanes_hardware(src, n, lanes);
        return;
    }
    lanes[0] = fold_raw<S>(0, dst, src, lane);
    lanes[1] = fold_raw<S>(0, dst + lane, src + lane, lane);
    lanes[2] = fold_raw<S>(0, dst + 2 * lane, src + 2 * lane, n - 2 * lane);
}

bool detect_fold() noexcept {
    return __builtin_cpu_supports("sse4.2") &&
           __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512vl") &&
           __builtin_cpu_supports("vpclmulqdq");
}

#elif defined(__aarch64__)

__attribute__((target("+crc"))) void lanes_hardware(
    const std::byte* src, std::size_t n, std::uint32_t lanes[3]) noexcept {
    const std::size_t lane = crc32c_lane_bytes(n);
    const std::byte* p0 = src;
    const std::byte* p1 = src + lane;
    const std::byte* p2 = src + 2 * lane;
    std::uint32_t c0 = 0, c1 = 0, c2 = 0;
    std::size_t i = 0;
    for (; i + 8 <= lane; i += 8) {
        std::uint64_t w0, w1, w2;
        std::memcpy(&w0, p0 + i, 8);
        std::memcpy(&w1, p1 + i, 8);
        std::memcpy(&w2, p2 + i, 8);
        c0 = __builtin_aarch64_crc32cx(c0, w0);
        c1 = __builtin_aarch64_crc32cx(c1, w1);
        c2 = __builtin_aarch64_crc32cx(c2, w2);
    }
    const std::size_t rem = n - 2 * lane;
    std::size_t j = i;
    for (; j + 8 <= rem; j += 8) {
        std::uint64_t w;
        std::memcpy(&w, p2 + j, 8);
        c2 = __builtin_aarch64_crc32cx(c2, w);
    }
    for (; j < rem; ++j) {
        c2 = __builtin_aarch64_crc32cb(c2,
                                       std::to_integer<unsigned char>(p2[j]));
    }
    lanes[0] = c0;
    lanes[1] = c1;
    lanes[2] = c2;
}

bool detect_hardware() noexcept {
#if defined(__linux__)
    return (getauxval(AT_HWCAP) & HWCAP_CRC32) != 0;
#else
    return false;
#endif
}

bool detect_fold() noexcept { return false; }

#else

void lanes_hardware(const std::byte* src, std::size_t n,
                    std::uint32_t lanes[3]) noexcept {
    crc32c_lanes_software(src, n, lanes);
}

bool detect_hardware() noexcept { return false; }

bool detect_fold() noexcept { return false; }

#endif

crc32c_impl best_impl() noexcept {
    if (detect_fold()) return crc32c_impl::fold;
    return detect_hardware() ? crc32c_impl::hardware : crc32c_impl::software;
}

// Dispatch state. CPU detection must not run during static initialization
// (other translation units' constructors may checksum), so the atomic is a
// lazy magic static.
std::atomic<crc32c_impl>& impl_slot() noexcept {
    static std::atomic<crc32c_impl> slot{best_impl()};
    return slot;
}

}  // namespace

crc32c_impl active_impl() noexcept {
    return impl_slot().load(std::memory_order_relaxed);
}

bool hardware_available() noexcept {
    static const bool available = detect_hardware();
    return available;
}

bool fold_available() noexcept {
    static const bool available = detect_fold();
    return available;
}

void force_impl(crc32c_impl impl) noexcept {
    if (impl == crc32c_impl::fold && !fold_available())
        impl = crc32c_impl::hardware;
    if (impl == crc32c_impl::hardware && !hardware_available())
        impl = crc32c_impl::software;
    impl_slot().store(impl, std::memory_order_relaxed);
}

std::uint32_t crc32c_software(const std::byte* data, std::size_t n,
                              std::uint32_t seed) noexcept {
    return ~software_raw(~seed, data, n);
}

std::uint32_t crc32c_hardware(const std::byte* data, std::size_t n,
                              std::uint32_t seed) noexcept {
    std::uint32_t lanes[3];
    lanes_hardware(data, n, lanes);
    return crc32c_combiner_for(n).combine(lanes, seed);
}

std::uint32_t crc32c_fold(const std::byte* data, std::size_t n,
                          std::uint32_t seed) noexcept {
#if defined(__x86_64__)
    return ~fold_raw<fold_store::none>(~seed, const_cast<std::byte*>(data),
                                       data, n);
#else
    return crc32c_hardware(data, n, seed);
#endif
}

std::uint32_t crc32c(const std::byte* data, std::size_t n,
                     std::uint32_t seed) noexcept {
    switch (active_impl()) {
        case crc32c_impl::fold:
            return crc32c_fold(data, n, seed);
        case crc32c_impl::hardware:
            return crc32c_hardware(data, n, seed);
        case crc32c_impl::software:
            break;
    }
    return crc32c_software(data, n, seed);
}

void crc32c_lanes_software(const std::byte* src, std::size_t n,
                           std::uint32_t lanes[3]) noexcept {
    const std::size_t lane = crc32c_lane_bytes(n);
    lanes[0] = software_raw(0, src, lane);
    lanes[1] = software_raw(0, src + lane, lane);
    lanes[2] = software_raw(0, src + 2 * lane, n - 2 * lane);
}

void crc32c_lanes_hardware(const std::byte* src, std::size_t n,
                           std::uint32_t lanes[3]) noexcept {
    lanes_hardware(src, n, lanes);
}

#if defined(__x86_64__)

void crc32c_lanes_fold(const std::byte* src, std::size_t n,
                       std::uint32_t lanes[3]) noexcept {
    lanes_fold<fold_store::none>(const_cast<std::byte*>(src), src, n, lanes);
}

void crc32c_copy_lanes_fold(std::byte* dst, const std::byte* src,
                            std::size_t n, std::uint32_t lanes[3],
                            bool stream) noexcept {
    if (stream) {
        lanes_fold<fold_store::stream>(dst, src, n, lanes);
    } else {
        lanes_fold<fold_store::copy>(dst, src, n, lanes);
    }
}

#endif

// ---------------------------------------------------------------------------
// Lane combiner: GF(2) matrix algebra over the 32-bit raw CRC state.
//
// Advancing a raw state by one zero byte is a linear map; its matrix powers
// give "advance by len zero bytes" for any len (zlib's crc32_combine).
// Matrices are represented column-wise: m[i] is the image of basis bit i.

namespace {

struct gf2_matrix {
    std::uint32_t m[32];
};

std::uint32_t gf2_times(const gf2_matrix& a, std::uint32_t x) noexcept {
    std::uint32_t r = 0;
    for (int i = 0; x != 0; ++i, x >>= 1)
        if (x & 1u) r ^= a.m[i];
    return r;
}

/// a ∘ b: apply b, then a.
gf2_matrix gf2_compose(const gf2_matrix& a, const gf2_matrix& b) noexcept {
    gf2_matrix r;
    for (int i = 0; i < 32; ++i) r.m[i] = gf2_times(a, b.m[i]);
    return r;
}

/// Advance-by-`len`-zero-bytes as a matrix power of the one-byte step.
gf2_matrix gf2_shift_bytes(std::size_t len) noexcept {
    gf2_matrix one;  // advance raw state by a single zero byte
    for (int i = 0; i < 32; ++i) {
        const std::uint32_t s = 1u << i;
        one.m[i] = (s >> 8) ^ tables.t[0][s & 0xffu];
    }
    gf2_matrix acc;  // identity
    for (int i = 0; i < 32; ++i) acc.m[i] = 1u << i;
    while (len != 0) {
        if (len & 1u) acc = gf2_compose(one, acc);
        one = gf2_compose(one, one);
        len >>= 1;
    }
    return acc;
}

}  // namespace

crc32c_lane_combiner::crc32c_lane_combiner(std::size_t block_bytes) noexcept
    : n_(block_bytes) {
    const std::size_t lane = crc32c_lane_bytes(n_);
    const gf2_matrix hi = gf2_shift_bytes(n_ - lane);
    const gf2_matrix lo = gf2_shift_bytes(n_ - 2 * lane);
    const gf2_matrix full = gf2_compose(gf2_shift_bytes(lane), hi);
    for (int k = 0; k < 8; ++k)
        for (std::uint32_t d = 0; d < 16; ++d) {
            shift_hi_.tab[k][d] = gf2_times(hi, d << (4 * k));
            shift_lo_.tab[k][d] = gf2_times(lo, d << (4 * k));
        }
    std::copy(std::begin(full.m), std::end(full.m), std::begin(shift_all_));
    seed_term_ = gf2_times(full, ~0u);
}

const crc32c_lane_combiner& crc32c_combiner_for(
    std::size_t block_bytes) noexcept {
    // Round-robin replacement. The sizes a thread checksums are few: data
    // blocks, table pages, cores and the small header and manifest
    // records. Counted per thread, the stack bench's four workloads use at
    // most 4 distinct sizes and the file-backed chaos campaign at most 5,
    // so they fit and stay.
    constexpr std::size_t cache_size = 8;
    thread_local std::optional<crc32c_lane_combiner> cache[cache_size];
    thread_local std::size_t victim = 0;
    for (auto& c : cache) {
        if (c.has_value() && c->block() == block_bytes) return *c;
    }
    auto& slot = cache[victim];
    victim = (victim + 1) % cache_size;
    slot.emplace(block_bytes);
    return *slot;
}

}  // namespace liberation::integrity
