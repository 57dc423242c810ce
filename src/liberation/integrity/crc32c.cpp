#include "liberation/integrity/crc32c.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <iterator>
#include <optional>

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

#else

void lanes_hardware(const std::byte* src, std::size_t n,
                    std::uint32_t lanes[3]) noexcept {
    crc32c_lanes_software(src, n, lanes);
}

bool detect_hardware() noexcept { return false; }

#endif

// Dispatch state. CPU detection must not run during static initialization
// (other translation units' constructors may checksum), so the atomic is a
// lazy magic static.
std::atomic<crc32c_impl>& impl_slot() noexcept {
    static std::atomic<crc32c_impl> slot{
        detect_hardware() ? crc32c_impl::hardware : crc32c_impl::software};
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

void force_impl(crc32c_impl impl) noexcept {
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

std::uint32_t crc32c(const std::byte* data, std::size_t n,
                     std::uint32_t seed) noexcept {
    return active_impl() == crc32c_impl::hardware
               ? crc32c_hardware(data, n, seed)
               : crc32c_software(data, n, seed);
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
