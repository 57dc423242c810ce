#include "liberation/xorops/xorops.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "liberation/integrity/crc32c.hpp"
#include "liberation/util/assert.hpp"
#include "liberation/xorops/xor_kernels.hpp"

namespace liberation::xorops {

namespace {

thread_local op_stats g_stats;

const detail::kernel_table& table_for(xor_impl impl) noexcept {
    switch (impl) {
#if defined(__x86_64__) || defined(__i386__)
        case xor_impl::avx2:
            return detail::avx2_table();
        case xor_impl::avx512:
            return detail::avx512_table();
#endif
#if defined(__aarch64__)
        case xor_impl::neon:
            return detail::neon_table();
#endif
        default:
            return detail::scalar_table();
    }
}

bool detect_available(xor_impl impl) noexcept {
    switch (impl) {
        case xor_impl::scalar:
            return true;
        case xor_impl::avx2:
#if defined(__x86_64__) || defined(__i386__)
            return __builtin_cpu_supports("avx2") != 0;
#else
            return false;
#endif
        case xor_impl::avx512:
#if defined(__x86_64__) || defined(__i386__)
            return __builtin_cpu_supports("avx512f") != 0;
#else
            return false;
#endif
        case xor_impl::neon:
#if defined(__aarch64__)
            return true;  // ASIMD is aarch64 baseline
#else
            return false;
#endif
    }
    return false;
}

xor_impl best_available() noexcept {
    if (detect_available(xor_impl::avx512)) return xor_impl::avx512;
    if (detect_available(xor_impl::avx2)) return xor_impl::avx2;
    if (detect_available(xor_impl::neon)) return xor_impl::neon;
    return xor_impl::scalar;
}

xor_impl startup_impl() noexcept {
    const char* env = std::getenv("LIBERATION_XOR_IMPL");
    if (env != nullptr && *env != '\0') {
        xor_impl requested;
        if (!impl_from_name(env, requested)) {
            std::fprintf(stderr,
                         "liberation: unknown LIBERATION_XOR_IMPL '%s' "
                         "(expected scalar/avx2/avx512/neon/auto); "
                         "auto-detecting\n",
                         env);
        } else if (!detect_available(requested)) {
            std::fprintf(stderr,
                         "liberation: LIBERATION_XOR_IMPL=%s not supported "
                         "by this CPU/build; auto-detecting\n",
                         env);
        } else {
            return requested;
        }
    }
    return best_available();
}

// Dispatch state. CPU detection must not run during static initialization
// (other translation units' constructors may XOR), so the atomic is a lazy
// magic static — the same pattern as the CRC32C dispatcher.
std::atomic<xor_impl>& impl_slot() noexcept {
    static std::atomic<xor_impl> slot{startup_impl()};
    return slot;
}

const detail::kernel_table& table() noexcept {
    return table_for(impl_slot().load(std::memory_order_relaxed));
}

// ---------------------------------------------------------------------------
// Fused-kernel plumbing.

/// Tier's checksum sweep, falling back to the portable one where a tier
/// has no fused entries (e.g. x86 builds without a 64-bit crc32).
void crc3_pass(const detail::kernel_table& t, const std::byte* src,
               std::size_t n, std::uint32_t lanes[3]) noexcept {
    (t.crc3 != nullptr ? t.crc3 : detail::scalar_table().crc3)(src, n, lanes);
}

void copy_crc3_pass(const detail::kernel_table& t, std::byte* dst,
                    const std::byte* src, std::size_t n,
                    std::uint32_t lanes[3]) noexcept {
    if (t.copy_crc3 != nullptr) {
        t.copy_crc3(dst, src, n, lanes);
    } else {
        std::memcpy(dst, src, n);
        crc3_pass(t, src, n, lanes);
    }
}

/// copy_crc3_pass with streaming stores; requires t.copy_nt.
void copy_crc3_nt_pass(const detail::kernel_table& t, std::byte* dst,
                       const std::byte* src, std::size_t n,
                       std::uint32_t lanes[3]) noexcept {
    if (t.copy_crc3_nt != nullptr) {
        t.copy_crc3_nt(dst, src, n, lanes);
    } else {
        t.copy_nt(dst, src, n);
        crc3_pass(t, src, n, lanes);
    }
}

/// Publishes streaming stores: everything stored before it is globally
/// visible before anything stored after it.
void store_fence() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_sfence();
#endif
}

void xor_many_crc3_pass(const detail::kernel_table& t, std::byte* dst,
                        const std::byte* const* srcs, std::size_t m,
                        std::size_t n, bool acc,
                        std::uint32_t lanes[3]) noexcept {
    if (t.xor_many_crc3 != nullptr) {
        t.xor_many_crc3(dst, srcs, m, n, acc, lanes);
    } else {
        t.xor_many(dst, srcs, m, n, acc);
        crc3_pass(t, dst, n, lanes);
    }
}

/// Group-of-3 fast path: for 8-byte-multiple block sizes,
/// crc32c_lane_bytes(3 * block) == block, so one fused sweep over three
/// consecutive blocks makes each lane chain a *whole block* — the store
/// streams land block-aligned, three blocks share one kernel dispatch,
/// and no cross-lane shift is needed. combine({0, 0, chain}) brackets a
/// whole-block raw chain into that block's CRC (zero lanes are inert).
bool groupable(std::size_t block) noexcept { return block % 8 == 0; }

void combine3(const integrity::crc32c_lane_combiner& comb,
              const std::uint32_t lanes[3], std::uint32_t* crcs) noexcept {
    for (int i = 0; i < 3; ++i) {
        const std::uint32_t whole[3] = {0, 0, lanes[i]};
        crcs[i] = comb.combine(whole);
    }
}

/// Per-block CRCs of an n-byte region through a lane sweep:
/// `sweep(offset, len, lanes)` covers [offset, offset+len) — three blocks
/// at a time where the block size allows, else one — and the lanes are
/// stitched into crcs. The shared body of the checksum-only, copy and
/// landing entries.
template <typename Sweep>
void crc_blocks(std::size_t n, std::size_t block, std::uint32_t* crcs,
                Sweep&& sweep) noexcept {
    if (n == 0) return;
    LIBERATION_EXPECTS(block > 0 && n % block == 0);
    const integrity::crc32c_lane_combiner& comb =
        integrity::crc32c_combiner_for(block);
    const std::size_t nblocks = n / block;
    std::size_t b = 0;
    if (groupable(block)) {
        for (; b + 3 <= nblocks; b += 3) {
            std::uint32_t lanes[3];
            sweep(b * block, 3 * block, lanes);
            combine3(comb, lanes, crcs + b);
        }
    }
    for (; b < nblocks; ++b) {
        std::uint32_t lanes[3];
        sweep(b * block, block, lanes);
        crcs[b] = comb.combine(lanes);
    }
}

/// Shared body of the fused XOR reductions: per checksum block (or group
/// of three), run the same pass sequence as the public xor_many, fusing
/// the CRC sweep into the *final* pass (the one that stores the block's
/// ultimate bytes).
void xor_many_crc_blocks_impl(std::byte* dst, const std::byte* const* srcs,
                              std::size_t nsrc, std::size_t n,
                              std::size_t block, std::uint32_t* crcs,
                              bool acc0) noexcept {
    const detail::kernel_table& t = table();
    const integrity::crc32c_lane_combiner& comb =
        integrity::crc32c_combiner_for(block);
    const std::byte* shifted[detail::max_fan_in];
    const std::size_t nblocks = n / block;
    const bool grouped = groupable(block);
    for (std::size_t b = 0; b < nblocks;) {
        const std::size_t g = grouped && nblocks - b >= 3 ? 3 : 1;
        const std::size_t span = g * block;
        std::byte* d = dst + b * block;
        std::uint32_t lanes[3];
        std::size_t off = 0;
        bool acc = acc0;
        for (;;) {
            const std::size_t m =
                std::min(nsrc - off, detail::max_fan_in);
            for (std::size_t s = 0; s < m; ++s) {
                shifted[s] = srcs[off + s] + b * block;
            }
            if (off + m == nsrc) {
                xor_many_crc3_pass(t, d, shifted, m, span, acc, lanes);
                break;
            }
            t.xor_many(d, shifted, m, span, acc);
            off += m;
            acc = true;
        }
        if (g == 3) {
            combine3(comb, lanes, crcs + b);
        } else {
            crcs[b] = comb.combine(lanes);
        }
        b += g;
    }
}

}  // namespace

op_stats& counters() noexcept { return g_stats; }

void reset_counters() noexcept { g_stats.reset(); }

xor_impl active_impl() noexcept {
    return impl_slot().load(std::memory_order_relaxed);
}

bool impl_available(xor_impl impl) noexcept {
    static const bool available[4] = {
        detect_available(xor_impl::scalar), detect_available(xor_impl::avx2),
        detect_available(xor_impl::avx512), detect_available(xor_impl::neon)};
    const auto idx = static_cast<std::size_t>(impl);
    return idx < 4 && available[idx];
}

xor_impl default_impl() noexcept {
    static const xor_impl choice = startup_impl();
    return choice;
}

void force_impl(xor_impl impl) noexcept {
    if (!impl_available(impl)) impl = default_impl();
    impl_slot().store(impl, std::memory_order_relaxed);
}

const char* impl_name(xor_impl impl) noexcept {
    switch (impl) {
        case xor_impl::scalar:
            return "scalar";
        case xor_impl::avx2:
            return "avx2";
        case xor_impl::avx512:
            return "avx512";
        case xor_impl::neon:
            return "neon";
    }
    return "scalar";
}

bool impl_from_name(const char* name, xor_impl& out) noexcept {
    if (name == nullptr) return false;
    const auto is = [name](const char* s) noexcept {
        return std::strcmp(name, s) == 0;
    };
    if (is("scalar") || is("software") || is("sw")) {
        out = xor_impl::scalar;
    } else if (is("avx2")) {
        out = xor_impl::avx2;
    } else if (is("avx512") || is("avx-512") || is("avx512f")) {
        out = xor_impl::avx512;
    } else if (is("neon") || is("asimd")) {
        out = xor_impl::neon;
    } else if (is("auto")) {
        out = best_available();
    } else {
        return false;
    }
    return true;
}

std::size_t max_fused_sources() noexcept { return detail::max_fan_in; }

void xor_into(std::byte* dst, const std::byte* src, std::size_t n) noexcept {
    table().xor_into(dst, src, n);
    ++g_stats.xor_ops;
    g_stats.bytes_xored += n;
}

void xor2(std::byte* dst, const std::byte* a, const std::byte* b,
          std::size_t n) noexcept {
    table().xor2(dst, a, b, n);
    ++g_stats.xor_ops;
    g_stats.bytes_xored += n;
}

void xor_many(std::byte* dst, const std::byte* const* srcs, std::size_t nsrc,
              std::size_t n) noexcept {
    LIBERATION_EXPECTS(nsrc >= 1);
    const detail::kernel_table& t = table();
    std::size_t pass = std::min(nsrc, detail::max_fan_in);
    t.xor_many(dst, srcs, pass, n, /*acc=*/false);
    for (std::size_t off = pass; off < nsrc; off += pass) {
        pass = std::min(nsrc - off, detail::max_fan_in);
        t.xor_many(dst, srcs + off, pass, n, /*acc=*/true);
    }
    ++g_stats.copy_ops;
    g_stats.bytes_copied += n;
    g_stats.xor_ops += nsrc - 1;
    g_stats.bytes_xored += (nsrc - 1) * n;
}

void xor_many_into(std::byte* dst, const std::byte* const* srcs,
                   std::size_t nsrc, std::size_t n) noexcept {
    if (nsrc == 0) return;
    const detail::kernel_table& t = table();
    for (std::size_t off = 0; off < nsrc;) {
        const std::size_t pass = std::min(nsrc - off, detail::max_fan_in);
        t.xor_many(dst, srcs + off, pass, n, /*acc=*/true);
        off += pass;
    }
    g_stats.xor_ops += nsrc;
    g_stats.bytes_xored += nsrc * n;
}

void crc32c_blocks(const std::byte* src, std::size_t n, std::size_t block,
                   std::uint32_t* crcs) noexcept {
    const detail::kernel_table& t = table();
    crc_blocks(n, block, crcs,
               [&](std::size_t off, std::size_t len, std::uint32_t lanes[3]) {
                   crc3_pass(t, src + off, len, lanes);
               });
}

void land(std::byte* dst, const std::byte* src, std::size_t n,
          bool stream) noexcept {
    const detail::kernel_table& t = table();
    if (stream && t.copy_nt != nullptr) {
        t.copy_nt(dst, src, n);
        store_fence();
    } else {
        std::memcpy(dst, src, n);
    }
}

void land_crc32c_blocks(std::byte* dst, const std::byte* src, std::size_t n,
                        bool stream, std::size_t block,
                        std::uint32_t* crcs) noexcept {
    const detail::kernel_table& t = table();
    if (stream && t.copy_nt != nullptr) {
        crc_blocks(
            n, block, crcs,
            [&](std::size_t off, std::size_t len, std::uint32_t lanes[3]) {
                copy_crc3_nt_pass(t, dst + off, src + off, len, lanes);
            });
        store_fence();
    } else {
        crc_blocks(
            n, block, crcs,
            [&](std::size_t off, std::size_t len, std::uint32_t lanes[3]) {
                copy_crc3_pass(t, dst + off, src + off, len, lanes);
            });
    }
}

void copy_crc32c_blocks(std::byte* dst, const std::byte* src, std::size_t n,
                        std::size_t block, std::uint32_t* crcs) noexcept {
    land_crc32c_blocks(dst, src, n, /*stream=*/false, block, crcs);
    ++g_stats.copy_ops;
    g_stats.bytes_copied += n;
}

void xor_many_crc32c_blocks(std::byte* dst, const std::byte* const* srcs,
                            std::size_t nsrc, std::size_t n, std::size_t block,
                            std::uint32_t* crcs) noexcept {
    LIBERATION_EXPECTS(nsrc >= 1);
    if (n != 0) {
        LIBERATION_EXPECTS(block > 0 && n % block == 0);
        xor_many_crc_blocks_impl(dst, srcs, nsrc, n, block, crcs,
                                 /*acc0=*/false);
    }
    ++g_stats.copy_ops;
    g_stats.bytes_copied += n;
    g_stats.xor_ops += nsrc - 1;
    g_stats.bytes_xored += (nsrc - 1) * n;
}

void xor_many_into_crc32c_blocks(std::byte* dst, const std::byte* const* srcs,
                                 std::size_t nsrc, std::size_t n,
                                 std::size_t block,
                                 std::uint32_t* crcs) noexcept {
    if (nsrc == 0) {
        crc32c_blocks(dst, n, block, crcs);
        return;
    }
    if (n != 0) {
        LIBERATION_EXPECTS(block > 0 && n % block == 0);
        xor_many_crc_blocks_impl(dst, srcs, nsrc, n, block, crcs,
                                 /*acc0=*/true);
    }
    g_stats.xor_ops += nsrc;
    g_stats.bytes_xored += nsrc * n;
}

void xor_broadcast(std::byte* const* dsts, std::size_t ndst,
                   const std::byte* src, std::size_t n) noexcept {
    // One pass per destination; src stays cache-hot after the first, so a
    // dedicated multi-store kernel would only save redundant L1 hits.
    const detail::kernel_table& t = table();
    for (std::size_t d = 0; d < ndst; ++d) t.xor_into(dsts[d], src, n);
    g_stats.xor_ops += ndst;
    g_stats.bytes_xored += ndst * n;
}

void copy(std::byte* dst, const std::byte* src, std::size_t n) noexcept {
    std::memcpy(dst, src, n);
    ++g_stats.copy_ops;
    g_stats.bytes_copied += n;
}

void zero(std::byte* dst, std::size_t n) noexcept { std::memset(dst, 0, n); }

bool is_zero(const std::byte* src, std::size_t n) noexcept {
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        std::uint64_t w0, w1, w2, w3;
        std::memcpy(&w0, src + i, 8);
        std::memcpy(&w1, src + i + 8, 8);
        std::memcpy(&w2, src + i + 16, 8);
        std::memcpy(&w3, src + i + 24, 8);
        if ((w0 | w1 | w2 | w3) != 0) return false;
    }
    for (; i + 8 <= n; i += 8) {
        std::uint64_t w;
        std::memcpy(&w, src + i, 8);
        if (w != 0) return false;
    }
    for (; i < n; ++i) {
        if (src[i] != std::byte{0}) return false;
    }
    return true;
}

bool equal(const std::byte* a, const std::byte* b, std::size_t n) noexcept {
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        std::uint64_t a0, a1, a2, a3, b0, b1, b2, b3;
        std::memcpy(&a0, a + i, 8);
        std::memcpy(&a1, a + i + 8, 8);
        std::memcpy(&a2, a + i + 16, 8);
        std::memcpy(&a3, a + i + 24, 8);
        std::memcpy(&b0, b + i, 8);
        std::memcpy(&b1, b + i + 8, 8);
        std::memcpy(&b2, b + i + 16, 8);
        std::memcpy(&b3, b + i + 24, 8);
        if (((a0 ^ b0) | (a1 ^ b1) | (a2 ^ b2) | (a3 ^ b3)) != 0) return false;
    }
    for (; i + 8 <= n; i += 8) {
        std::uint64_t x, y;
        std::memcpy(&x, a + i, 8);
        std::memcpy(&y, b + i, 8);
        if (x != y) return false;
    }
    for (; i < n; ++i) {
        if (a[i] != b[i]) return false;
    }
    return true;
}

void xor_into(std::span<std::byte> dst,
              std::span<const std::byte> src) noexcept {
    LIBERATION_EXPECTS(dst.size() == src.size());
    xor_into(dst.data(), src.data(), dst.size());
}

void xor2(std::span<std::byte> dst, std::span<const std::byte> a,
          std::span<const std::byte> b) noexcept {
    LIBERATION_EXPECTS(dst.size() == a.size() && dst.size() == b.size());
    xor2(dst.data(), a.data(), b.data(), dst.size());
}

void copy(std::span<std::byte> dst, std::span<const std::byte> src) noexcept {
    LIBERATION_EXPECTS(dst.size() == src.size());
    copy(dst.data(), src.data(), dst.size());
}

}  // namespace liberation::xorops
