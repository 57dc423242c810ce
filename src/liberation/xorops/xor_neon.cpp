// NEON (ASIMD) XOR kernel tier for aarch64, where ASIMD is part of the
// baseline ISA — no target attribute or runtime probe needed; the
// dispatcher still exposes it as a distinct tier so benches and tests can
// compare it against the scalar fallback. Compiles to nothing off-arm.
#if defined(__aarch64__)

#include <arm_neon.h>

#include "liberation/integrity/crc32c.hpp"
#include "liberation/xorops/xor_kernels.hpp"

namespace liberation::xorops::detail {

namespace {

inline uint8x16x4_t load64(const std::byte* p) noexcept {
    return vld1q_u8_x4(reinterpret_cast<const std::uint8_t*>(p));
}

inline void store64(std::byte* p, uint8x16x4_t v) noexcept {
    vst1q_u8_x4(reinterpret_cast<std::uint8_t*>(p), v);
}

inline uint8x16x4_t xor64(uint8x16x4_t a, uint8x16x4_t b) noexcept {
    return {veorq_u8(a.val[0], b.val[0]), veorq_u8(a.val[1], b.val[1]),
            veorq_u8(a.val[2], b.val[2]), veorq_u8(a.val[3], b.val[3])};
}

void xor_into_neon(std::byte* dst, const std::byte* src,
                   std::size_t n) noexcept {
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        store64(dst + i, xor64(load64(dst + i), load64(src + i)));
    }
    const std::byte* srcs[1] = {src};
    xor_many_tail(dst, srcs, 1, i, n, /*acc=*/true);
}

void xor2_neon(std::byte* dst, const std::byte* a, const std::byte* b,
               std::size_t n) noexcept {
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        store64(dst + i, xor64(load64(a + i), load64(b + i)));
    }
    const std::byte* srcs[2] = {a, b};
    xor_many_tail(dst, srcs, 2, i, n, /*acc=*/false);
}

void xor_many_neon(std::byte* dst, const std::byte* const* srcs, std::size_t m,
                   std::size_t n, bool acc) noexcept {
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        uint8x16x4_t a;
        std::size_t s;
        if (acc) {
            a = load64(dst + i);
            s = 0;
        } else {
            a = load64(srcs[0] + i);
            s = 1;
        }
        for (; s < m; ++s) a = xor64(a, load64(srcs[s] + i));
        store64(dst + i, a);
    }
    xor_many_tail(dst, srcs, m, i, n, acc);
}

// Fused CRC sweeps. ASIMD is baseline on aarch64, but the CRC extension is
// not, so the lane sweep is the hardware one when the CPU has it and the
// portable slice-by-8 lanes otherwise. Lane values are identical either
// way — only the sweep speed differs.

void crc3_neon(const std::byte* src, std::size_t n,
               std::uint32_t lanes[3]) noexcept {
    if (integrity::hardware_available()) {
        integrity::crc32c_lanes_hardware(src, n, lanes);
    } else {
        integrity::crc32c_lanes_software(src, n, lanes);
    }
}

void copy_crc3_neon(std::byte* dst, const std::byte* src, std::size_t n,
                    std::uint32_t lanes[3]) noexcept {
    std::memcpy(dst, src, n);
    crc3_neon(src, n, lanes);
}

void xor_many_crc3_neon(std::byte* dst, const std::byte* const* srcs,
                        std::size_t m, std::size_t n, bool acc,
                        std::uint32_t lanes[3]) noexcept {
    xor_many_neon(dst, srcs, m, n, acc);
    crc3_neon(dst, n, lanes);
}

}  // namespace

const kernel_table& neon_table() noexcept {
    static constexpr kernel_table table{
        "neon",        xor_into_neon, xor2_neon,
        xor_many_neon,
        crc3_neon,     copy_crc3_neon, xor_many_crc3_neon,
        /*copy_nt=*/nullptr, /*copy_crc3_nt=*/nullptr};
    return table;
}

}  // namespace liberation::xorops::detail

#endif  // aarch64
