// Scalar (portable) XOR kernel tier: 4x-unrolled 64-bit words through
// memcpy loads, which compilers lower to plain loads/stores on every
// supported target and auto-vectorize to the baseline vector ISA under
// -O2/-O3. This tier is the forced-software fallback
// (LIBERATION_XOR_IMPL=scalar) and the correctness reference the vector
// tiers are tested against.
#include "liberation/integrity/crc32c.hpp"
#include "liberation/xorops/xor_kernels.hpp"

namespace liberation::xorops::detail {

namespace {

void xor_into_scalar(std::byte* dst, const std::byte* src,
                     std::size_t n) noexcept {
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        std::uint64_t d0, d1, d2, d3, s0, s1, s2, s3;
        std::memcpy(&d0, dst + i, 8);
        std::memcpy(&d1, dst + i + 8, 8);
        std::memcpy(&d2, dst + i + 16, 8);
        std::memcpy(&d3, dst + i + 24, 8);
        std::memcpy(&s0, src + i, 8);
        std::memcpy(&s1, src + i + 8, 8);
        std::memcpy(&s2, src + i + 16, 8);
        std::memcpy(&s3, src + i + 24, 8);
        d0 ^= s0;
        d1 ^= s1;
        d2 ^= s2;
        d3 ^= s3;
        std::memcpy(dst + i, &d0, 8);
        std::memcpy(dst + i + 8, &d1, 8);
        std::memcpy(dst + i + 16, &d2, 8);
        std::memcpy(dst + i + 24, &d3, 8);
    }
    const std::byte* srcs[1] = {src};
    xor_many_tail(dst, srcs, 1, i, n, /*acc=*/true);
}

void xor2_scalar(std::byte* dst, const std::byte* a, const std::byte* b,
                 std::size_t n) noexcept {
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
        a0 ^= b0;
        a1 ^= b1;
        a2 ^= b2;
        a3 ^= b3;
        std::memcpy(dst + i, &a0, 8);
        std::memcpy(dst + i + 8, &a1, 8);
        std::memcpy(dst + i + 16, &a2, 8);
        std::memcpy(dst + i + 24, &a3, 8);
    }
    const std::byte* srcs[2] = {a, b};
    xor_many_tail(dst, srcs, 2, i, n, /*acc=*/false);
}

void xor_many_scalar(std::byte* dst, const std::byte* const* srcs,
                     std::size_t m, std::size_t n, bool acc) noexcept {
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        std::uint64_t a0, a1, a2, a3;
        std::size_t s;
        if (acc) {
            std::memcpy(&a0, dst + i, 8);
            std::memcpy(&a1, dst + i + 8, 8);
            std::memcpy(&a2, dst + i + 16, 8);
            std::memcpy(&a3, dst + i + 24, 8);
            s = 0;
        } else {
            std::memcpy(&a0, srcs[0] + i, 8);
            std::memcpy(&a1, srcs[0] + i + 8, 8);
            std::memcpy(&a2, srcs[0] + i + 16, 8);
            std::memcpy(&a3, srcs[0] + i + 24, 8);
            s = 1;
        }
        for (; s < m; ++s) {
            std::uint64_t b0, b1, b2, b3;
            std::memcpy(&b0, srcs[s] + i, 8);
            std::memcpy(&b1, srcs[s] + i + 8, 8);
            std::memcpy(&b2, srcs[s] + i + 16, 8);
            std::memcpy(&b3, srcs[s] + i + 24, 8);
            a0 ^= b0;
            a1 ^= b1;
            a2 ^= b2;
            a3 ^= b3;
        }
        std::memcpy(dst + i, &a0, 8);
        std::memcpy(dst + i + 8, &a1, 8);
        std::memcpy(dst + i + 16, &a2, 8);
        std::memcpy(dst + i + 24, &a3, 8);
    }
    xor_many_tail(dst, srcs, m, i, n, acc);
}

// The forced-software tier pairs the portable XOR bodies with the
// portable slice-by-8 CRC kernel, so LIBERATION_XOR_IMPL=scalar exercises
// a fully instruction-set-independent fused path. Lane values are defined
// by the split rule alone, so they match the hardware tiers bit for bit.

void copy_crc3_scalar(std::byte* dst, const std::byte* src, std::size_t n,
                      std::uint32_t lanes[3]) noexcept {
    std::memcpy(dst, src, n);
    integrity::crc32c_lanes_software(src, n, lanes);
}

void xor_many_crc3_scalar(std::byte* dst, const std::byte* const* srcs,
                          std::size_t m, std::size_t n, bool acc,
                          std::uint32_t lanes[3]) noexcept {
    xor_many_scalar(dst, srcs, m, n, acc);
    integrity::crc32c_lanes_software(dst, n, lanes);
}

}  // namespace

const kernel_table& scalar_table() noexcept {
    static constexpr kernel_table table{
        "scalar",          xor_into_scalar,  xor2_scalar,
        xor_many_scalar,
        integrity::crc32c_lanes_software, copy_crc3_scalar,
        xor_many_crc3_scalar,
        /*copy_nt=*/nullptr, /*copy_crc3_nt=*/nullptr};
    return table;
}

}  // namespace liberation::xorops::detail
