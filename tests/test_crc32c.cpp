#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "liberation/integrity/crc32c.hpp"
#include "liberation/util/rng.hpp"

namespace {

using namespace liberation;
using namespace liberation::integrity;

std::uint32_t crc_str(const char* s) {
    return crc32c(reinterpret_cast<const std::byte*>(s), std::strlen(s));
}

TEST(Crc32c, CheckValue) {
    // The universal CRC32C check value — any conforming implementation
    // must reproduce it.
    EXPECT_EQ(crc_str("123456789"), 0xE3069283u);
}

TEST(Crc32c, KnownVectors) {
    // RFC 3720 (iSCSI) appendix test patterns.
    const std::vector<std::byte> zeros(32, std::byte{0});
    EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
    const std::vector<std::byte> ones(32, std::byte{0xff});
    EXPECT_EQ(crc32c(ones.data(), ones.size()), 0x62A8AB43u);
    EXPECT_EQ(crc32c(zeros.data(), 0), 0u);
}

TEST(Crc32c, SeedChainsStreams) {
    util::xoshiro256 rng(1);
    std::vector<std::byte> buf(1000);
    rng.fill(buf);
    const std::uint32_t whole = crc32c(buf.data(), buf.size());
    for (const std::size_t split : {0u, 1u, 7u, 64u, 999u, 1000u}) {
        const std::uint32_t first = crc32c(buf.data(), split);
        EXPECT_EQ(crc32c(buf.data() + split, buf.size() - split, first),
                  whole);
    }
}

TEST(Crc32c, SoftwareMatchesHardware) {
    if (!hardware_available()) GTEST_SKIP() << "no CRC32C instruction";
    util::xoshiro256 rng(2);
    std::vector<std::byte> buf(4096 + 9);
    rng.fill(buf);
    // Every tail length crosses the 8-byte kernel boundary differently.
    for (std::size_t n = 0; n <= 70; ++n) {
        EXPECT_EQ(crc32c_software(buf.data(), n),
                  crc32c_hardware(buf.data(), n))
            << "n=" << n;
    }
    const auto seed = static_cast<std::uint32_t>(rng.next());
    EXPECT_EQ(crc32c_software(buf.data(), buf.size(), seed),
              crc32c_hardware(buf.data(), buf.size(), seed));
    // Misaligned starts exercise the byte head/tail of the hardware loop.
    for (std::size_t skew = 1; skew < 8; ++skew) {
        EXPECT_EQ(crc32c_software(buf.data() + skew, 100),
                  crc32c_hardware(buf.data() + skew, 100));
    }
}

TEST(Crc32c, EveryLengthAndSeedMatchesSliceBy8) {
    // crc32c() is the three-lane sweep plus a per-length combiner where the
    // CPU has the instruction; slice-by-8 is the reference.
    util::xoshiro256 rng(3);
    std::vector<std::byte> buf(9000 + 7);
    rng.fill(buf);
    for (std::size_t n = 0; n <= 9000; ++n) {
        const std::byte* p = buf.data() + n % 8;  // every misalignment
        const auto seed = static_cast<std::uint32_t>(rng.next());
        const std::uint32_t ref = crc32c_software(p, n, seed);
        ASSERT_EQ(crc32c(p, n, seed), ref) << "n=" << n;
        const std::size_t a = rng.next() % (n + 1);
        ASSERT_EQ(crc32c(p + a, n - a, crc32c(p, a, seed)), ref)
            << "n=" << n << " split=" << a;
    }
}

// ---- fold kernel -------------------------------------------------------

constexpr std::size_t kFoldMaxLen = 3 * 4096 + 257;

TEST(Crc32c, FoldMatchesSliceBy8AtEveryLengthAndOffset) {
    if (!fold_available()) GTEST_SKIP() << "no VPCLMULQDQ/AVX-512VL";
    util::xoshiro256 rng(4);
    std::vector<std::byte> buf(kFoldMaxLen + 64);
    rng.fill(buf);
    for (std::size_t off = 0; off < 64; ++off) {
        const std::byte* p = buf.data() + off;
        const auto seed = static_cast<std::uint32_t>(rng.next());
        // The reference advances one byte per length, so the sweep stays
        // linear in kFoldMaxLen per offset.
        std::uint32_t ref = seed;
        for (std::size_t n = 0; n <= kFoldMaxLen; ++n) {
            ASSERT_EQ(crc32c_fold(p, n, seed), ref)
                << "off=" << off << " n=" << n;
            if (n < kFoldMaxLen) ref = crc32c_software(p + n, 1, ref);
        }
    }
}

#if defined(__x86_64__)

TEST(Crc32c, FoldLanesMatchThreeLaneAndSoftwareLanes) {
    if (!fold_available()) GTEST_SKIP() << "no VPCLMULQDQ/AVX-512VL";
    util::xoshiro256 rng(5);
    std::vector<std::byte> buf(kFoldMaxLen + 64);
    rng.fill(buf);
    // Every length covers lanes of 255, 256 and 257 bytes (the fold's
    // threshold) and third lanes of every remainder.
    for (std::size_t n = 0; n <= kFoldMaxLen; ++n) {
        const std::byte* p = buf.data() + n % 64;
        std::uint32_t sw[3], hw[3], fold[3];
        crc32c_lanes_software(p, n, sw);
        crc32c_lanes_fold(p, n, fold);
        ASSERT_TRUE(std::equal(fold, fold + 3, sw)) << "n=" << n;
        if (hardware_available()) {
            crc32c_lanes_hardware(p, n, hw);
            ASSERT_TRUE(std::equal(fold, fold + 3, hw)) << "n=" << n;
        }
    }
}

TEST(Crc32c, FoldCopyMovesTheBytesAndMatchesTheSweep) {
    if (!fold_available()) GTEST_SKIP() << "no VPCLMULQDQ/AVX-512VL";
    util::xoshiro256 rng(6);
    constexpr std::size_t kPad = 64;
    std::vector<std::byte> src(kFoldMaxLen + 64);
    rng.fill(src);
    for (const bool stream : {false, true}) {
        for (const std::size_t n :
             {0u, 1u, 63u, 255u, 256u, 257u, 767u, 768u, 1000u, 4096u,
              3u * 4096u + 64u, 3u * 4096u + 257u}) {
            for (std::size_t doff = 0; doff < 64; doff += 7) {
                const std::byte* s = src.data() + (n + doff) % 64;
                std::vector<std::byte> dst(kPad + n + kPad, std::byte{0x5a});
                auto expected = dst;
                std::copy(s, s + n,
                          expected.begin() +
                              static_cast<std::ptrdiff_t>(kPad + doff));
                std::uint32_t got[3], want[3];
                crc32c_copy_lanes_fold(dst.data() + kPad + doff, s, n, got,
                                       stream);
                crc32c_lanes_software(s, n, want);
                ASSERT_EQ(dst, expected)
                    << "stream=" << stream << " n=" << n << " doff=" << doff;
                ASSERT_TRUE(std::equal(got, got + 3, want))
                    << "stream=" << stream << " n=" << n << " doff=" << doff;
            }
        }
    }
}

#endif

TEST(Crc32c, ForceImplPinsDispatch) {
    const crc32c_impl original = active_impl();
    force_impl(crc32c_impl::software);
    EXPECT_EQ(active_impl(), crc32c_impl::software);
    EXPECT_EQ(crc_str("123456789"), 0xE3069283u);
    if (hardware_available()) {
        force_impl(crc32c_impl::hardware);
        EXPECT_EQ(active_impl(), crc32c_impl::hardware);
        EXPECT_EQ(crc_str("123456789"), 0xE3069283u);
    } else {
        // Forcing hardware without support silently stays on software.
        force_impl(crc32c_impl::hardware);
        EXPECT_EQ(active_impl(), crc32c_impl::software);
    }
    force_impl(crc32c_impl::fold);
    if (fold_available()) {
        EXPECT_EQ(active_impl(), crc32c_impl::fold);
        EXPECT_EQ(crc_str("123456789"), 0xE3069283u);
        // The fold is the natural choice wherever it runs.
        EXPECT_EQ(original, crc32c_impl::fold);
    } else {
        // An unavailable fold degrades to the best path the CPU has.
        EXPECT_EQ(active_impl(), hardware_available() ? crc32c_impl::hardware
                                                      : crc32c_impl::software);
    }
    force_impl(original);
}

}  // namespace
