#include <gtest/gtest.h>

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
    force_impl(original);
}

}  // namespace
