#include <gtest/gtest.h>

#include <vector>

#include "liberation/raid/array.hpp"
#include "liberation/raid/scrubber.hpp"
#include "liberation/util/rng.hpp"

namespace {

using namespace liberation;
using namespace liberation::raid;

array_config cfg() {
    array_config c;
    c.k = 6;  // p = 7, 8 disks
    c.element_size = 512;
    c.stripes = 6;
    c.sector_size = 512;
    return c;
}

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
    std::vector<std::byte> v(n);
    util::xoshiro256 rng(seed);
    rng.fill(v);
    return v;
}

TEST(DegradedFastPath, SmallReadUsesElementRecovery) {
    raid6_array a(cfg());
    const auto img = pattern(a.capacity(), 1);
    ASSERT_TRUE(a.write(0, img));
    a.fail_disk(3);

    // One-element read hitting the failed disk.
    std::vector<std::byte> out(100);
    const std::size_t addr = 512 * 7;  // somewhere in the first stripe
    ASSERT_TRUE(a.read(addr, out));
    EXPECT_TRUE(std::equal(out.begin(), out.end(),
                           img.begin() + static_cast<long>(addr)));
    // Reads that needed reconstruction went through the element path, not
    // a full-stripe decode.
    EXPECT_EQ(a.stats().degraded_stripe_reads, 0u);
}

TEST(DegradedFastPath, LargeReadStillUsesStripeDecode) {
    raid6_array a(cfg());
    const auto img = pattern(a.capacity(), 2);
    ASSERT_TRUE(a.write(0, img));
    a.fail_disk(2);

    std::vector<std::byte> out(a.map().stripe_data_size());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_TRUE(std::equal(out.begin(), out.end(), img.begin()));
    EXPECT_GT(a.stats().degraded_stripe_reads, 0u);
}

TEST(DegradedFastPath, TwoFailuresFallBackToFullDecode) {
    raid6_array a(cfg());
    const auto img = pattern(a.capacity(), 3);
    ASSERT_TRUE(a.write(0, img));
    a.fail_disk(1);
    a.fail_disk(4);

    // Small read: the element path cannot work (two unknowns per row for
    // some rows), so it must transparently fall back and still be right.
    std::vector<std::byte> out(64);
    for (std::size_t addr : {0ul, 5000ul, 9999ul}) {
        ASSERT_TRUE(a.read(addr, out));
        EXPECT_TRUE(std::equal(out.begin(), out.end(),
                               img.begin() + static_cast<long>(addr)))
            << addr;
    }
}

TEST(DegradedFastPath, EveryElementOfFailedColumnReadable) {
    raid6_array a(cfg());
    const auto img = pattern(a.capacity(), 4);
    ASSERT_TRUE(a.write(0, img));
    a.fail_disk(5);
    const std::size_t elem = a.map().element_size();
    std::vector<std::byte> out(elem);
    for (std::size_t e = 0; e < a.capacity() / elem; ++e) {
        ASSERT_TRUE(a.read(e * elem, out)) << e;
        ASSERT_TRUE(std::equal(out.begin(), out.end(),
                               img.begin() + static_cast<long>(e * elem)))
            << e;
    }
}

TEST(Resilver, HealsParityStripMediaErrors) {
    raid6_array a(cfg());
    ASSERT_TRUE(a.write(0, pattern(a.capacity(), 5)));

    // Latent errors on both a data strip and a parity strip of stripe 1.
    const auto ploc = a.map().locate(1, a.code().p_column());
    const auto dloc = a.map().locate(1, 2);
    a.disk(ploc.disk).inject_latent_error(ploc.offset, 64);
    a.disk(dloc.disk).inject_latent_error(dloc.offset, 64);
    EXPECT_EQ(a.disk(ploc.disk).latent_error_count() +
                  a.disk(dloc.disk).latent_error_count(),
              2u);

    // The scrub patrol heals them: its count is the sectors it rewrote.
    const auto patrol = [&] {
        const std::uint64_t before = a.stats().media_errors_recovered;
        (void)scrub_array(a);
        return a.stats().media_errors_recovered - before;
    };
    const std::uint64_t healed = patrol();
    EXPECT_EQ(healed, 2u);
    EXPECT_EQ(a.disk(ploc.disk).latent_error_count(), 0u);
    EXPECT_EQ(a.disk(dloc.disk).latent_error_count(), 0u);
    // Second pass finds nothing.
    EXPECT_EQ(patrol(), 0u);
}

}  // namespace
