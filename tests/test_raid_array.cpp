#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "liberation/core/update.hpp"
#include "liberation/raid/array.hpp"
#include "liberation/util/rng.hpp"

namespace {

using namespace liberation;
using namespace liberation::raid;

array_config small_config() {
    array_config cfg;
    cfg.k = 4;            // p = 5, 6 disks
    cfg.element_size = 256;
    cfg.stripes = 8;
    cfg.sector_size = 256;
    return cfg;
}

std::vector<std::byte> pattern_bytes(std::size_t n, std::uint64_t seed) {
    std::vector<std::byte> v(n);
    util::xoshiro256 rng(seed);
    rng.fill(v);
    return v;
}

/// Every member's disk counters, summed.
disk_stats disk_totals(const raid6_array& a) {
    disk_stats t;
    for (std::uint32_t d = 0; d < a.disk_count(); ++d) {
        const disk_stats s = a.disk(d).stats();
        t.reads += s.reads;
        t.writes += s.writes;
        t.bytes_read += s.bytes_read;
    }
    return t;
}

/// Every stripe's parity agrees with its data.
void expect_every_stripe_consistent(raid6_array& a) {
    codes::stripe_buffer buf = a.make_stripe_buffer();
    std::vector<std::uint32_t> erased;
    for (std::size_t s = 0; s < a.map().stripes(); ++s) {
        ASSERT_TRUE(a.load_stripe(s, buf.view(), erased));
        ASSERT_TRUE(erased.empty());
        EXPECT_TRUE(a.code().verify(buf.view())) << "stripe " << s;
    }
}

TEST(RaidArray, CapacityMatchesMap) {
    raid6_array a(small_config());
    EXPECT_EQ(a.capacity(), a.map().capacity());
    EXPECT_EQ(a.disk_count(), 6u);
}

TEST(RaidArray, WholeDeviceWriteReadRoundTrip) {
    raid6_array a(small_config());
    const auto data = pattern_bytes(a.capacity(), 1);
    ASSERT_TRUE(a.write(0, data));
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
    EXPECT_GT(a.stats().full_stripe_writes, 0u);
}

TEST(RaidArray, UnalignedExtentRoundTrip) {
    raid6_array a(small_config());
    const std::size_t off = 777;
    const auto data = pattern_bytes(4321, 2);
    ASSERT_TRUE(a.write(off, data));
    std::vector<std::byte> out(data.size());
    ASSERT_TRUE(a.read(off, out));
    EXPECT_EQ(out, data);
    EXPECT_GT(a.stats().small_writes, 0u);
}

TEST(RaidArray, SmallWriteTouchesOnlyTwoOrThreeParityElements) {
    raid6_array a(small_config());
    const auto base = pattern_bytes(a.capacity(), 3);
    ASSERT_TRUE(a.write(0, base));
    const auto before = a.stats().parity_elements_updated;

    // One element-sized write, element-aligned: exactly one data element.
    const auto data = pattern_bytes(a.map().element_size(), 4);
    ASSERT_TRUE(a.write(a.map().element_size() * 3, data));
    const auto touched = a.stats().parity_elements_updated - before;
    EXPECT_GE(touched, 2u);
    EXPECT_LE(touched, 3u);
}

TEST(RaidArray, SmallWritesKeepEveryStripeConsistent) {
    raid6_array a(small_config());
    const auto base = pattern_bytes(a.capacity(), 5);
    ASSERT_TRUE(a.write(0, base));
    util::xoshiro256 rng(6);
    for (int i = 0; i < 50; ++i) {
        const std::size_t len = 1 + rng.next_below(1000);
        const std::size_t off = rng.next_below(a.capacity() - len);
        ASSERT_TRUE(a.write(off, pattern_bytes(len, 100 + i)));
    }
    // Every stripe must still verify against the code.
    expect_every_stripe_consistent(a);
}

TEST(RaidArray, SmallWriteReadsEachElementOnce) {
    // n = 8 and 4 KiB elements, like the stack bench: an element-aligned
    // 4 KiB write is one data element plus the parity elements it patches,
    // and each of them is read (checksum-verified) once and written once.
    array_config cfg;
    cfg.k = 6;
    cfg.element_size = 4096;
    cfg.sector_size = 4096;
    cfg.stripes = 4;
    raid6_array a(cfg);
    ASSERT_TRUE(a.write(0, pattern_bytes(a.capacity(), 15)));
    const disk_stats d0 = disk_totals(a);
    const array_stats a0 = a.stats();
    ASSERT_TRUE(a.write(2 * 4096, pattern_bytes(4096, 16)));
    const disk_stats d1 = disk_totals(a);
    const array_stats a1 = a.stats();
    ASSERT_EQ(a1.small_writes - a0.small_writes, 1u);
    const std::uint64_t elements =
        1 + a1.parity_elements_updated - a0.parity_elements_updated;
    EXPECT_EQ(elements, 3u);
    EXPECT_EQ(d1.reads - d0.reads, elements);
    EXPECT_EQ(d1.bytes_read - d0.bytes_read, elements * 4096);
    EXPECT_EQ(d1.writes - d0.writes, elements);
    EXPECT_EQ(a1.checksum_mismatches, a0.checksum_mismatches);
}

TEST(RaidArray, SmallWriteAcrossElementsWritesSharedParityOnce) {
    // Two address-adjacent data elements whose updates patch a common
    // parity element: a write straddling them carries both deltas into
    // that element and writes it once.
    raid6_array a(small_config());
    const auto base = pattern_bytes(a.capacity(), 17);
    ASSERT_TRUE(a.write(0, base));
    const std::size_t elem = a.map().element_size();
    const std::uint32_t rows = a.map().rows();
    const auto targets = [&](std::size_t e) {
        return core::update_targets(a.code().geom(),
                                    static_cast<std::uint32_t>(e % rows),
                                    static_cast<std::uint32_t>(e / rows));
    };
    const auto same = [](const core::parity_element& x,
                         const core::parity_element& y) {
        return x.col == y.col && x.row == y.row;
    };
    std::size_t first = 0;
    std::size_t shared = 0;
    for (; first + 1 < std::size_t{a.map().k()} * rows; ++first) {
        const core::update_set t0 = targets(first);
        const core::update_set t1 = targets(first + 1);
        shared = static_cast<std::size_t>(
            std::count_if(t1.begin(), t1.end(), [&](const auto& y) {
                return std::any_of(t0.begin(), t0.end(),
                                   [&](const auto& x) { return same(x, y); });
            }));
        if (shared > 0) break;
    }
    ASSERT_GT(shared, 0u) << "no adjacent elements share a parity element";
    const std::size_t parity =
        targets(first).size() + targets(first + 1).size() - shared;

    // Stripe 1, so the parity columns sit on rotated disks.
    const std::size_t addr =
        a.map().stripe_data_size() + first * elem + elem / 2;
    const auto fresh = pattern_bytes(elem, 18);
    const disk_stats d0 = disk_totals(a);
    const array_stats a0 = a.stats();
    ASSERT_TRUE(a.write(addr, fresh));
    const disk_stats d1 = disk_totals(a);
    const array_stats a1 = a.stats();
    ASSERT_EQ(a1.small_writes - a0.small_writes, 1u);
    EXPECT_EQ(a1.parity_elements_updated - a0.parity_elements_updated, parity);
    EXPECT_EQ(d1.writes - d0.writes, 2 + parity);
    EXPECT_EQ(d1.reads - d0.reads, 2 + parity);

    expect_every_stripe_consistent(a);
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    auto want = base;
    std::copy(fresh.begin(), fresh.end(),
              want.begin() + static_cast<long>(addr));
    EXPECT_EQ(out, want);
}

TEST(RaidArray, DegradedReadOneDisk) {
    raid6_array a(small_config());
    const auto data = pattern_bytes(a.capacity(), 7);
    ASSERT_TRUE(a.write(0, data));
    a.fail_disk(2);
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
    EXPECT_GT(a.stats().degraded_stripe_reads, 0u);
}

TEST(RaidArray, DegradedReadTwoDisks) {
    raid6_array a(small_config());
    const auto data = pattern_bytes(a.capacity(), 8);
    ASSERT_TRUE(a.write(0, data));
    a.fail_disk(0);
    a.fail_disk(5);
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
}

TEST(RaidArray, LatentErrorRecoveredThroughDecode) {
    raid6_array a(small_config());
    const auto data = pattern_bytes(a.capacity(), 9);
    ASSERT_TRUE(a.write(0, data));
    // Hit one strip of stripe 0 with an unreadable sector.
    const auto loc = a.map().locate(0, 1);
    a.disk(loc.disk).inject_latent_error(loc.offset, 64);
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
    EXPECT_GT(a.stats().media_errors_recovered, 0u);
}

TEST(RaidArray, WritesWhileDegradedStayDecodable) {
    raid6_array a(small_config());
    const auto data = pattern_bytes(a.capacity(), 10);
    ASSERT_TRUE(a.write(0, data));
    a.fail_disk(1);

    auto fresh = pattern_bytes(3000, 11);
    ASSERT_TRUE(a.write(500, fresh));

    std::vector<std::byte> out(3000);
    ASSERT_TRUE(a.read(500, out));
    EXPECT_EQ(out, fresh);

    // The rest of the device is unchanged.
    std::vector<std::byte> head(500);
    ASSERT_TRUE(a.read(0, head));
    EXPECT_TRUE(std::equal(head.begin(), head.end(), data.begin()));
}

TEST(RaidArray, ThreeFailuresAreDataLoss) {
    raid6_array a(small_config());
    const auto data = pattern_bytes(a.capacity(), 12);
    ASSERT_TRUE(a.write(0, data));
    a.fail_disk(0);
    a.fail_disk(1);
    a.fail_disk(2);
    std::vector<std::byte> out(a.capacity());
    EXPECT_FALSE(a.read(0, out));
}

TEST(RaidArray, ElementAlignedSingleElementWriteUsesFastPath) {
    raid6_array a(small_config());
    ASSERT_TRUE(a.write(0, pattern_bytes(a.capacity(), 13)));
    const auto small_before = a.stats().small_writes;
    const auto full_before = a.stats().full_stripe_writes;
    ASSERT_TRUE(a.write(0, pattern_bytes(64, 14)));  // sub-element write
    EXPECT_EQ(a.stats().small_writes, small_before + 1);
    EXPECT_EQ(a.stats().full_stripe_writes, full_before);
}

}  // namespace
