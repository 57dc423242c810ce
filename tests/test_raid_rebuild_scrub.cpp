#include <gtest/gtest.h>

#include <vector>

#include "liberation/raid/array.hpp"
#include "liberation/raid/rebuild.hpp"
#include "liberation/raid/scrubber.hpp"
#include "liberation/util/rng.hpp"

namespace {

using namespace liberation;
using namespace liberation::raid;

array_config config(std::uint32_t k = 4, std::size_t stripes = 8) {
    array_config cfg;
    cfg.k = k;
    cfg.element_size = 128;
    cfg.stripes = stripes;
    cfg.sector_size = 128;
    return cfg;
}

std::vector<std::byte> pattern_bytes(std::size_t n, std::uint64_t seed) {
    std::vector<std::byte> v(n);
    util::xoshiro256 rng(seed);
    rng.fill(v);
    return v;
}

TEST(Rebuild, SingleDiskRestoresContents) {
    raid6_array a(config());
    const auto data = pattern_bytes(a.capacity(), 1);
    ASSERT_TRUE(a.write(0, data));

    const auto result = fail_replace_rebuild(a, 3);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.stripes_rebuilt, a.map().stripes());
    EXPECT_EQ(result.columns_rebuilt, a.map().stripes());

    // After rebuild everything reads back clean with no degraded paths.
    const auto degraded_before = a.stats().degraded_stripe_reads;
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
    EXPECT_EQ(a.stats().degraded_stripe_reads, degraded_before);
}

TEST(Rebuild, DoubleDiskRestoresContents) {
    raid6_array a(config(6, 10));  // p = 7, 8 disks
    const auto data = pattern_bytes(a.capacity(), 2);
    ASSERT_TRUE(a.write(0, data));

    a.fail_disk(0);
    a.fail_disk(7);
    a.replace_disk(0);
    a.replace_disk(7);
    const std::uint32_t disks[] = {0, 7};
    const auto result = rebuild_disks(a, disks);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.columns_rebuilt, 2 * a.map().stripes());

    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
}

TEST(Rebuild, PipelinedMatchesSerial) {
    // Rebuild through the aio stripe_loader with a window of eight
    // stripes (qd 8) and a window of one (qd 1).
    array_config serial_cfg = config(5, 16);
    serial_cfg.io_queue_depth = 1;
    array_config pipelined_cfg = config(5, 16);
    pipelined_cfg.io_queue_depth = 8;
    raid6_array serial(serial_cfg);
    raid6_array pipelined(pipelined_cfg);
    const auto data = pattern_bytes(serial.capacity(), 3);
    ASSERT_TRUE(serial.write(0, data));
    ASSERT_TRUE(pipelined.write(0, data));

    const rebuild_result rs = fail_replace_rebuild(serial, 2);
    const rebuild_result rp = fail_replace_rebuild(pipelined, 2);
    EXPECT_TRUE(rs.success);
    EXPECT_TRUE(rp.success);
    EXPECT_EQ(rs.stripes_rebuilt, rp.stripes_rebuilt);
    EXPECT_EQ(rs.columns_rebuilt, rp.columns_rebuilt);

    // Byte-equal members, not just equal reads: the rebuilt disk holds
    // the same strips on both paths.
    const std::size_t disk_bytes = serial.map().disk_capacity();
    for (std::uint32_t d = 0; d < serial.map().n(); ++d) {
        std::vector<std::byte> ms(disk_bytes), mp(disk_bytes);
        serial.disk(d).peek(0, ms);
        pipelined.disk(d).peek(0, mp);
        EXPECT_EQ(ms, mp) << "disk " << d;
    }
    std::vector<std::byte> a(serial.capacity()), b(pipelined.capacity());
    ASSERT_TRUE(serial.read(0, a));
    ASSERT_TRUE(pipelined.read(0, b));
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, data);
}

TEST(Rebuild, RebuildWithConcurrentLatentErrorOnSurvivor) {
    // The RAID-6 motivation (paper Section I): hitting an unreadable
    // sector on a surviving disk *during* single-disk rebuild still
    // recovers, because two erasures are tolerated.
    raid6_array a(config());
    const auto data = pattern_bytes(a.capacity(), 4);
    ASSERT_TRUE(a.write(0, data));

    // Latent error on disk 1's strip of stripe 2 before rebuilding disk 0.
    const auto loc = a.map().locate(2, a.map().column_of_disk(2, 1));
    a.disk(1).inject_latent_error(loc.offset, 32);

    const auto result = fail_replace_rebuild(a, 0);
    EXPECT_TRUE(result.success);
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
}

TEST(Scrub, CleanArray) {
    raid6_array a(config());
    ASSERT_TRUE(a.write(0, pattern_bytes(a.capacity(), 5)));
    const auto summary = scrub_array(a);
    EXPECT_EQ(summary.stripes_scanned, a.map().stripes());
    EXPECT_EQ(summary.clean, a.map().stripes());
    EXPECT_EQ(summary.repaired_data + summary.repaired_parity, 0u);
}

TEST(Scrub, RepairsSilentDataCorruption) {
    raid6_array a(config());
    const auto data = pattern_bytes(a.capacity(), 6);
    ASSERT_TRUE(a.write(0, data));

    // Corrupt one strip of stripe 1 silently.
    util::xoshiro256 rng(7);
    const auto loc = a.map().locate(1, 2);
    a.disk(loc.disk).inject_silent_corruption(loc.offset, 64, rng);

    const auto summary = scrub_array(a);
    EXPECT_EQ(summary.repaired_data, 1u);
    EXPECT_EQ(summary.uncorrectable, 0u);

    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
    // A second scrub finds nothing.
    EXPECT_EQ(scrub_array(a).clean, a.map().stripes());
}

TEST(Scrub, RepairsParityCorruption) {
    raid6_array a(config());
    ASSERT_TRUE(a.write(0, pattern_bytes(a.capacity(), 8)));
    util::xoshiro256 rng(9);
    const auto loc = a.map().locate(3, a.code().q_column());
    a.disk(loc.disk).inject_silent_corruption(loc.offset, 32, rng);
    const auto summary = scrub_array(a);
    EXPECT_EQ(summary.repaired_parity, 1u);
    EXPECT_EQ(scrub_array(a).clean, a.map().stripes());
}

TEST(Scrub, ScrubsDegradedStripes) {
    // The seed scrubber had to skip degraded stripes (its parity
    // cross-check needs every column); the checksum-first scrubber scans
    // them — and still repairs corruption there.
    raid6_array a(config());
    const auto data = pattern_bytes(a.capacity(), 10);
    ASSERT_TRUE(a.write(0, data));
    a.fail_disk(4);

    util::xoshiro256 rng(17);
    std::uint32_t col = 0;
    while (a.map().locate(3, col).disk == 4u) ++col;
    const auto loc = a.map().locate(3, col);
    a.disk(loc.disk).inject_silent_corruption(loc.offset, 48, rng);

    const auto summary = scrub_array(a);
    EXPECT_EQ(summary.skipped_degraded, 0u);
    EXPECT_EQ(summary.degraded_scrubbed, a.map().stripes());
    EXPECT_EQ(summary.repaired_on_degraded, 1u);
    EXPECT_EQ(summary.uncorrectable, 0u);

    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
}

TEST(Resilver, HealsParityStripLatentErrors) {
    // Plain reads only touch data columns, so a latent error in a P or Q
    // strip is invisible to the workload — and silently costs redundancy.
    // Only the resilver patrol walks parity strips and heals them.
    raid6_array a(config());
    const auto data = pattern_bytes(a.capacity(), 13);
    ASSERT_TRUE(a.write(0, data));

    const auto p_loc = a.map().locate(2, a.code().p_column());
    const auto q_loc = a.map().locate(5, a.code().q_column());
    a.disk(p_loc.disk).inject_latent_error(p_loc.offset, 32);
    a.disk(q_loc.disk).inject_latent_error(q_loc.offset, 32);

    // The whole device reads back fine without healing anything: no data
    // column is affected, heal-on-read never sees the parity strips.
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
    EXPECT_EQ(a.disk(p_loc.disk).latent_error_count() +
                  a.disk(q_loc.disk).latent_error_count(),
              2u);

    EXPECT_EQ(a.resilver(), 2u);  // exactly the two bad strips rewritten
    EXPECT_EQ(a.disk(p_loc.disk).latent_error_count(), 0u);
    EXPECT_EQ(a.disk(q_loc.disk).latent_error_count(), 0u);
    EXPECT_EQ(a.resilver(), 0u);  // second patrol finds nothing

    // Redundancy is actually restored: both stripes survive a double
    // failure that includes the previously-unreadable parity disks.
    a.fail_disk(p_loc.disk);
    if (q_loc.disk != p_loc.disk) a.fail_disk(q_loc.disk);
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
}

TEST(Scrub, TwoCorruptColumnsRepaired) {
    // The seed scrubber's single-corruption assumption made two corrupt
    // columns uncorrectable; the checksum domains pinpoint both, which
    // brings them within the two-erasure decode budget.
    raid6_array a(config());
    const auto data = pattern_bytes(a.capacity(), 11);
    ASSERT_TRUE(a.write(0, data));
    util::xoshiro256 rng(12);
    a.disk(a.map().locate(0, 0).disk)
        .inject_silent_corruption(a.map().locate(0, 0).offset, 16, rng);
    a.disk(a.map().locate(0, 3).disk)
        .inject_silent_corruption(a.map().locate(0, 3).offset, 16, rng);
    const auto summary = scrub_array(a);
    EXPECT_EQ(summary.uncorrectable, 0u);
    EXPECT_EQ(summary.repaired_data, 2u);
    EXPECT_EQ(summary.checksum_mismatch_columns, 2u);

    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
    EXPECT_EQ(scrub_array(a).clean, a.map().stripes());
}

TEST(Scrub, ThreeCorruptColumnsReportedUncorrectable) {
    // Three corrupt columns exceed what two parities can ever repair; the
    // scrubber must say so rather than guess.
    raid6_array a(config());
    ASSERT_TRUE(a.write(0, pattern_bytes(a.capacity(), 14)));
    util::xoshiro256 rng(15);
    for (const std::uint32_t col : {0u, 2u, 3u}) {
        const auto loc = a.map().locate(0, col);
        a.disk(loc.disk).inject_silent_corruption(loc.offset, 16, rng);
    }
    const auto summary = scrub_array(a);
    EXPECT_EQ(summary.uncorrectable, 1u);
    EXPECT_EQ(summary.repaired_data, 0u);
}

}  // namespace
