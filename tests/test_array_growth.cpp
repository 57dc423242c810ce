#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "liberation/raid/array.hpp"
#include "liberation/raid/rebuild.hpp"
#include "liberation/util/rng.hpp"

namespace {

using namespace liberation;
using namespace liberation::raid;

array_config growable_config(std::uint32_t k, std::uint32_t p) {
    array_config cfg;
    cfg.k = k;
    cfg.p = p;
    cfg.element_size = 256;
    cfg.stripes = 6;
    cfg.sector_size = 256;
    cfg.layout = parity_layout::parity_first;
    return cfg;
}

TEST(ParityFirstLayout, MappingIsStatic) {
    stripe_map m(4, 11, 64, 8, parity_layout::parity_first);
    for (std::size_t s = 0; s < 8; ++s) {
        EXPECT_EQ(m.locate(s, m.k()).disk, 0u);      // P on disk 0
        EXPECT_EQ(m.locate(s, m.k() + 1).disk, 1u);  // Q on disk 1
        for (std::uint32_t j = 0; j < 4; ++j) {
            EXPECT_EQ(m.locate(s, j).disk, j + 2);
            EXPECT_EQ(m.column_of_disk(s, j + 2), j);
        }
        EXPECT_EQ(m.column_of_disk(s, 0), m.k());
        EXPECT_EQ(m.column_of_disk(s, 1), m.k() + 1);
    }
}

/// Value of an unlabeled counter in the array's exposition (0 if absent).
std::uint64_t exported(raid6_array& a, const std::string& name) {
    const std::string text = a.obs().metrics_text();
    const std::string key = "\nliberation_" + name + " ";
    const std::size_t pos = text.find(key);
    return pos == std::string::npos
               ? 0
               : std::stoull(text.substr(pos + key.size()));
}

// Growth rebuilds the aio engine for the wider array; its counters live
// in the array hub's registry, so the new engine continues the series
// instead of restarting them at zero.
TEST(ArrayGrowth, AioCountersSurviveEngineRebuild) {
    raid6_array a(growable_config(4, 11));
    util::xoshiro256 rng(3);
    std::vector<std::byte> image(a.capacity());
    rng.fill(image);
    ASSERT_TRUE(a.write(0, image));
    const aio::aio_stats before = a.aio_engine().stats();
    const std::uint64_t exported_before = exported(a, "aio_submitted_total");
    ASSERT_GT(before.submitted, 0u);
    ASSERT_EQ(exported_before, before.submitted);

    a.add_data_disk();
    EXPECT_EQ(a.aio_engine().stats().submitted, before.submitted);
    EXPECT_EQ(a.aio_engine().stats().batches, before.batches);
    EXPECT_EQ(exported(a, "aio_submitted_total"), exported_before);

    std::vector<std::byte> more(a.capacity());
    rng.fill(more);
    ASSERT_TRUE(a.write(0, more));
    EXPECT_GT(a.aio_engine().stats().submitted, before.submitted);
}

TEST(ArrayGrowth, AddDiskWithoutParityRecomputation) {
    raid6_array a(growable_config(4, 11));
    util::xoshiro256 rng(1);
    std::vector<std::byte> image(a.capacity());
    rng.fill(image);
    ASSERT_TRUE(a.write(0, image));

    // Snapshot every stripe's strips before growth.
    std::vector<codes::stripe_buffer> before;
    std::vector<std::uint32_t> erased;
    for (std::size_t s = 0; s < a.map().stripes(); ++s) {
        before.emplace_back(a.make_stripe_buffer());
        ASSERT_TRUE(a.load_stripe(s, before.back().view(), erased));
        ASSERT_TRUE(erased.empty());
    }

    const std::size_t old_capacity = a.capacity();
    const std::uint64_t p_writes_before =
        a.disk(0).stats().bytes_written + a.disk(1).stats().bytes_written;
    a.add_data_disk();
    const std::uint64_t p_writes_after =
        a.disk(0).stats().bytes_written + a.disk(1).stats().bytes_written;

    EXPECT_EQ(a.map().k(), 5u);
    EXPECT_EQ(a.disk_count(), 7u);
    EXPECT_GT(a.capacity(), old_capacity);
    // THE property: growth wrote no parity at all.
    EXPECT_EQ(p_writes_before, p_writes_after);

    // Every stripe is immediately parity-consistent at the new width, the
    // old columns are untouched, and the new column reads zero.
    codes::stripe_buffer buf = a.make_stripe_buffer();
    for (std::size_t s = 0; s < a.map().stripes(); ++s) {
        ASSERT_TRUE(a.load_stripe(s, buf.view(), erased));
        ASSERT_TRUE(erased.empty());
        EXPECT_TRUE(a.code().verify(buf.view())) << "stripe " << s;
        for (std::uint32_t j = 0; j < 4; ++j) {  // old data columns
            EXPECT_EQ(std::memcmp(buf.view().strip(j).data(),
                                  before[s].view().strip(j).data(),
                                  buf.view().strip_size()),
                      0);
        }
        for (auto b : buf.view().strip(4)) EXPECT_EQ(b, std::byte{0});
    }
}

TEST(ArrayGrowth, GrownArrayIsFullyOperational) {
    raid6_array a(growable_config(3, 7));
    util::xoshiro256 rng(2);
    std::vector<std::byte> img(a.capacity());
    rng.fill(img);
    ASSERT_TRUE(a.write(0, img));
    a.add_data_disk();
    a.add_data_disk();
    EXPECT_EQ(a.map().k(), 5u);

    // Write fresh data across the grown device and survive 2 failures.
    std::vector<std::byte> fresh(a.capacity());
    rng.fill(fresh);
    ASSERT_TRUE(a.write(0, fresh));
    a.fail_disk(2);
    a.fail_disk(6);  // one original, one new disk
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, fresh);

    a.replace_disk(2);
    a.replace_disk(6);
    const std::uint32_t disks[] = {2, 6};
    ASSERT_TRUE(rebuild_disks(a, disks).success);
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, fresh);
}

TEST(ArrayGrowth, GrowthCappedByPrime) {
    raid6_array a(growable_config(4, 5));
    a.add_data_disk();  // k = 5 = p: at the cap now
    EXPECT_EQ(a.map().k(), 5u);
    EXPECT_DEATH(a.add_data_disk(), "precondition");
}

TEST(ArrayGrowth, RotatingLayoutRefusesGrowth) {
    array_config cfg;
    cfg.k = 4;
    cfg.element_size = 256;
    cfg.stripes = 4;
    raid6_array a(cfg);
    EXPECT_DEATH(a.add_data_disk(), "precondition");
}

}  // namespace
