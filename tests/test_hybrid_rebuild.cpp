#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "liberation/core/hybrid_rebuild.hpp"
#include "liberation/core/liberation_optimal_code.hpp"
#include "liberation/raid/rebuild.hpp"
#include "liberation/raid/scrubber.hpp"
#include "liberation/util/rng.hpp"
#include "test_support.hpp"

namespace {

using namespace liberation;
using core::geometry;

class HybridSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
protected:
    std::uint32_t p() const { return std::get<0>(GetParam()); }
    std::uint32_t k() const { return std::get<1>(GetParam()); }
};

TEST_P(HybridSweep, RebuildsEveryDataColumnExactly) {
    const core::liberation_optimal_code code(k(), p());
    const geometry& g = code.geom();
    auto ref = test_support::make_encoded_stripe(code, 16, 7);

    for (std::uint32_t l = 0; l < k(); ++l) {
        const auto plan = core::plan_hybrid_rebuild(g, l);
        codes::stripe_buffer broke(p(), k() + 2, 16);
        codes::copy_stripe(broke.view(), ref.view());
        const std::vector<std::uint32_t> pat{l};
        test_support::trash_columns(broke.view(), pat, 11);
        core::rebuild_column_hybrid(broke.view(), g, plan);
        EXPECT_TRUE(codes::stripes_equal(broke.view(), ref.view()))
            << "p=" << p() << " k=" << k() << " l=" << l;
    }
}

TEST_P(HybridSweep, RebuildUsesOnlyPlannedElements) {
    // Zero every element NOT in the read set; the rebuild must still be
    // exact — proving the plan's read set is sufficient.
    const core::liberation_optimal_code code(k(), p());
    const geometry& g = code.geom();
    auto ref = test_support::make_encoded_stripe(code, 8, 13);

    for (std::uint32_t l = 0; l < k(); ++l) {
        const auto plan = core::plan_hybrid_rebuild(g, l);
        codes::stripe_buffer broke(p(), k() + 2, 8);
        codes::copy_stripe(broke.view(), ref.view());
        for (std::uint32_t c = 0; c < k() + 2; ++c) {
            for (std::uint32_t r = 0; r < p(); ++r) {
                if (plan.read_rows[c * p() + r] == 0 && c != l) {
                    std::memset(broke.view().element(r, c), 0xEE, 8);
                }
            }
        }
        const std::vector<std::uint32_t> pat{l};
        test_support::trash_columns(broke.view(), pat, 17);
        core::rebuild_column_hybrid(broke.view(), g, plan);
        EXPECT_TRUE(codes::strips_equal(broke.view(), ref.view(), l))
            << "p=" << p() << " k=" << k() << " l=" << l;
    }
}

TEST_P(HybridSweep, SavesReadsAtFullWidth) {
    // At k = p the hybrid plan should beat the all-rows baseline clearly;
    // the known bound for RDP-like geometries is ~25%.
    if (k() != p()) return;
    const geometry g(p(), k());
    double worst = 1.0;
    for (std::uint32_t l = 0; l < k(); ++l) {
        const auto plan = core::plan_hybrid_rebuild(g, l);
        EXPECT_LE(plan.reads, plan.baseline_reads);
        worst = std::min(worst, plan.savings());
    }
    if (p() >= 7) EXPECT_GT(worst, 0.10) << "p=" << p();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HybridSweep,
    ::testing::Values(std::make_tuple(3u, 2u), std::make_tuple(5u, 4u),
                      std::make_tuple(5u, 5u), std::make_tuple(7u, 7u),
                      std::make_tuple(11u, 7u), std::make_tuple(11u, 11u),
                      std::make_tuple(13u, 13u), std::make_tuple(17u, 17u)));

// ---- the plan inside the array's rebuild ---------------------------------
//
// rebuild_disks / rebuild_stripe_range view only the plan's elements on a
// stripe whose one target is a data column (every other member readable,
// no journal entry), and k + 1 whole strips elsewhere. The disks' byte
// counters must show exactly that.

raid::array_config plan_config(std::uint32_t k, std::size_t elem,
                               std::size_t stripes) {
    raid::array_config cfg;
    cfg.k = k;
    cfg.element_size = elem;
    cfg.sector_size = elem;
    cfg.stripes = stripes;
    return cfg;
}

std::vector<std::byte> fill(raid::raid6_array& a, std::uint64_t seed) {
    util::xoshiro256 rng(seed);
    std::vector<std::byte> img(a.capacity());
    rng.fill(img);
    EXPECT_TRUE(a.write(0, img));
    return img;
}

std::uint64_t bytes_read(const raid::raid6_array& a) {
    std::uint64_t total = 0;
    for (std::uint32_t d = 0; d < a.disk_count(); ++d) {
        total += a.disk(d).stats().bytes_read;
    }
    return total;
}

/// What rebuilding `disk` over stripes [first, last) must read: the plan's
/// elements where its column is data, k + 1 strips where it is parity.
std::uint64_t planned_bytes(const raid::raid6_array& a, std::uint32_t disk,
                            std::size_t first, std::size_t last) {
    const raid::stripe_map& map = a.map();
    std::uint64_t total = 0;
    for (std::size_t s = first; s < last; ++s) {
        const std::uint32_t col = map.column_of_disk(s, disk);
        total += col < map.k()
                     ? core::plan_hybrid_rebuild(a.code().geom(), col).reads *
                           map.element_size()
                     : (map.k() + 1) * map.strip_size();
    }
    return total;
}

/// Rebuild `disk` through rebuild_disks; expects success, exactly the
/// planned bytes read, and every byte read back with no degraded read.
void expect_planned_rebuild(raid::raid6_array& a, std::uint32_t disk,
                            const std::vector<std::byte>& img) {
    a.fail_disk(disk);
    a.replace_disk(disk);
    const std::uint64_t before = bytes_read(a);
    const std::uint32_t disks[] = {disk};
    const raid::rebuild_result r = raid::rebuild_disks(a, disks);
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.columns_rebuilt, a.map().stripes());
    EXPECT_EQ(bytes_read(a) - before,
              planned_bytes(a, disk, 0, a.map().stripes()));

    std::vector<std::byte> out(a.capacity());
    const auto degraded_before = a.stats().degraded_stripe_reads;
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, img);
    EXPECT_EQ(a.stats().degraded_stripe_reads, degraded_before);
}

TEST(HybridRebuild, ArrayLevelReadsFewerBytes) {
    // k = 10, p = 11; 512-byte elements are read in place, 96-byte ones
    // are copied into scratch first (xorops::reads_in_place).
    for (const std::size_t elem : {512u, 96u}) {
        SCOPED_TRACE(elem);
        raid::raid6_array a(plan_config(10, elem, 12));
        const auto img = fill(a, 5);
        expect_planned_rebuild(a, 4, img);
        // The whole-stripe path reads k + 1 = 11 strips per stripe.
        EXPECT_LT(planned_bytes(a, 4, 0, 12), 12 * 11 * a.map().strip_size());
    }
}

TEST(HybridRebuild, ReadsAQuarterLessAtTheBenchGeometry) {
    // k = 6, p = 7 over a rotated disk: parity-column stripes still read
    // k + 1 strips, data-column stripes only their plan.
    raid::raid6_array a(plan_config(6, 256, 16));
    const auto img = fill(a, 6);
    expect_planned_rebuild(a, 3, img);
    const double full = 16.0 * 7 * a.map().strip_size();
    EXPECT_LE(static_cast<double>(planned_bytes(a, 3, 0, 16)), 0.75 * full);
}

TEST(HybridRebuild, HybridRebuildHandlesParityColumns) {
    // Rotating layout puts P/Q of some stripes on the rebuilt disk; those
    // take the whole-stripe path and are re-encoded correctly too.
    raid::raid6_array a(plan_config(4, 256, 13));  // > n: every column
    const auto img = fill(a, 9);
    expect_planned_rebuild(a, 2, img);
}

TEST(HybridRebuild, BackgroundHotSpareReadsOnlyThePlan) {
    raid::array_config cfg = plan_config(6, 256, 16);
    cfg.hot_spares = 1;
    raid::raid6_array a(cfg);
    const auto img = fill(a, 10);
    const std::uint64_t before = bytes_read(a);
    a.fail_disk(5);  // the spare is promoted into slot 5
    ASSERT_TRUE(a.rebuild_active());
    while (a.rebuild_active()) {
        ASSERT_GT(a.service_background_rebuild(4), 0u);
    }
    EXPECT_EQ(a.stats().rebuild_stripes_failed, 0u);
    EXPECT_EQ(bytes_read(a) - before, planned_bytes(a, 5, 0, 16));
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, img);
}

TEST(HybridRebuild, PlanFollowsAddDataDisk) {
    raid::array_config cfg = plan_config(4, 256, 10);
    cfg.p = 7;
    cfg.layout = raid::parity_layout::parity_first;
    raid::raid6_array a(cfg);
    // A data disk, rebuilt with the k = 4 plans...
    std::uint32_t disk = 0;
    while (a.map().column_of_disk(0, disk) >= a.map().k()) ++disk;
    expect_planned_rebuild(a, disk, fill(a, 11));
    // ...and again after growth, with the k = 5 plans.
    a.add_data_disk();
    ASSERT_EQ(a.map().k(), 5u);
    expect_planned_rebuild(a, disk, fill(a, 12));
}

// ---- what the plan does not see -----------------------------------------

class HybridRebuildFallback : public ::testing::Test {
protected:
    static constexpr std::uint32_t kDisk = 1;
    static constexpr std::size_t kStripes = 8;
    static constexpr std::size_t kElem = 256;

    HybridRebuildFallback() : a_(plan_config(6, kElem, kStripes)) {
        img_ = fill(a_, 21);
        // A stripe whose lost column is data, and the plan of that column.
        while (a_.map().column_of_disk(s_, kDisk) >= a_.map().k()) ++s_;
        lost_ = a_.map().column_of_disk(s_, kDisk);
        plan_ = core::plan_hybrid_rebuild(a_.code().geom(), lost_);
        first_ = static_cast<std::size_t>(
            std::find(plan_.read_rows.begin(), plan_.read_rows.end(), 1) -
            plan_.read_rows.begin());
    }

    /// Disk and byte offset of element (col, row) of stripe s_.
    raid::strip_location element(std::uint32_t col, std::uint32_t row) {
        raid::strip_location loc = a_.map().locate(s_, col);
        loc.offset += row * kElem;
        return loc;
    }
    /// A survivor element the plan reads, and one it does not.
    raid::strip_location planned() {
        const auto p = a_.map().rows();
        return element(static_cast<std::uint32_t>(first_ / p),
                       static_cast<std::uint32_t>(first_ % p));
    }
    raid::strip_location unplanned() {
        for (std::uint32_t c = 0; c < a_.map().n(); ++c) {
            for (std::uint32_t r = 0; r < a_.map().rows(); ++r) {
                if (c != lost_ &&
                    plan_.read_rows[c * a_.map().rows() + r] == 0) {
                    return element(c, r);
                }
            }
        }
        ADD_FAILURE() << "the plan reads every element";
        return {};
    }

    raid::rebuild_result rebuild() {
        a_.fail_disk(kDisk);
        a_.replace_disk(kDisk);
        before_ = bytes_read(a_);
        const std::uint32_t disks[] = {kDisk};
        return raid::rebuild_disks(a_, disks);
    }
    /// Stripe s_ viewed twice: its plan, then every strip of it but the
    /// blank target (the whole-stripe recovery never reads its target).
    std::uint64_t fallback_bytes() {
        return planned_bytes(a_, kDisk, 0, kStripes) +
               (a_.map().n() - 1) * a_.map().strip_size();
    }
    std::uint64_t read_since() { return bytes_read(a_) - before_; }
    void expect_reads_back() {
        std::vector<std::byte> out(a_.capacity());
        ASSERT_TRUE(a_.read(0, out));
        EXPECT_EQ(out, img_);
    }

    raid::raid6_array a_;
    std::vector<std::byte> img_;
    std::size_t s_ = 0;
    std::uint32_t lost_ = 0;
    core::hybrid_plan plan_;
    std::size_t first_ = 0;  ///< the first element the plan reads
    std::uint64_t before_ = 0;
};

TEST_F(HybridRebuildFallback, UnreadablePlanElementIsDecodedAndHealed) {
    // The deleted serial path failed this stripe; the whole-stripe
    // recovery decodes two erasures and rewrites the survivor's strip.
    const raid::strip_location bad = planned();
    a_.disk(bad.disk).inject_latent_error(bad.offset, kElem);
    const std::uint64_t healed = a_.stats().media_errors_recovered;
    const raid::rebuild_result r = rebuild();
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.stripes_failed, 0u);
    EXPECT_EQ(r.columns_rebuilt, kStripes + 1);  // the survivor too
    EXPECT_EQ(a_.disk(bad.disk).latent_error_count(), 0u);
    // The heal is counted as on scrub and read-repair.
    EXPECT_EQ(a_.stats().media_errors_recovered, healed + 1);
    // A failed view reads nothing: neither the plan's run of rows that
    // holds the bad element nor, in the fallback, the survivor's strip.
    const std::size_t p = a_.map().rows();
    std::size_t run = 0;
    while (first_ % p + run < p && plan_.read_rows[first_ + run] != 0) ++run;
    EXPECT_EQ(read_since(), fallback_bytes() - run * kElem -
                                a_.map().strip_size());
    expect_reads_back();
}

TEST_F(HybridRebuildFallback, RottenPlanElementIsHealed) {
    util::xoshiro256 rng(22);
    const raid::strip_location rot = planned();
    a_.disk(rot.disk).inject_silent_corruption(rot.offset, 64, rng);
    const raid::rebuild_result r = rebuild();
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.columns_rebuilt, kStripes + 1);
    EXPECT_EQ(a_.stats().checksum_mismatches, 1u);
    EXPECT_EQ(read_since(), fallback_bytes());
    expect_reads_back();
    EXPECT_EQ(raid::scrub_array(a_).clean, kStripes);
}

TEST_F(HybridRebuildFallback, DamagedTargetWordIsRefreshed) {
    // The stored word is wrong, the reconstruction right: the plan's
    // verify fails, the whole-stripe recovery refreshes the word.
    const raid::strip_location t = element(lost_, 0);
    a_.integrity(t.disk).corrupt_block(t.offset / a_.integrity_block(), 0x4);
    const raid::rebuild_result r = rebuild();
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.columns_rebuilt, kStripes);
    EXPECT_EQ(a_.stats().checksum_metadata_repaired, 1u);
    EXPECT_EQ(read_since(), fallback_bytes());
    expect_reads_back();
    EXPECT_EQ(raid::scrub_array(a_).clean, kStripes);
}

TEST_F(HybridRebuildFallback, JournaledStripeTakesTheTornStripeRule) {
    // Tear stripe s_ with a small write into another data column: its
    // first disk write lands, the rest is cut. The plan never runs on a
    // journaled stripe; the torn-stripe rule refuses to rebuild a data
    // column from it (as on the deleted serial path), and reads it
    // k + 1 strips wide.
    std::uint32_t other = 0;
    while (other == lost_) ++other;
    const std::size_t addr = s_ * a_.map().stripe_data_size() +
                             other * a_.map().strip_size() + 100;
    a_.simulate_power_loss_after(1);
    (void)a_.write(addr, std::span<const std::byte>(img_).subspan(addr, 50));
    a_.reboot();
    ASSERT_TRUE(a_.journal().is_dirty(s_));
    const raid::rebuild_result r = rebuild();
    EXPECT_EQ(r.stripes_failed, 1u);
    EXPECT_EQ(r.first_failed_stripe, s_);
    EXPECT_EQ(read_since(), planned_bytes(a_, kDisk, 0, kStripes) -
                                plan_.reads * kElem +
                                (a_.map().k() + 1) * a_.map().strip_size());
    // The write hole's replay recovers the lost column from the checksum
    // it still holds, and every byte reads back.
    EXPECT_EQ(a_.recover_write_hole(), 1u);
    expect_reads_back();
}

TEST_F(HybridRebuildFallback, RotOutsideThePlanIsLeftForScrub) {
    // A rebuild sees only the plan's elements: rot elsewhere is neither
    // read nor healed by it. The next scrub finds and heals it.
    util::xoshiro256 rng(23);
    const raid::strip_location rot = unplanned();
    a_.disk(rot.disk).inject_silent_corruption(rot.offset, 64, rng);
    const raid::rebuild_result r = rebuild();
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.columns_rebuilt, kStripes);
    EXPECT_EQ(a_.stats().checksum_mismatches, 0u);
    EXPECT_EQ(read_since(), planned_bytes(a_, kDisk, 0, kStripes));
    const raid::scrub_summary sc = raid::scrub_array(a_);
    EXPECT_EQ(sc.repaired_data + sc.repaired_parity, 1u);
    EXPECT_EQ(sc.clean, kStripes - 1);
    expect_reads_back();
}

}  // namespace
