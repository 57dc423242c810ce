// Randomized integration fuzz: drive a RAID-6 array through thousands of
// random operations (reads, writes of every shape, disk failures,
// replacements, rebuilds, latent errors, silent corruption + scrub)
// against a plain byte-vector shadow model. Any divergence between the
// array and the model is a bug somewhere in the stack.
#include <gtest/gtest.h>

#include <vector>

#include "liberation/raid/array.hpp"
#include "liberation/raid/rebuild.hpp"
#include "liberation/raid/scrubber.hpp"
#include "liberation/util/rng.hpp"

namespace {

using namespace liberation;
using namespace liberation::raid;

class ArrayFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArrayFuzz, ThousandOpsAgainstShadowModel) {
    array_config cfg;
    cfg.k = 5;  // p = 5, 7 disks
    cfg.element_size = 128;
    cfg.stripes = 10;
    cfg.sector_size = 128;
    raid6_array a(cfg);
    util::xoshiro256 rng(GetParam());

    std::vector<std::byte> shadow(a.capacity(), std::byte{0});
    ASSERT_TRUE(a.write(0, shadow));  // initialize parity over zeros

    std::vector<std::uint32_t> failed;
    bool latent_pending = false;
    int scrubs = 0, rebuilds = 0, corruptions = 0;

    // Full-array read: verifies against the shadow AND (via the array's
    // heal-on-read) rewrites any latent sectors, restoring full redundancy.
    const auto full_check = [&] {
        scrub_array(a);  // parity-strip media errors only heal here
        std::vector<std::byte> all(a.capacity());
        ASSERT_TRUE(a.read(0, all));
        ASSERT_EQ(all, shadow);
        latent_pending = false;
    };

    for (int op = 0; op < 1200; ++op) {
        const auto dice = rng.next_below(100);
        if (dice < 45) {
            // Random write (1 byte .. ~2 stripes).
            const std::size_t len = 1 + rng.next_below(2 * a.map().stripe_data_size());
            const std::size_t off = rng.next_below(a.capacity() - len);
            std::vector<std::byte> data(len);
            rng.fill(data);
            ASSERT_TRUE(a.write(off, data)) << "op " << op;
            std::copy(data.begin(), data.end(), shadow.begin() +
                                                    static_cast<long>(off));
        } else if (dice < 80) {
            // Random read must match the shadow exactly.
            const std::size_t len = 1 + rng.next_below(3 * a.map().strip_size());
            const std::size_t off = rng.next_below(a.capacity() - len);
            std::vector<std::byte> got(len);
            ASSERT_TRUE(a.read(off, got)) << "op " << op;
            ASSERT_TRUE(std::equal(got.begin(), got.end(),
                                   shadow.begin() + static_cast<long>(off)))
                << "op " << op << " read mismatch at " << off;
        } else if (dice < 88) {
            // Fail a disk (keep at most 2 down). Heal latent sectors first
            // — failing a disk while another holds unreadable sectors is a
            // genuine triple-fault, which no RAID-6 survives.
            if (latent_pending) full_check();
            if (failed.size() < 2) {
                const auto d = static_cast<std::uint32_t>(
                    rng.next_below(a.disk_count()));
                if (std::find(failed.begin(), failed.end(), d) ==
                    failed.end()) {
                    a.fail_disk(d);
                    failed.push_back(d);
                }
            }
        } else if (dice < 94) {
            // Replace + rebuild everything that is down.
            if (!failed.empty()) {
                for (const auto d : failed) a.replace_disk(d);
                const auto result = rebuild_disks(a, failed);
                ASSERT_TRUE(result.success) << "op " << op;
                failed.clear();
                ++rebuilds;
            }
        } else if (dice < 97 && failed.empty() && !latent_pending) {
            // Silent corruption somewhere + scrub heals it. (Scrub skips
            // stripes with unreadable columns, hence the latent guard.)
            const auto d =
                static_cast<std::uint32_t>(rng.next_below(a.disk_count()));
            const std::size_t off =
                rng.next_below(a.disk(d).capacity() - 64);
            a.disk(d).inject_silent_corruption(off, 64, rng);
            ++corruptions;
            const auto summary = scrub_array(a);
            ASSERT_EQ(summary.uncorrectable, 0u) << "op " << op;
            ++scrubs;
        } else if (failed.empty()) {
            // Latent sector error; the next read through it must still
            // return correct data (recovered via decode).
            const auto d =
                static_cast<std::uint32_t>(rng.next_below(a.disk_count()));
            const std::size_t off =
                rng.next_below(a.disk(d).capacity() - 32);
            a.disk(d).inject_latent_error(off, 32);
            latent_pending = true;
        }
    }

    // Final: heal everything and do a full compare.
    if (!failed.empty() && latent_pending) scrub_array(a);
    if (!failed.empty()) {
        for (const auto d : failed) a.replace_disk(d);
        ASSERT_TRUE(rebuild_disks(a, failed).success);
    }
    std::vector<std::byte> all(a.capacity());
    ASSERT_TRUE(a.read(0, all));
    EXPECT_EQ(all, shadow);
    // Exercised enough of the interesting machinery?
    EXPECT_GT(scrubs + rebuilds + corruptions, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArrayFuzz,
                         ::testing::Values(0xA11CEull, 0xB0Bull, 0xCAFEull,
                                           0xD00Dull));

}  // namespace
