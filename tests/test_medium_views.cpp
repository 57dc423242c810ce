// Reads are views into the medium: every degraded read, scrub, rebuild and
// re-sync decodes the surviving strips where they sit. These tests hold the
// two rules that makes safe on a file-backed (mapped) array:
//   * nothing is written through a view — the only medium bytes that change
//     are the healed, rebuilt or re-synced strips, and every such change is
//     a disk write the disk counted;
//   * the coding and CRC kernels never load past the end of a mapping, even
//     when the element size leaves a partial vector tail.
// Writes land on the medium through one copy that also checksums what it
// moves (streaming stores for whole strips): the MediumWrites tests hold
// that every installed checksum word is the CRC32C of the bytes that
// landed, and that a write dropped by power loss records the words of the
// intended bytes without touching the medium.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "liberation/integrity/crc32c.hpp"
#include "liberation/raid/persist/mount.hpp"
#include "liberation/raid/rebuild.hpp"
#include "liberation/raid/scrubber.hpp"
#include "liberation/util/rng.hpp"
#include "liberation/xorops/xorops.hpp"

namespace {

using namespace liberation;
using namespace liberation::raid;

std::string fresh_dir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "liberation-views-" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
    std::vector<std::byte> v(n);
    util::xoshiro256 rng(seed);
    rng.fill(v);
    return v;
}

std::unique_ptr<raid6_array> make_mapped_array(const array_config& cfg,
                                               const std::string& name) {
    persist::store_config scfg;
    scfg.dir = fresh_dir(name);
    auto a = persist::create_array(cfg, scfg, 0xC0FFEE);
    if (a != nullptr) EXPECT_TRUE(a->disk(0).mapped());
    return a;
}

/// Every member's medium and disk write counter at one instant.
struct media {
    std::vector<std::vector<std::byte>> bytes;
    std::vector<std::uint64_t> writes;
};

media snapshot(const raid6_array& a) {
    media m;
    for (std::uint32_t d = 0; d < a.disk_count(); ++d) {
        std::vector<std::byte> b(a.map().disk_capacity());
        a.disk(d).peek(0, b);
        m.bytes.push_back(std::move(b));
        m.writes.push_back(a.disk(d).stats().writes);
    }
    return m;
}

using strip_id = std::pair<std::size_t, std::uint32_t>;  ///< (stripe, disk)

/// Checks that the strips whose bytes differ between two snapshots are
/// exactly `expected`, and that every disk wrote at least once per strip
/// of it that changed.
void expect_changes(const raid6_array& a, const media& before,
                    const media& after, const std::vector<strip_id>& expected) {
    const std::size_t strip = a.map().strip_size();
    std::vector<strip_id> changed;
    std::map<std::uint32_t, std::uint64_t> per_disk;
    for (std::uint32_t d = 0; d < a.disk_count(); ++d) {
        for (std::size_t s = 0; s < a.map().stripes(); ++s) {
            const std::size_t off =
                a.map().locate(s, a.map().column_of_disk(s, d)).offset;
            if (std::memcmp(before.bytes[d].data() + off,
                            after.bytes[d].data() + off, strip) != 0) {
                changed.emplace_back(s, d);
                ++per_disk[d];
            }
        }
    }
    std::vector<strip_id> want = expected;
    std::sort(want.begin(), want.end());
    std::sort(changed.begin(), changed.end());
    EXPECT_EQ(changed, want);
    for (const auto& [d, strips] : per_disk) {
        EXPECT_GE(after.writes[d] - before.writes[d], strips) << "disk " << d;
    }
}

/// The strip of `stripe` on disk `d` in a snapshot.
std::vector<std::byte> strip_of(const raid6_array& a, const media& m,
                                std::size_t stripe, std::uint32_t d) {
    const std::size_t off =
        a.map().locate(stripe, a.map().column_of_disk(stripe, d)).offset;
    const auto* p = m.bytes[d].data() + off;
    return {p, p + a.map().strip_size()};
}

array_config mapped_config() {
    array_config c;
    c.k = 4;
    c.element_size = 4096;
    c.stripes = 8;
    c.sector_size = 4096;
    return c;
}

TEST(MediumViews, DegradedReadScrubAndRebuildWriteOnlyThroughDiskWrites) {
    auto a = make_mapped_array(mapped_config(), "rw");
    ASSERT_NE(a, nullptr);
    const auto data = pattern(a->capacity(), 1);
    ASSERT_TRUE(a->write(0, data));
    const media clean = snapshot(*a);

    // Stripe 2 loses data column 1 to a dead disk and has data column 0
    // silently rotten, so the host read decodes the stripe from views of
    // the survivors and heals the rotten strip.
    const std::uint32_t dead = a->map().locate(2, 1).disk;
    const std::uint32_t rotten = a->map().locate(2, 0).disk;
    a->fail_disk(dead);
    util::xoshiro256 rng(7);
    a->disk(rotten).inject_silent_corruption(a->map().locate(2, 0).offset,
                                             a->map().strip_size(), rng);
    const media m0 = snapshot(*a);
    std::vector<std::byte> out(a->capacity());
    // With the power-loss budget spent every disk write is dropped, so a
    // byte written anywhere but through disk_write is the only way the
    // medium could still change.
    a->simulate_power_loss_after(0);
    (void)a->read(0, out);
    expect_changes(*a, m0, snapshot(*a), {});
    a->reboot();
    ASSERT_TRUE(a->read(0, out));
    EXPECT_EQ(out, data);
    const media m1 = snapshot(*a);
    expect_changes(*a, m0, m1, {{2, rotten}});
    EXPECT_EQ(strip_of(*a, m1, 2, rotten), strip_of(*a, clean, 2, rotten));

    // Scrub: a rotten parity strip on another stripe is healed; every
    // stripe is degraded, so each is verified and decoded from views.
    const std::uint32_t qrot = a->map().locate(5, a->code().q_column()).disk;
    ASSERT_NE(qrot, dead);
    a->disk(qrot).inject_silent_corruption(
        a->map().locate(5, a->code().q_column()).offset,
        a->map().strip_size(), rng);
    const media m2 = snapshot(*a);
    const scrub_summary sum = scrub_array(*a);
    EXPECT_EQ(sum.repaired_parity, 1u);
    const media m3 = snapshot(*a);
    expect_changes(*a, m2, m3, {{5, qrot}});
    EXPECT_EQ(strip_of(*a, m3, 5, qrot), strip_of(*a, clean, 5, qrot));

    // Rebuild: only the replacement's strips change, each one written.
    a->replace_disk(dead);
    const media m4 = snapshot(*a);
    const std::uint32_t disks[] = {dead};
    EXPECT_TRUE(rebuild_disks(*a, disks).success);
    const media m5 = snapshot(*a);
    std::vector<strip_id> rebuilt;
    for (std::size_t s = 0; s < a->map().stripes(); ++s) {
        rebuilt.emplace_back(s, dead);
    }
    expect_changes(*a, m4, m5, rebuilt);
    EXPECT_EQ(m5.bytes, clean.bytes);
    ASSERT_TRUE(a->read(0, out));
    EXPECT_EQ(out, data);
}

TEST(MediumViews, TornStripeResyncWritesOnlyItsParity) {
    // A small write to stripe 0 loses power after its P patch, and a data
    // column it was not writing then dies. A host read of that column
    // re-syncs the stripe: both parities are re-encoded into scratch and
    // stored, the dead column is recovered from the candidate its checksum
    // vouches for, and no other byte of any medium moves.
    auto a = make_mapped_array(mapped_config(), "torn");
    ASSERT_NE(a, nullptr);
    const auto data = pattern(a->capacity(), 2);
    ASSERT_TRUE(a->write(0, data));
    const std::uint32_t pdisk = a->map().locate(0, a->code().p_column()).disk;
    const std::uint32_t qdisk = a->map().locate(0, a->code().q_column()).disk;
    const std::uint32_t victim = a->map().locate(0, 1).disk;
    const std::size_t strip = a->map().strip_size();
    a->simulate_power_loss_after(1);
    (void)a->write(0, pattern(50, 3));  // column 0: only the P patch lands
    a->reboot();
    a->fail_disk(victim);
    ASSERT_TRUE(a->journal().is_dirty(0));

    const media m0 = snapshot(*a);
    std::vector<std::byte> out(strip);
    // Spent power-loss budget: the re-sync's parity stores are dropped,
    // the stripe stays journaled, and no medium byte moves.
    a->simulate_power_loss_after(0);
    (void)a->read(strip, out);
    expect_changes(*a, m0, snapshot(*a), {});
    ASSERT_TRUE(a->journal().is_dirty(0));
    a->reboot();
    ASSERT_TRUE(a->read(strip, out));  // column 1 of stripe 0
    EXPECT_TRUE(std::equal(out.begin(), out.end(),
                           data.begin() + static_cast<long>(strip)));
    EXPECT_FALSE(a->journal().is_dirty(0));
    const media m1 = snapshot(*a);
    // Q never received its patch, so its re-encoding leaves its bytes as
    // they were; P's patch is undone.
    expect_changes(*a, m0, m1, {{0, pdisk}});
    EXPECT_GT(m1.writes[qdisk], m0.writes[qdisk]);
}

TEST(MediumViews, TailLoadsStayInsideTheMapping) {
    // 48-byte elements leave a partial 64-byte vector tail at the end of
    // every element, and 256 stripes of 5 x 48 bytes make each member's
    // data mapping end exactly on a page boundary: a full-width load over
    // the last element of the last strip would cross the mapping's end.
    array_config c;
    c.k = 4;
    c.p = 5;
    c.element_size = 48;
    c.stripes = 256;
    ASSERT_FALSE(xorops::reads_in_place(c.element_size));
    auto a = make_mapped_array(c, "tail");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->map().disk_capacity() % 4096, 0u);
    const auto data = pattern(a->capacity(), 4);
    ASSERT_TRUE(a->write(0, data));
    const media clean = snapshot(*a);

    // The last stripe loses a column, and a survivor's last strip — the
    // last bytes of its mapping — is rotten: the read decodes both from
    // the other strips and heals the rotten one.
    const std::size_t last = c.stripes - 1;
    const std::uint32_t dead0 = a->map().locate(last, 0).disk;
    const std::uint32_t dead1 = a->map().locate(last, a->code().p_column()).disk;
    const std::uint32_t rotten = a->map().locate(last, 2).disk;
    a->fail_disk(dead0);
    util::xoshiro256 rng(9);
    a->disk(rotten).inject_silent_corruption(
        a->map().disk_capacity() - a->map().strip_size(),
        a->map().strip_size(), rng);

    std::vector<std::byte> out(a->capacity());
    ASSERT_TRUE(a->read(0, out));
    EXPECT_EQ(out, data);
    std::vector<std::byte> tail(1);
    ASSERT_TRUE(a->read(a->capacity() - 1, tail));
    EXPECT_EQ(tail[0], data.back());

    // A second loss, then a rebuild of both members and a scrub: every
    // stripe decodes two erasures from the views of the rest.
    a->fail_disk(dead1);
    ASSERT_TRUE(a->read(0, out));
    EXPECT_EQ(out, data);
    a->replace_disk(dead0);
    a->replace_disk(dead1);
    const std::uint32_t disks[] = {dead0, dead1};
    EXPECT_TRUE(rebuild_disks(*a, disks).success);
    const scrub_summary sum = scrub_array(*a);
    EXPECT_EQ(sum.clean, c.stripes);
    EXPECT_EQ(snapshot(*a).bytes, clean.bytes);
    ASSERT_TRUE(a->read(0, out));
    EXPECT_EQ(out, data);
}

// ---- MediumWrites -----------------------------------------------------

/// Every checksum word the array holds equals the CRC32C of the block on
/// the medium it describes.
void expect_words_match_medium(const raid6_array& a) {
    const std::size_t block = a.integrity_block();
    std::vector<std::byte> bytes(a.map().disk_capacity());
    for (std::uint32_t d = 0; d < a.disk_count(); ++d) {
        a.disk(d).peek(0, bytes);
        std::size_t bad = 0;
        for (std::size_t b = 0; b < bytes.size() / block; ++b) {
            if (a.integrity(d).stored(b) !=
                integrity::crc32c(bytes.data() + b * block, block)) {
                ++bad;
            }
        }
        EXPECT_EQ(bad, 0u) << "disk " << d;
    }
}

// Plain integers only: gtest prints a parameter's bytes into the test's
// listed name, and a pointer field would put an address (different on
// every run) there.
struct medium_case {
    std::size_t k;
    std::size_t element_size;
    std::size_t sector_size;
    std::size_t stripes;
};

std::string case_name(const medium_case& c) {
    return "e" + std::to_string(c.element_size) + "s" +
           std::to_string(c.sector_size);
}

class MediumWrites : public ::testing::TestWithParam<medium_case> {
protected:
    [[nodiscard]] array_config config() const {
        array_config c;
        c.k = GetParam().k;
        c.p = 5;
        c.element_size = GetParam().element_size;
        c.sector_size = GetParam().sector_size;
        c.stripes = GetParam().stripes;
        return c;
    }
};

TEST_P(MediumWrites, InstalledWordsAreTheLandedBytes) {
    auto a = make_mapped_array(config(), "words-" + case_name(GetParam()));
    ASSERT_NE(a, nullptr);
    const auto data = pattern(a->capacity(), 11);
    ASSERT_TRUE(a->write(0, data));  // full-stripe writes
    expect_words_match_medium(*a);
    // Element writes (the small-write path) land with regular stores and
    // also checksum inside their copy.
    const auto patch = pattern(3 * a->map().element_size() + 5, 12);
    ASSERT_TRUE(a->write(a->map().element_size() + 1, patch));
    expect_words_match_medium(*a);

    // Two-disk rebuild: every strip of both replacements is committed by
    // store_columns with the words its verification captured.
    const std::uint32_t dead0 = a->map().locate(0, 0).disk;
    const std::uint32_t dead1 = a->map().locate(0, a->code().q_column()).disk;
    a->fail_disk(dead0);
    a->fail_disk(dead1);
    a->replace_disk(dead0);
    a->replace_disk(dead1);
    const std::uint32_t disks[] = {dead0, dead1};
    ASSERT_TRUE(rebuild_disks(*a, disks).success);
    expect_words_match_medium(*a);

    // Heal: a rotten data strip of the last stripe (the last bytes of its
    // mapping) is rewritten by the read that finds it.
    const std::size_t last = a->map().stripes() - 1;
    const strip_location rot = a->map().locate(last, 1);
    util::xoshiro256 rng(13);
    a->disk(rot.disk).inject_silent_corruption(rot.offset,
                                               a->map().strip_size(), rng);
    auto expected = data;
    std::copy(patch.begin(), patch.end(),
              expected.begin() +
                  static_cast<long>(a->map().element_size() + 1));
    std::vector<std::byte> out(a->capacity());
    ASSERT_TRUE(a->read(0, out));
    EXPECT_EQ(out, expected);
    EXPECT_GE(a->stats().reads_self_healed, 1u);
    expect_words_match_medium(*a);
    EXPECT_EQ(scrub_array(*a).clean, a->map().stripes());
}

TEST_P(MediumWrites, PowerLossRecordsIntendedWordsAndLeavesTheMedium) {
    auto a = make_mapped_array(config(), "lost-" + case_name(GetParam()));
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->write(0, pattern(a->capacity(), 14)));
    const media before = snapshot(*a);

    // The budget is spent before the first disk write, a data column's:
    // every column of the stripe is dropped, each one's words recorded.
    const std::size_t stripe = 1;
    const std::size_t stripe_bytes = a->map().stripe_data_size();
    const auto intended = pattern(stripe_bytes, 15);
    a->simulate_power_loss_after(0);
    (void)a->write(stripe * stripe_bytes, intended);
    EXPECT_EQ(snapshot(*a).bytes, before.bytes);

    const std::size_t block = a->integrity_block();
    const std::size_t strip = a->map().strip_size();
    for (std::uint32_t col = 0; col < a->map().k(); ++col) {
        const strip_location loc = a->map().locate(stripe, col);
        for (std::size_t b = 0; b < strip / block; ++b) {
            EXPECT_EQ(a->integrity(loc.disk).stored(loc.offset / block + b),
                      integrity::crc32c(
                          intended.data() + col * strip + b * block, block))
                << "column " << col << " block " << b;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MediumWrites,
    // 48-byte elements on 512-byte sectors checksum 16-byte blocks, and
    // 256 stripes of 5 x 48 bytes end each mapping on a page boundary.
    ::testing::Values(medium_case{4, 48, 512, 256},
                      medium_case{4, 4096, 512, 8}),
    [](const ::testing::TestParamInfo<medium_case>& info) {
        return case_name(info.param);
    });

}  // namespace
