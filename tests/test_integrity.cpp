#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "liberation/integrity/integrity_region.hpp"
#include "liberation/raid/array.hpp"
#include "liberation/raid/intent_log.hpp"
#include "liberation/raid/rebuild.hpp"
#include "liberation/raid/scrubber.hpp"
#include "liberation/util/rng.hpp"

namespace {

using namespace liberation;
using namespace liberation::raid;

array_config cfg(std::uint32_t k = 4, std::size_t stripes = 8) {
    array_config c;
    c.k = k;
    c.element_size = 256;
    c.stripes = stripes;
    c.sector_size = 256;
    return c;
}

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
    std::vector<std::byte> v(n);
    util::xoshiro256 rng(seed);
    rng.fill(v);
    return v;
}

void corrupt(raid6_array& a, std::size_t stripe, std::uint32_t col,
             std::uint64_t seed, std::size_t len = 32) {
    util::xoshiro256 rng(seed);
    const auto loc = a.map().locate(stripe, col);
    a.disk(loc.disk).inject_silent_corruption(loc.offset, len, rng);
}

TEST(IntegrityRegion, RecordVerifyRoundTrip) {
    integrity::integrity_region region(4096, 256);
    EXPECT_EQ(region.blocks(), 16u);
    const auto bytes = pattern(512, 1);

    // Freshly-constructed regions describe an all-zero device.
    const std::vector<std::byte> zeros(512, std::byte{0});
    EXPECT_TRUE(region.verify(0, zeros));
    EXPECT_FALSE(region.verify(0, bytes));

    region.record(256, std::span<const std::byte>(bytes).subspan(0, 256));
    EXPECT_TRUE(
        region.verify(256, std::span<const std::byte>(bytes).subspan(0, 256)));
    // Neighbouring blocks are untouched.
    EXPECT_TRUE(
        region.verify(0, std::span<const std::byte>(zeros).subspan(0, 256)));

    region.corrupt_block(1, 0xdeadbeef);
    EXPECT_FALSE(
        region.verify(256, std::span<const std::byte>(bytes).subspan(0, 256)));
}

TEST(VerifiedRead, HealsSilentCorruption) {
    raid6_array a(cfg());
    const auto data = pattern(a.capacity(), 2);
    ASSERT_TRUE(a.write(0, data));

    corrupt(a, 1, 2, 3);

    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);  // the rot never reached the host

    const array_stats stats = a.stats();
    EXPECT_GE(stats.checksum_mismatches, 1u);
    EXPECT_GE(stats.reads_self_healed, 1u);
    EXPECT_EQ(stats.reads_unrecoverable, 0u);

    // Read-repair wrote the fix back: a second pass is mismatch-free.
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
    EXPECT_EQ(a.stats().checksum_mismatches, stats.checksum_mismatches);
    EXPECT_EQ(scrub_array(a).clean, a.map().stripes());
}

TEST(VerifiedRead, SmallReadThroughCorruptElementHeals) {
    raid6_array a(cfg());
    const auto data = pattern(a.capacity(), 4);
    ASSERT_TRUE(a.write(0, data));

    // Corrupt exactly the element a small read will land on.
    corrupt(a, 0, 0, 5, 16);
    std::vector<std::byte> out(64);
    ASSERT_TRUE(a.read(32, out));
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin() + 32));
    EXPECT_GE(a.stats().reads_self_healed, 1u);
}

TEST(VerifiedRead, TwoCorruptColumnsStillHeal) {
    // Two rotten columns of one stripe are within the two-erasure budget
    // once the checksums pinpoint them.
    raid6_array a(cfg());
    const auto data = pattern(a.capacity(), 6);
    ASSERT_TRUE(a.write(0, data));
    corrupt(a, 2, 0, 7);
    corrupt(a, 2, 3, 8);

    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
    EXPECT_GE(a.stats().reads_self_healed, 1u);
    EXPECT_EQ(a.stats().reads_unrecoverable, 0u);
}

TEST(VerifiedRead, ThreeCorruptColumnsFailLoudlyNotSilently) {
    // Beyond the decode budget the read must refuse — returning the rotten
    // bytes "successfully" is the one forbidden outcome.
    raid6_array a(cfg());
    ASSERT_TRUE(a.write(0, pattern(a.capacity(), 9)));
    corrupt(a, 0, 0, 10);
    corrupt(a, 0, 1, 11);
    corrupt(a, 0, 2, 12);

    std::vector<std::byte> out(a.capacity());
    EXPECT_FALSE(a.read(0, out));
    EXPECT_GE(a.stats().reads_unrecoverable, 1u);
}

TEST(VerifiedRead, StaleChecksumMetadataIsRepairedNotTrusted) {
    // Flip a stored CRC instead of the data. The decode matches the raw
    // bytes and both parities corroborate them, so the *metadata* is the
    // damaged side: refresh it, count it, and leave the data alone.
    raid6_array a(cfg());
    const auto data = pattern(a.capacity(), 13);
    ASSERT_TRUE(a.write(0, data));

    const auto loc = a.map().locate(1, 1);
    const std::size_t block = loc.offset / a.integrity_block();
    a.integrity(loc.disk).corrupt_block(block, 0x5a5a5a5a);

    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
    EXPECT_GE(a.stats().checksum_metadata_repaired, 1u);
    EXPECT_EQ(a.stats().reads_unrecoverable, 0u);

    // The refreshed CRC verifies again: next read is mismatch-free.
    const auto mismatches = a.stats().checksum_mismatches;
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(a.stats().checksum_mismatches, mismatches);
}

TEST(VerifiedRead, TwoErasuresPlusRotRefusesAndKeepsTheWords) {
    // Two failed disks use up both parities, so a decode of them from
    // everything else is consistent by construction, rotten strip
    // included. The metadata-repair cross-check means nothing there: the
    // read must refuse, and neither it nor a scrub may re-install the
    // rotten strip's checksum words over the true ones.
    array_config c;
    c.k = 4;
    c.p = 5;
    c.element_size = 4096;
    c.sector_size = 4096;
    c.stripes = 8;
    raid6_array a(c);
    const auto data = pattern(a.capacity(), 16);
    ASSERT_TRUE(a.write(0, data));

    constexpr std::size_t stripe = 7;
    const std::uint32_t rotten_col = 1;
    a.disk(a.map().locate(stripe, 0).disk).fail();
    a.disk(a.map().locate(stripe, 2).disk).fail();
    corrupt(a, stripe, rotten_col, 17);

    const auto loc = a.map().locate(stripe, rotten_col);
    const std::size_t blocks = a.map().strip_size() / a.integrity_block();
    const std::size_t first = loc.offset / a.integrity_block();
    std::vector<std::uint32_t> words;
    for (std::size_t b = 0; b < blocks; ++b)
        words.push_back(a.integrity(loc.disk).stored(first + b));

    const std::size_t stripe_bytes = a.map().stripe_data_size();
    std::vector<std::byte> out(stripe_bytes);
    const auto repaired = a.stats().checksum_metadata_repaired;
    EXPECT_FALSE(a.read(stripe * stripe_bytes, out));
    EXPECT_EQ(a.stats().checksum_metadata_repaired, repaired);

    const scrub_summary sum = scrub_array(a);
    EXPECT_EQ(sum.repaired_metadata, 0u);
    EXPECT_EQ(a.stats().checksum_metadata_repaired, repaired);
    for (std::size_t b = 0; b < blocks; ++b)
        EXPECT_EQ(a.integrity(loc.disk).stored(first + b), words[b])
            << "block " << b;
}

TEST(Rebuild, VerifiesReconstructionsAgainstCorruptSurvivor) {
    // Silent corruption on a survivor during rebuild: without checksums
    // the reconstruction would splice the rot into the replacement disk.
    // The verified rebuild pinpoints the rotten survivor, decodes around
    // it, and commits only checksum-clean strips.
    raid6_array a(cfg());
    const auto data = pattern(a.capacity(), 14);
    ASSERT_TRUE(a.write(0, data));

    corrupt(a, 2, a.map().column_of_disk(2, 1), 15);
    const auto result = fail_replace_rebuild(a, 0);
    EXPECT_TRUE(result.success);

    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
    EXPECT_EQ(scrub_array(a).uncorrectable, 0u);
}

TEST(IntentLog, CapacityHighWaterAndRejection) {
    intent_log log(2);
    EXPECT_EQ(log.capacity(), 2u);
    EXPECT_TRUE(log.mark(0));
    EXPECT_TRUE(log.mark(5, 0b1010));
    EXPECT_EQ(log.size(), 2u);
    EXPECT_EQ(log.high_water(), 2u);

    // Full: a third stripe is refused; re-marking a present stripe is not.
    EXPECT_FALSE(log.mark(7));
    EXPECT_EQ(log.rejected(), 1u);
    EXPECT_TRUE(log.mark(5, 0b0100));
    EXPECT_EQ(log.columns(5), 0b1110u);

    log.clear(0);
    EXPECT_TRUE(log.mark(7));
    EXPECT_EQ(log.high_water(), 2u);  // never exceeded capacity
}

TEST(IntentLog, ArrayLogFullFailsWriteLoudly) {
    auto c = cfg();
    c.intent_log_entries = 1;
    raid6_array a(c);
    const auto data = pattern(a.capacity(), 16);
    ASSERT_TRUE(a.write(0, data));

    // Tear stripe 0 so its journal entry stays armed across the reboot.
    a.simulate_power_loss_after(1);
    (void)a.write(100, pattern(50, 17));
    a.reboot();
    ASSERT_EQ(a.journal().size(), 1u);

    // The single NVRAM slot is occupied: a write to a different stripe
    // must fail loudly rather than proceed unjournaled.
    const std::size_t other = a.map().stripe_data_size() * 2;
    EXPECT_FALSE(a.write(other, pattern(50, 18)));
    EXPECT_GE(a.stats().writes_rejected_log_full, 1u);

    // Recovery drains the log; the same write then succeeds.
    EXPECT_EQ(a.recover_write_hole(), 1u);
    EXPECT_EQ(a.journal().size(), 0u);
    EXPECT_TRUE(a.write(other, pattern(50, 18)));
}

TEST(Integrity, CrashPlusCorruptionOnSameStripe) {
    // The compound failure: power dies mid-small-write (stripe torn) AND
    // bit-rot lands on a *different* column of the same stripe while the
    // host is down. Replay must re-sync the tear using raw bytes for the
    // journaled columns only, heal the rotten untargeted column from the
    // candidate decode, and never serve a byte that fails its checksum.
    raid6_array a(cfg());
    const auto image = pattern(a.capacity(), 19);
    ASSERT_TRUE(a.write(0, image));

    a.simulate_power_loss_after(1);
    const auto fresh = pattern(50, 20);
    (void)a.write(100, fresh);  // targets data column 0 (+ P and Q)
    EXPECT_FALSE(a.powered());

    // Rot on untargeted data column 2 of the torn stripe, while unpowered.
    ASSERT_EQ(a.journal().columns(0) & (std::uint64_t{1} << 2), 0u);
    corrupt(a, 0, 2, 21);

    a.reboot();
    ASSERT_TRUE(a.journal().is_dirty(0));
    EXPECT_GE(a.recover_write_hole(), 1u);
    EXPECT_EQ(a.journal().size(), 0u);

    // Old-or-new at the torn extent, the original image everywhere else —
    // in particular the rotten column came back byte-exact.
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    const bool extent_old = std::equal(out.begin() + 100, out.begin() + 150,
                                       image.begin() + 100);
    const bool extent_new =
        std::equal(out.begin() + 100, out.begin() + 150, fresh.begin());
    EXPECT_TRUE(extent_old || extent_new);
    EXPECT_TRUE(std::equal(out.begin(), out.begin() + 100, image.begin()));
    EXPECT_TRUE(std::equal(out.begin() + 150, out.end(), image.begin() + 150));

    const auto scrub = scrub_array(a);
    EXPECT_EQ(scrub.uncorrectable, 0u);
    EXPECT_EQ(a.stats().reads_unrecoverable, 0u);
}

}  // namespace
