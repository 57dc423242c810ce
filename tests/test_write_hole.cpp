#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "liberation/raid/array.hpp"
#include "liberation/raid/rebuild.hpp"
#include "liberation/raid/scrubber.hpp"
#include "liberation/util/rng.hpp"

namespace {

using namespace liberation;
using namespace liberation::raid;

array_config cfg() {
    array_config c;
    c.k = 4;
    c.element_size = 256;
    c.stripes = 8;
    c.sector_size = 256;
    return c;
}

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
    std::vector<std::byte> v(n);
    util::xoshiro256 rng(seed);
    rng.fill(v);
    return v;
}

/// Count stripes whose parity does not match their data.
std::size_t torn_stripes(raid6_array& a) {
    codes::stripe_buffer buf = a.make_stripe_buffer();
    std::vector<std::uint32_t> erased;
    std::size_t torn = 0;
    for (std::size_t s = 0; s < a.map().stripes(); ++s) {
        EXPECT_TRUE(a.load_stripe(s, buf.view(), erased));
        EXPECT_TRUE(erased.empty());
        if (!a.code().verify(buf.view())) ++torn;
    }
    return torn;
}

TEST(WriteHole, CleanShutdownLeavesEmptyJournal) {
    raid6_array a(cfg());
    ASSERT_TRUE(a.write(0, pattern(a.capacity(), 1)));
    ASSERT_TRUE(a.write(777, pattern(5000, 2)));
    EXPECT_EQ(a.journal().size(), 0u);
    EXPECT_EQ(torn_stripes(a), 0u);
}

TEST(WriteHole, PowerLossMidStripeTearsParityAndJournalKnows) {
    raid6_array a(cfg());
    ASSERT_TRUE(a.write(0, pattern(a.capacity(), 3)));

    // Allow exactly 2 of the 6 strip writes of the next full-stripe write.
    a.simulate_power_loss_after(2);
    const auto fresh = pattern(a.map().stripe_data_size(), 4);
    (void)a.write(0, fresh);  // the "host" believes it succeeded
    EXPECT_FALSE(a.powered());

    a.reboot();
    EXPECT_GE(a.journal().size(), 1u);
    EXPECT_TRUE(a.journal().is_dirty(0));
    EXPECT_GE(torn_stripes(a), 1u);  // the write hole is real
}

// Power-loss sweep over one full-stripe write at every cut point, for a
// window of one stripe and a window of eight. The stripe sits where
// parity is rotated, so the window of eight (which drains in disk order)
// and the window of one (column order) cut at different columns.
// Whatever landed, recovery must leave an empty journal, every data strip
// entirely old or entirely new, and a clean scrub.
TEST(WriteHole, FullStripePowerLossSweepRecoversEveryCut) {
    for (const std::size_t qd : {std::size_t{1}, std::size_t{8}}) {
        array_config c = cfg();
        c.io_queue_depth = qd;
        raid6_array probe(c);
        const stripe_map& map = probe.map();
        const std::uint32_t pc = probe.code().p_column();
        std::size_t stripe = 0;
        while (map.locate(stripe, pc).disk == pc) ++stripe;
        ASSERT_LT(stripe, map.stripes());

        const std::size_t sds = map.stripe_data_size();
        const std::size_t strip = map.strip_size();
        const auto old_bytes = pattern(probe.capacity(), 40);
        const auto fresh = pattern(sds, 41);
        for (std::uint64_t j = 0; j <= map.n(); ++j) {
            SCOPED_TRACE(testing::Message() << "qd=" << qd << " cut=" << j);
            raid6_array a(c);
            ASSERT_TRUE(a.write(0, old_bytes));
            a.simulate_power_loss_after(j);
            (void)a.write(stripe * sds, fresh);
            a.reboot();
            a.recover_write_hole();
            EXPECT_EQ(a.journal().size(), 0u);

            std::vector<std::byte> out(sds);
            ASSERT_TRUE(a.read(stripe * sds, out));
            std::size_t fresh_strips = 0;
            for (std::uint32_t col = 0; col < map.k(); ++col) {
                const auto got = out.begin() + col * strip;
                const bool is_old = std::equal(
                    got, got + strip, old_bytes.begin() + stripe * sds +
                                          col * strip);
                const bool is_new =
                    std::equal(got, got + strip, fresh.begin() + col * strip);
                EXPECT_TRUE(is_old || is_new) << "col=" << col;
                if (is_new) ++fresh_strips;
            }
            if (j == 0) EXPECT_EQ(fresh_strips, 0u);
            if (j == map.n()) EXPECT_EQ(fresh_strips, map.k());

            const scrub_summary sc = scrub_array(a);
            EXPECT_EQ(sc.clean, map.stripes());
            EXPECT_EQ(sc.uncorrectable, 0u);
            EXPECT_EQ(sc.checksum_mismatch_columns, 0u);
        }
    }
}

TEST(WriteHole, RecoveryResyncsExactlyTheJournaledStripes) {
    raid6_array a(cfg());
    ASSERT_TRUE(a.write(0, pattern(a.capacity(), 5)));

    a.simulate_power_loss_after(3);
    (void)a.write(a.map().stripe_data_size() * 2, pattern(2000, 6));
    a.reboot();
    ASSERT_GE(a.journal().size(), 1u);

    const std::size_t resynced = a.recover_write_hole();
    EXPECT_GE(resynced, 1u);
    EXPECT_EQ(a.journal().size(), 0u);
    EXPECT_EQ(torn_stripes(a), 0u);

    // After resync the array tolerates double failures again on every
    // stripe (the hazard the write hole creates is exactly that it
    // doesn't).
    a.fail_disk(0);
    a.fail_disk(3);
    std::vector<std::byte> out(a.capacity());
    EXPECT_TRUE(a.read(0, out));
}

TEST(WriteHole, SmallWritePowerLossAlsoJournaled) {
    raid6_array a(cfg());
    ASSERT_TRUE(a.write(0, pattern(a.capacity(), 7)));

    // A small write does parity RMW then the data write: cutting after 1
    // disk write leaves parity updated but data stale -> torn.
    a.simulate_power_loss_after(1);
    (void)a.write(100, pattern(50, 8));
    a.reboot();
    EXPECT_TRUE(a.journal().is_dirty(0));
    EXPECT_EQ(torn_stripes(a), 1u);
    EXPECT_EQ(a.recover_write_hole(), 1u);
    EXPECT_EQ(torn_stripes(a), 0u);
}

TEST(WriteHole, RecoverySkipsStripesWithUnreadableColumns) {
    // A journaled stripe that ALSO has an unreadable column cannot be
    // re-synced yet: parity must be recomputed from a full set of data
    // columns. recover_write_hole() leaves it journaled (the hazard is
    // still live) and picks it up once the column heals.
    raid6_array a(cfg());
    ASSERT_TRUE(a.write(0, pattern(a.capacity(), 11)));

    a.simulate_power_loss_after(1);
    (void)a.write(100, pattern(50, 12));  // tears stripe 0
    a.reboot();
    ASSERT_TRUE(a.journal().is_dirty(0));

    // Stripe 0's P strip also becomes unreadable (latent error).
    const auto loc = a.map().locate(0, a.code().p_column());
    a.disk(loc.disk).inject_latent_error(loc.offset, 16);

    EXPECT_EQ(a.recover_write_hole(), 0u);
    EXPECT_TRUE(a.journal().is_dirty(0));  // still armed, not forgotten

    // The sector heals (drive remap / rewrite); recovery now completes.
    a.disk(loc.disk).clear_latent_errors();
    EXPECT_EQ(a.recover_write_hole(), 1u);
    EXPECT_EQ(a.journal().size(), 0u);
    EXPECT_EQ(torn_stripes(a), 0u);
}

/// A disk holding a data column of stripe 0 (not its P or Q strip), plus a
/// different, still-online data column of the same stripe to write to.
struct bail_setup {
    std::uint32_t pdisk, qdisk, victim;
    std::size_t addr;  ///< linear address inside the online data column
};

bail_setup pick_bail_setup(const raid6_array& a) {
    bail_setup s{};
    s.pdisk = a.map().locate(0, a.code().p_column()).disk;
    s.qdisk = a.map().locate(0, a.code().q_column()).disk;
    while (s.victim == s.pdisk || s.victim == s.qdisk) ++s.victim;
    std::uint32_t wcol = 0;
    while (wcol == a.map().column_of_disk(0, s.victim)) ++wcol;
    s.addr = static_cast<std::size_t>(wcol) * a.map().strip_size();
    return s;
}

TEST(WriteHole, MidApplyBailWithErasedDataColumnDoesNotCorrupt) {
    // A small write validates, starts patching parity, and then the Q
    // patch dies even after retries — while an unrelated data column is
    // erased (failed disk, no spares). The landed P patch must be rolled
    // back before the reconstruct-write fallback decodes the dead column;
    // decoding it from the half-patched parity would splice garbage into
    // the stripe and bake it into both parities.
    raid6_array a(cfg());
    auto data = pattern(a.capacity(), 13);
    ASSERT_TRUE(a.write(0, data));

    const bail_setup s = pick_bail_setup(a);
    a.fail_disk(s.victim);
    for (std::uint64_t i = 0; i < 4; ++i)  // all 1 + 3 retry attempts
        a.disk(s.qdisk).schedule_transient_fault(io_kind::write, i);

    const auto small = pattern(50, 14);
    ASSERT_TRUE(a.write(s.addr, small));
    std::copy(small.begin(), small.end(),
              data.begin() + static_cast<long>(s.addr));
    EXPECT_EQ(a.journal().size(), 0u);  // the fallback completed the write

    // Every byte — including the degraded-decoded dead column — must
    // still agree with the host's view.
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
}

TEST(WriteHole, UntrustedParityAfterFailedRollbackFailsLoudly) {
    // Same mid-apply bail, but the rollback of the landed P patch dies
    // too: the stripe is genuinely torn with a data column missing. The
    // write must fail and leave the stripe journaled — silently decoding
    // the dead column from the torn parity would be the write hole the
    // journal exists to close.
    raid6_array a(cfg());
    ASSERT_TRUE(a.write(0, pattern(a.capacity(), 15)));

    const bail_setup s = pick_bail_setup(a);
    a.fail_disk(s.victim);
    for (std::uint64_t i = 0; i < 4; ++i)
        a.disk(s.qdisk).schedule_transient_fault(io_kind::write, i);
    for (std::uint64_t i = 1; i < 5; ++i)  // write 0 is the P patch itself
        a.disk(s.pdisk).schedule_transient_fault(io_kind::write, i);

    EXPECT_FALSE(a.write(s.addr, pattern(50, 16)));
    EXPECT_TRUE(a.journal().is_dirty(0));  // hazard recorded, not dropped

    // Downstream the failure stays loud: rebuilding the dead disk refuses
    // to reconstruct the torn stripe from the untrusted parity and reports
    // it failed, instead of writing garbage to the replacement.
    a.disk(s.pdisk).clear_transient_faults();
    a.disk(s.qdisk).clear_transient_faults();
    a.replace_disk(s.victim);
    const std::uint32_t disks[] = {s.victim};
    const rebuild_result r = rebuild_disks(a, disks);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.stripes_failed, 1u);
    EXPECT_EQ(r.first_failed_stripe, 0u);
    EXPECT_EQ(r.stripes_rebuilt, a.map().stripes() - 1);
}

// Stripe 0 torn by a 50 B small write while (or before) a data column of
// it sits on a failed disk, in either of the two ways a small write tears:
// power lost after the first parity patch, or a rollback of that patch
// that failed. Returns the dead data column's disk.
enum class tear_kind { power_loss, failed_rollback };

std::uint32_t tear_stripe0_with_dead_column(raid6_array& a, tear_kind kind) {
    const bail_setup s = pick_bail_setup(a);
    if (kind == tear_kind::power_loss) {
        a.simulate_power_loss_after(1);
        (void)a.write(s.addr, pattern(50, 18));
        a.reboot();
        a.fail_disk(s.victim);
    } else {
        a.fail_disk(s.victim);
        for (std::uint64_t i = 0; i < 4; ++i)
            a.disk(s.qdisk).schedule_transient_fault(io_kind::write, i);
        for (std::uint64_t i = 1; i < 5; ++i)
            a.disk(s.pdisk).schedule_transient_fault(io_kind::write, i);
        EXPECT_FALSE(a.write(s.addr, pattern(50, 18)));
        a.disk(s.pdisk).clear_transient_faults();
        a.disk(s.qdisk).clear_transient_faults();
    }
    return s.victim;
}

TEST(WriteHole, DegradedReadOfTornStripeNeverReturnsWrongBytes) {
    // Reading the dead column means reconstructing it, and the parity of
    // row 0 is torn: the read may refuse, but it must never serve bytes
    // decoded from that parity. Both the element path (a 50 B read) and
    // the full-stripe path (a whole-strip read) are covered.
    for (const tear_kind kind : {tear_kind::power_loss,
                                 tear_kind::failed_rollback}) {
        for (const bool whole_strip : {false, true}) {
            raid6_array a(cfg());
            const auto data = pattern(a.capacity(), 17);
            ASSERT_TRUE(a.write(0, data));
            const std::uint32_t dead = tear_stripe0_with_dead_column(a, kind);
            ASSERT_TRUE(a.journal().is_dirty(0));

            const std::size_t strip = a.map().strip_size();
            const std::size_t addr = a.map().column_of_disk(0, dead) * strip;
            std::vector<std::byte> out(whole_strip ? strip : 50);
            SCOPED_TRACE(testing::Message()
                         << "rollback=" << (kind == tear_kind::failed_rollback)
                         << " len=" << out.size());
            if (a.read(addr, out)) {
                EXPECT_TRUE(std::equal(out.begin(), out.end(),
                                       data.begin() + static_cast<long>(addr)));
            }
        }
    }
}

TEST(WriteHole, DegradedReadRecoversTornStripesUntargetedDeadColumn) {
    // The dead column is one the torn small write was not writing, so its
    // stored checksum still vouches for its bytes: the read re-syncs the
    // stripe, recovering the column from the parity subset that checksum
    // accepts, and serves the written bytes. The entry is retired, so a
    // rebuild of the dead disk then restores the whole array.
    for (const tear_kind kind : {tear_kind::power_loss,
                                 tear_kind::failed_rollback}) {
        for (const bool whole_strip : {false, true}) {
            raid6_array a(cfg());
            const auto data = pattern(a.capacity(), 17);
            ASSERT_TRUE(a.write(0, data));
            const std::uint32_t dead = tear_stripe0_with_dead_column(a, kind);
            ASSERT_TRUE(a.journal().is_dirty(0));

            const std::size_t strip = a.map().strip_size();
            const std::size_t addr = a.map().column_of_disk(0, dead) * strip;
            std::vector<std::byte> out(whole_strip ? strip : 50);
            SCOPED_TRACE(testing::Message()
                         << "rollback=" << (kind == tear_kind::failed_rollback)
                         << " len=" << out.size());
            ASSERT_TRUE(a.read(addr, out));
            EXPECT_TRUE(std::equal(out.begin(), out.end(),
                                   data.begin() + static_cast<long>(addr)));
            EXPECT_FALSE(a.journal().is_dirty(0));

            a.replace_disk(dead);
            const std::uint32_t disks[] = {dead};
            EXPECT_TRUE(rebuild_disks(a, disks).success);
            EXPECT_EQ(a.journal().size(), 0u);
            EXPECT_EQ(torn_stripes(a), 0u);
            std::vector<std::byte> all(a.capacity());
            ASSERT_TRUE(a.read(0, all));
            EXPECT_EQ(all, data);
        }
    }
}

TEST(WriteHole, RebuildOfTornStripesParityColumnResyncsIt) {
    // Rebuilding a torn stripe's P column needs no parity at all: the
    // data columns are all readable, so the rebuild re-syncs the stripe
    // (both parities re-encoded from data) and retires its journal entry.
    raid6_array a(cfg());
    const auto data = pattern(a.capacity(), 19);
    ASSERT_TRUE(a.write(0, data));
    a.simulate_power_loss_after(1);
    (void)a.write(100, pattern(50, 20));  // only the P patch lands
    a.reboot();
    ASSERT_TRUE(a.journal().is_dirty(0));

    const std::uint32_t pdisk = a.map().locate(0, a.code().p_column()).disk;
    const rebuild_result r = fail_replace_rebuild(a, pdisk);
    EXPECT_TRUE(r.success);
    EXPECT_FALSE(a.journal().is_dirty(0));
    EXPECT_EQ(torn_stripes(a), 0u);
    // The data write never landed, so the old bytes are the stripe's.
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
    EXPECT_EQ(scrub_array(a).clean, a.map().stripes());
}

TEST(WriteHole, ScrubWouldMisattributeTornStripe) {
    // Motivating contrast: without the journal, a torn small write looks
    // like silent corruption of whichever column happened to be updated —
    // the scrubber "fixes" it by restoring the OLD data, losing the write.
    // recover_write_hole instead re-syncs parity to the new data.
    raid6_array with_journal(cfg());
    ASSERT_TRUE(with_journal.write(0, pattern(with_journal.capacity(), 9)));
    // Let the parity RMW (2-3 writes) complete and cut before the data
    // element write: P/Q describe the new data, the data is old.
    with_journal.simulate_power_loss_after(2);
    (void)with_journal.write(0, pattern(256, 10));
    with_journal.reboot();
    ASSERT_EQ(torn_stripes(with_journal), 1u);
    with_journal.recover_write_hole();
    EXPECT_EQ(torn_stripes(with_journal), 0u);
    const auto scrubbed = scrub_array(with_journal);
    EXPECT_EQ(scrubbed.uncorrectable, 0u);
    EXPECT_EQ(scrubbed.clean, with_journal.map().stripes());
}

}  // namespace
