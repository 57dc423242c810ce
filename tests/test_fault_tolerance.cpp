// Fault-tolerance layer: transient fault injection on vdisks, the retrying
// io_policy (bounded retries, exponential backoff on a virtual clock), the
// per-disk health monitor, hot-spare promotion with incremental background
// rebuild, and per-stripe failure reporting from the rebuild engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "liberation/raid/array.hpp"
#include "liberation/raid/health.hpp"
#include "liberation/raid/io_policy.hpp"
#include "liberation/raid/rebuild.hpp"
#include "liberation/raid/scrubber.hpp"
#include "liberation/raid/vdisk.hpp"
#include "liberation/util/rng.hpp"

namespace {

using namespace liberation;
using namespace liberation::raid;

std::vector<std::byte> pattern_bytes(std::size_t n, std::uint64_t seed) {
    std::vector<std::byte> v(n);
    util::xoshiro256 rng(seed);
    rng.fill(v);
    return v;
}

// ---- vdisk transient fault injection ---------------------------------

TEST(VdiskTransient, ScheduledFaultFiresExactlyOnce) {
    vdisk d(0, 4096, 512);
    std::vector<std::byte> buf(512);

    d.schedule_transient_fault(io_kind::read, 1);  // the read after next
    EXPECT_EQ(d.read(0, buf), io_status::ok);
    EXPECT_EQ(d.read(0, buf), io_status::transient_error);
    EXPECT_EQ(d.read(0, buf), io_status::ok);  // fires once, not sticky
    EXPECT_EQ(d.stats().transient_read_errors, 1u);
    EXPECT_EQ(d.stats().transient_write_errors, 0u);
}

TEST(VdiskTransient, ScheduledWriteFaultLeavesMediumUntouched) {
    vdisk d(0, 4096, 512);
    const auto data = pattern_bytes(512, 1);
    ASSERT_EQ(d.write(0, data), io_status::ok);

    d.schedule_transient_fault(io_kind::write, 0);  // the very next write
    EXPECT_EQ(d.write(0, pattern_bytes(512, 2)), io_status::transient_error);

    // The failed write must not have partially landed.
    std::vector<std::byte> back(512);
    ASSERT_EQ(d.read(0, back), io_status::ok);
    EXPECT_EQ(back, data);
}

TEST(VdiskTransient, ProbabilisticFaultsReplayFromSeed) {
    const auto run = [](std::uint64_t seed) {
        vdisk d(0, 4096, 512);
        d.set_transient_fault_rates(0.5, 0.5, seed);
        std::vector<std::byte> buf(64);
        std::vector<io_status> outcomes;
        for (int i = 0; i < 64; ++i) outcomes.push_back(d.read(0, buf));
        for (int i = 0; i < 64; ++i) outcomes.push_back(d.write(0, buf));
        return outcomes;
    };
    EXPECT_EQ(run(99), run(99));     // same seed, same campaign
    EXPECT_NE(run(99), run(100));    // different seed, different faults
}

TEST(VdiskTransient, ClearAndReplaceDisarm) {
    vdisk d(0, 4096, 512);
    std::vector<std::byte> buf(64);
    d.set_transient_fault_rates(1.0, 1.0, 5);
    EXPECT_EQ(d.read(0, buf), io_status::transient_error);
    d.clear_transient_faults();
    EXPECT_EQ(d.read(0, buf), io_status::ok);

    d.set_transient_fault_rates(1.0, 1.0, 5);
    d.replace();  // new hardware: fault config belongs to the old disk
    EXPECT_EQ(d.read(0, buf), io_status::ok);
}

// ---- io_policy -------------------------------------------------------

TEST(IoPolicy, MasksSingleTransientAndBacksOff) {
    virtual_clock clock;
    io_policy policy({.max_retries = 3, .initial_backoff_us = 100,
                      .max_backoff_us = 10'000},
                     clock);
    vdisk d(0, 4096, 512);
    d.schedule_transient_fault(io_kind::read, 0);

    std::vector<std::byte> buf(64);
    const io_result r = policy.read(d, 0, buf);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.transient_seen, 1u);
    EXPECT_EQ(clock.now_us(), 100u);  // one backoff before the retry

    const auto st = policy.stats();
    EXPECT_EQ(st.retries, 1u);
    EXPECT_EQ(st.transient_masked, 1u);
    EXPECT_EQ(st.retries_exhausted, 0u);
}

TEST(IoPolicy, ExhaustsBudgetWithExponentialBackoff) {
    virtual_clock clock;
    io_policy policy({.max_retries = 3, .initial_backoff_us = 100,
                      .max_backoff_us = 10'000},
                     clock);
    vdisk d(0, 4096, 512);
    for (std::uint64_t i = 0; i < 4; ++i)
        d.schedule_transient_fault(io_kind::read, i);  // all 4 attempts fail

    std::vector<std::byte> buf(64);
    const io_result r = policy.read(d, 0, buf);
    EXPECT_EQ(r.status, io_status::transient_error);
    EXPECT_EQ(r.transient_seen, 4u);
    EXPECT_EQ(clock.now_us(), 100u + 200u + 400u);  // doubling backoff
    EXPECT_EQ(policy.stats().retries_exhausted, 1u);
    EXPECT_EQ(policy.stats().retries, 3u);

    // The medium is fine: the next policy read succeeds.
    EXPECT_TRUE(policy.read(d, 0, buf).ok());
}

TEST(IoPolicy, BackoffSaturatesAtCap) {
    virtual_clock clock;
    io_policy policy({.max_retries = 5, .initial_backoff_us = 100,
                      .max_backoff_us = 400},
                     clock);
    vdisk d(0, 4096, 512);
    for (std::uint64_t i = 0; i < 6; ++i)
        d.schedule_transient_fault(io_kind::write, i);
    const io_result r = policy.write(d, 0, pattern_bytes(64, 3));
    EXPECT_EQ(r.status, io_status::transient_error);
    // 100, 200, 400, 400, 400 — capped, not 800/1600.
    EXPECT_EQ(clock.now_us(), 1500u);
}

TEST(IoPolicy, PermanentErrorsAreNotRetried) {
    virtual_clock clock;
    io_policy policy({}, clock);
    vdisk d(0, 4096, 512);
    d.fail();
    std::vector<std::byte> buf(64);
    EXPECT_EQ(policy.read(d, 0, buf).status, io_status::disk_failed);
    EXPECT_EQ(policy.stats().retries, 0u);
    EXPECT_EQ(clock.now_us(), 0u);  // no pointless backoff on fail-stop
}

// ---- health monitor --------------------------------------------------

TEST(Health, TripsOnceAtWriteThreshold) {
    health_monitor mon(3, {.max_write_errors = 1});
    EXPECT_EQ(mon.state(1), disk_health::healthy);
    // First hard write error trips — and reports the transition once.
    EXPECT_TRUE(mon.record(1, io_kind::write, io_status::transient_error, 4));
    EXPECT_EQ(mon.state(1), disk_health::tripped);
    EXPECT_FALSE(mon.record(1, io_kind::write, io_status::transient_error, 4));
    EXPECT_EQ(mon.state(0), disk_health::healthy);  // others untouched
}

TEST(Health, ReadThresholdWithSuspectWindow) {
    health_monitor mon(2, {.max_read_errors = 4});
    for (int i = 0; i < 2; ++i)
        EXPECT_FALSE(
            mon.record(0, io_kind::read, io_status::unreadable_sector, 0));
    EXPECT_EQ(mon.state(0), disk_health::suspect);  // half the threshold
    EXPECT_FALSE(mon.record(0, io_kind::read, io_status::unreadable_sector, 0));
    EXPECT_TRUE(mon.record(0, io_kind::read, io_status::unreadable_sector, 0));
    EXPECT_EQ(mon.state(0), disk_health::tripped);
    EXPECT_EQ(mon.stats(0).hard_read_errors, 4u);
}

TEST(Health, MaskedTransientsCountWhenEnabled) {
    health_monitor mon(1, {.max_transient_errors = 8});
    // Six successful ops that each needed one retry, then one that needed
    // two: 8 transient errors total -> too flaky, trip.
    for (int i = 0; i < 6; ++i)
        EXPECT_FALSE(mon.record(0, io_kind::read, io_status::ok, 1));
    EXPECT_TRUE(mon.record(0, io_kind::read, io_status::ok, 2));
    EXPECT_EQ(mon.stats(0).transient_errors, 8u);
}

TEST(Health, WriteErrorsAloneMarkDiskSuspect) {
    // Writes are a trip criterion, so a disk accumulating hard write
    // errors must enter the suspect window too — not only read-side ones.
    health_monitor mon(1, {.max_write_errors = 4});
    EXPECT_FALSE(mon.record(0, io_kind::write, io_status::transient_error, 0));
    EXPECT_FALSE(mon.record(0, io_kind::write, io_status::transient_error, 0));
    EXPECT_EQ(mon.state(0), disk_health::suspect);  // half the threshold
    EXPECT_FALSE(mon.record(0, io_kind::write, io_status::transient_error, 0));
    EXPECT_TRUE(mon.record(0, io_kind::write, io_status::transient_error, 0));
    EXPECT_EQ(mon.state(0), disk_health::tripped);
}

TEST(Health, DisabledByDefaultAndResetRestoresHealthy) {
    health_monitor off(1, {});  // all thresholds 0 = monitoring disabled
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(
            off.record(0, io_kind::write, io_status::unreadable_sector, 3));
    EXPECT_EQ(off.state(0), disk_health::healthy);

    health_monitor mon(1, {.max_write_errors = 1});
    EXPECT_TRUE(mon.record(0, io_kind::write, io_status::transient_error, 0));
    mon.reset(0);  // fresh hardware in the slot
    EXPECT_EQ(mon.state(0), disk_health::healthy);
    EXPECT_EQ(mon.stats(0).hard_write_errors, 0u);
    EXPECT_TRUE(mon.record(0, io_kind::write, io_status::transient_error, 0));
}

// ---- array: retry funnel, tripping, hot spares, background rebuild ---

array_config ft_config(std::uint32_t spares = 0) {
    array_config cfg;
    cfg.k = 4;
    cfg.element_size = 128;
    cfg.stripes = 12;
    cfg.sector_size = 128;
    cfg.hot_spares = spares;
    cfg.rebuild_batch_stripes = 2;
    return cfg;
}

TEST(ArrayFaults, TransientErrorsAreMaskedByRetries) {
    raid6_array a(ft_config());
    const auto data = pattern_bytes(a.capacity(), 20);
    ASSERT_TRUE(a.write(0, data));

    // A modest transient rate on every disk: reads and writes keep
    // succeeding, the policy absorbs the noise.
    for (std::uint32_t d = 0; d < a.disk_count(); ++d)
        a.disk(d).set_transient_fault_rates(0.2, 0.2, 1000 + d);

    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
    ASSERT_TRUE(a.write(100, pattern_bytes(3000, 21)));
    EXPECT_GT(a.io_stats().transient_masked, 0u);
    EXPECT_EQ(a.stats().disks_tripped, 0u);  // monitoring off by default
}

/// Value of one labeled series in the array's exposition (0 if absent).
std::uint64_t disk_series(raid6_array& a, const std::string& family,
                          std::uint32_t d) {
    const std::string text = a.obs().metrics_text();
    const std::string key = "liberation_" + family + "{disk=\"" +
                            std::to_string(d) + "\"} ";
    const std::size_t pos = text.find(key);
    return pos == std::string::npos
               ? 0
               : std::stoull(text.substr(pos + key.size()));
}

// The per-disk exported counters are counted where the event happens, so
// new hardware in a slot does not send them backwards: the health
// monitor's own ledger resets (its trip decisions are per hardware), the
// exported disk="N" series keep counting.
TEST(ArrayFaults, PerDiskExportedCountersSurviveDiskReplacement) {
    raid6_array a(ft_config());
    const auto data = pattern_bytes(a.capacity(), 24);
    ASSERT_TRUE(a.write(0, data));
    const std::uint32_t d = a.map().locate(0, 0).disk;

    // Two latent sectors under data strips of disk d: each read of them
    // is a hard error (healed by decode + write-back).
    std::size_t injected = 0;
    for (std::size_t s = 0; s < a.map().stripes() && injected < 2; ++s) {
        for (std::uint32_t c = 0; c < a.map().k() && injected < 2; ++c) {
            const strip_location loc = a.map().locate(s, c);
            if (loc.disk != d) continue;
            a.disk(d).inject_latent_error(loc.offset, 16);
            ++injected;
        }
    }
    ASSERT_EQ(injected, 2u);
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    // Transient read errors on the same disk, masked by retries.
    a.disk(d).set_transient_fault_rates(0.3, 0.0, 77);
    ASSERT_TRUE(a.read(0, out));
    a.disk(d).clear_transient_faults();
    EXPECT_EQ(out, data);

    const std::uint64_t hard = disk_series(a, "disk_hard_errors_total", d);
    const std::uint64_t transient =
        disk_series(a, "disk_transient_errors_total", d);
    EXPECT_GE(hard, 2u);
    EXPECT_GT(transient, 0u);

    a.fail_disk(d);
    a.replace_disk(d);
    EXPECT_EQ(a.health().stats(d).hard_read_errors, 0u);  // ledger reset
    EXPECT_EQ(disk_series(a, "disk_hard_errors_total", d), hard);
    EXPECT_EQ(disk_series(a, "disk_transient_errors_total", d), transient);
}

TEST(ArrayFaults, HealthTripPromotesSpareAndRebuilds) {
    array_config cfg = ft_config(1);
    cfg.health.max_read_errors = 1;  // first hard read error trips
    raid6_array a(cfg);
    const auto data = pattern_bytes(a.capacity(), 22);
    ASSERT_TRUE(a.write(0, data));

    // Disk 2 goes bad: every access fails even after retries.
    a.disk(2).set_transient_fault_rates(1.0, 1.0, 7);

    // Reads still return correct data (degraded decode around the flaky
    // column) and the health monitor trips the disk under the covers.
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
    EXPECT_EQ(a.stats().disks_tripped, 1u);

    // The next operation promotes the spare and rebuild proceeds in the
    // background; service to completion and verify full redundancy.
    a.drain_background_rebuild();
    EXPECT_EQ(a.stats().spares_promoted, 1u);
    EXPECT_EQ(a.stats().rebuilds_completed, 1u);
    EXPECT_EQ(a.spare_count(), 0u);
    EXPECT_EQ(a.failed_disk_count(), 0u);
    EXPECT_TRUE(a.disk(2).online());  // the slot holds the promoted spare
    // The spare starts a fresh health ledger; the slot's exported series
    // still count the tripped disk's errors.
    EXPECT_EQ(a.health().stats(2).hard_read_errors, 0u);
    EXPECT_GE(a.slot_stats(2).hard_errors, 1u);
    EXPECT_GE(a.slot_stats(2).transient_errors, a.slot_stats(2).hard_errors);

    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
    EXPECT_EQ(scrub_array(a).uncorrectable, 0u);
}

TEST(ArrayFaults, ForegroundIoDuringIncrementalRebuildStaysCorrect) {
    raid6_array a(ft_config(1));
    const auto data = pattern_bytes(a.capacity(), 23);
    ASSERT_TRUE(a.write(0, data));
    std::vector<std::byte> shadow = data;

    a.fail_disk(1);  // promotion + rebuild start on the next operation

    // Interleave reads and writes with the incremental rebuild; every op
    // must see/produce correct data even though the spare is half-built.
    util::xoshiro256 rng(24);
    std::vector<std::byte> buf(2048);
    bool saw_active_rebuild = false;
    for (int op = 0; op < 40; ++op) {
        saw_active_rebuild = saw_active_rebuild || a.rebuild_active();
        const std::size_t len = 1 + rng.next_below(buf.size());
        const std::size_t addr = rng.next_below(a.capacity() - len);
        const std::span<std::byte> io(buf.data(), len);
        if (op % 2 == 0) {
            rng.fill(io);
            ASSERT_TRUE(a.write(addr, io)) << "op " << op;
            std::copy(io.begin(), io.end(),
                      shadow.begin() + static_cast<long>(addr));
        } else {
            ASSERT_TRUE(a.read(addr, io)) << "op " << op;
            EXPECT_TRUE(std::equal(io.begin(), io.end(),
                                   shadow.begin() + static_cast<long>(addr)))
                << "op " << op;
        }
    }
    EXPECT_TRUE(saw_active_rebuild);  // the interleaving actually happened

    a.drain_background_rebuild();
    EXPECT_FALSE(a.rebuild_active());
    EXPECT_EQ(a.stats().spares_promoted, 1u);
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, shadow);
    EXPECT_EQ(scrub_array(a).uncorrectable, 0u);
}

TEST(ArrayFaults, ServiceBackgroundRebuildAdvancesInBatches) {
    raid6_array a(ft_config(1));
    ASSERT_TRUE(a.write(0, pattern_bytes(a.capacity(), 25)));
    a.fail_disk(0);

    // Service manually on an idle array: progress arrives in bounded
    // batches, remaining count ticks down monotonically.
    std::size_t serviced = a.service_background_rebuild(3);
    EXPECT_EQ(serviced, 3u);
    ASSERT_TRUE(a.rebuild_active());
    const std::size_t remaining = a.rebuild_stripes_remaining();
    EXPECT_EQ(remaining, a.map().stripes() - 3);
    while (a.rebuild_active()) {
        if (a.service_background_rebuild(3) == 0) break;
    }
    EXPECT_FALSE(a.rebuild_active());
    EXPECT_EQ(a.rebuild_stripes_remaining(), 0u);
    EXPECT_EQ(a.stats().rebuilds_completed, 1u);
}

TEST(ArrayFaults, SecondFailureKeepsFirstSparesWatermark) {
    raid6_array a(ft_config(2));
    const auto data = pattern_bytes(a.capacity(), 30);
    ASSERT_TRUE(a.write(0, data));

    // Disk 1 fails and its spare rebuilds the first 4 stripes...
    a.fail_disk(1);
    ASSERT_EQ(a.service_background_rebuild(4), 4u);
    // ...then disk 3 fails mid-session. Disk 1's watermark must survive:
    // its rebuilt (and since write-maintained) extent stays trusted.
    a.fail_disk(3);
    EXPECT_EQ(a.stats().spares_promoted, 2u);

    // Stripe 1 now also loses a third column to a latent error. Trusting
    // the first spare's extent leaves two erasures (new spare + latent) —
    // decodable; re-masking it would make three and lose the stripe.
    const std::uint32_t lcol = a.map().column_of_disk(1, 0);
    a.disk(0).inject_latent_error(a.map().locate(1, lcol).offset, 16);

    codes::stripe_buffer buf = a.make_stripe_buffer();
    std::vector<std::uint32_t> erased;
    ASSERT_TRUE(a.load_stripe(1, buf.view(), erased));
    EXPECT_EQ(erased.size(), 2u);
    const std::uint32_t first_spare_col = a.map().column_of_disk(1, 1);
    EXPECT_EQ(std::find(erased.begin(), erased.end(), first_spare_col),
              erased.end());
    a.code().decode(buf.view(), erased);
    for (std::uint32_t col = 0; col < a.map().k(); ++col) {
        EXPECT_EQ(std::memcmp(buf.view().strip(col).data(),
                              data.data() + a.map().stripe_data_size() +
                                  static_cast<std::size_t>(col) *
                                      a.map().strip_size(),
                              a.map().strip_size()),
                  0)
            << "col " << col;
    }

    // Both members finish; everything reads back correct.
    a.drain_background_rebuild();
    EXPECT_EQ(a.stats().rebuilds_completed, 2u);
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
}

TEST(ArrayFaults, TripleLossStallIsSurfacedNotSilent) {
    raid6_array a(ft_config(3));
    ASSERT_TRUE(a.write(0, pattern_bytes(a.capacity(), 31)));
    a.fail_disk(0);
    a.fail_disk(2);
    a.fail_disk(4);
    EXPECT_EQ(a.stats().spares_promoted, 3u);

    // Three masked columns exceed RAID-6's erasure budget: the session
    // cannot advance and must say so instead of spinning quietly.
    EXPECT_EQ(a.service_background_rebuild(4), 0u);
    EXPECT_TRUE(a.rebuild_stalled());
    EXPECT_EQ(a.stats().rebuild_sessions_stalled, 1u);
    EXPECT_EQ(a.service_background_rebuild(4), 0u);
    EXPECT_EQ(a.stats().rebuild_sessions_stalled, 1u);  // reported once

    // Reads of the stalled region fail loudly, not with blank spares.
    std::vector<std::byte> out(a.map().stripe_data_size());
    EXPECT_FALSE(a.read(0, out));

    // The operator reclaims one slot: back inside the two-erasure budget,
    // the session resumes and the stall flag drops.
    a.replace_disk(0);
    EXPECT_GT(a.service_background_rebuild(4), 0u);
    EXPECT_FALSE(a.rebuild_stalled());
}

TEST(ArrayFaults, NoSpareMeansFailureWaitsForOperator) {
    raid6_array a(ft_config(0));
    const auto data = pattern_bytes(a.capacity(), 26);
    ASSERT_TRUE(a.write(0, data));
    a.fail_disk(3);
    a.drain_background_rebuild();  // nothing to do: no spare
    EXPECT_EQ(a.failed_disk_count(), 1u);
    EXPECT_EQ(a.stats().spares_promoted, 0u);
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));  // degraded but serviceable
    EXPECT_EQ(out, data);
}

TEST(ArrayFaults, DoubleFailureConsumesBothSpares) {
    raid6_array a(ft_config(2));
    const auto data = pattern_bytes(a.capacity(), 27);
    ASSERT_TRUE(a.write(0, data));
    a.fail_disk(0);
    a.fail_disk(4);
    a.drain_background_rebuild();
    EXPECT_EQ(a.stats().spares_promoted, 2u);
    EXPECT_EQ(a.spare_count(), 0u);
    EXPECT_EQ(a.failed_disk_count(), 0u);
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
    EXPECT_EQ(scrub_array(a).clean, a.map().stripes());
}

// ---- scrub classification under transient noise ----------------------

TEST(Scrub, DistinguishesTransientFromLatentColumns) {
    raid6_array a(ft_config());
    ASSERT_TRUE(a.write(0, pattern_bytes(a.capacity(), 28)));

    // Disk 1 fails transiently on every access (even after retries). One
    // unavailable column is within the decode budget, so the
    // checksum-first scrubber decodes around the noise instead of
    // skipping the stripe — but still classifies the column as transient
    // (retry soon) rather than degraded.
    a.disk(1).set_transient_fault_rates(1.0, 1.0, 9);
    const auto noisy = scrub_array(a);
    EXPECT_EQ(noisy.skipped_transient, 0u);
    EXPECT_EQ(noisy.skipped_degraded, 0u);
    EXPECT_EQ(noisy.degraded_scrubbed, a.map().stripes());
    EXPECT_GT(noisy.transient_columns, 0u);
    EXPECT_EQ(noisy.latent_columns, 0u);

    // A latent sector is a real (persistent) degradation — and scrubbing
    // through it heals it in place (md's read-error rewrite).
    a.disk(1).clear_transient_faults();
    const auto loc = a.map().locate(2, a.map().column_of_disk(2, 3));
    a.disk(3).inject_latent_error(loc.offset, 32);
    const auto degraded = scrub_array(a);
    EXPECT_EQ(degraded.skipped_degraded, 0u);
    EXPECT_EQ(degraded.skipped_transient, 0u);
    EXPECT_EQ(degraded.degraded_scrubbed, 1u);
    EXPECT_EQ(degraded.latent_columns, 1u);
    EXPECT_EQ(a.disk(3).latent_error_count(), 0u);
}

// ---- rebuild_result per-stripe failure reporting ---------------------

TEST(Rebuild, ReportsFirstFailedStripeInsteadOfTotalLoss) {
    raid6_array a(ft_config());
    ASSERT_TRUE(a.write(0, pattern_bytes(a.capacity(), 29)));

    // While disk 2 is being rebuilt, stripe 5 has latent errors on two
    // *other* columns: that stripe alone is beyond two erasures. They
    // cover the whole strips, so a single-column rebuild that reads only
    // its plan's elements still meets them.
    a.fail_disk(2);
    a.replace_disk(2);
    std::uint32_t injected = 0;
    for (std::uint32_t col = 0; col < a.map().n() && injected < 2; ++col) {
        const auto loc = a.map().locate(5, col);
        if (loc.disk == 2) continue;
        a.disk(loc.disk).inject_latent_error(loc.offset, a.map().strip_size());
        ++injected;
    }
    ASSERT_EQ(injected, 2u);

    const std::uint32_t disks[] = {2};
    const rebuild_result r = rebuild_disks(a, disks);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.stripes_failed, 1u);
    EXPECT_EQ(r.first_failed_stripe, 5u);
    // Every other stripe was still rebuilt — not total loss.
    EXPECT_EQ(r.stripes_rebuilt, a.map().stripes() - 1);
}

TEST(Rebuild, ResultDefaultsToNoFailure) {
    const rebuild_result r;
    EXPECT_EQ(r.stripes_failed, 0u);
    EXPECT_EQ(r.first_failed_stripe, rebuild_result::npos);
}

}  // namespace
