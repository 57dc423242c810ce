// Fail-slow tolerance: seeded latency injection on vdisks, the per-disk
// latency monitor (adaptive deadlines, quarantine trips, probe-driven
// recovery), hedged reconstructed reads in the array read path, the
// quarantine's superblock round-trip across a remount, and a degraded
// read racing a concurrent health trip of a second disk.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "liberation/raid/array.hpp"
#include "liberation/raid/latency_monitor.hpp"
#include "liberation/raid/persist/mount.hpp"
#include "liberation/raid/rebuild.hpp"
#include "liberation/raid/vdisk.hpp"
#include "liberation/util/rng.hpp"
#include "liberation/volume/chaos.hpp"

namespace {

using namespace liberation;
using namespace liberation::raid;

std::vector<std::byte> pattern_bytes(std::size_t n, std::uint64_t seed) {
    std::vector<std::byte> v(n);
    util::xoshiro256 rng(seed);
    rng.fill(v);
    return v;
}

// ---- vdisk latency injection -----------------------------------------

latency_profile constant_profile(std::uint64_t base, std::uint64_t jitter) {
    latency_profile p;
    p.kind = latency_profile::shape::constant;
    p.base_us = base;
    p.jitter_us = jitter;
    return p;
}

TEST(VdiskLatency, ConstantProfileReplaysFromSeed) {
    std::vector<std::byte> buf(64);
    const auto run = [&](std::uint64_t seed) {
        vdisk d(0, 4096, 512);
        d.set_latency_profile(constant_profile(100, 50), seed);
        std::vector<std::uint64_t> svc;
        for (int i = 0; i < 50; ++i) {
            std::uint64_t us = 0;
            EXPECT_EQ(d.read(0, buf, &us), io_status::ok);
            EXPECT_GE(us, 100u);
            EXPECT_LT(us, 150u);
            svc.push_back(us);
        }
        return svc;
    };
    EXPECT_EQ(run(7), run(7));     // bit-for-bit replay
    EXPECT_NE(run(7), run(8));     // and the seed actually matters
}

TEST(VdiskLatency, StreamAdvancesWhenCallerIgnoresLatency) {
    // A caller that passes no service_us out-param must still consume
    // the same draws: ignoring latency must not shift the stream for
    // later callers (determinism across mixed call sites).
    std::vector<std::byte> buf(64);
    vdisk a(0, 4096, 512), b(1, 4096, 512);
    a.set_latency_profile(constant_profile(100, 50), 7);
    b.set_latency_profile(constant_profile(100, 50), 7);
    std::uint64_t want = 0, got = 0;
    for (int i = 0; i < 10; ++i) {
        ASSERT_EQ(a.read(0, buf, nullptr), io_status::ok);
        ASSERT_EQ(b.read(0, buf, &want), io_status::ok);
    }
    ASSERT_EQ(a.read(0, buf, &got), io_status::ok);
    ASSERT_EQ(b.read(0, buf, &want), io_status::ok);
    EXPECT_EQ(got, want);
}

TEST(VdiskLatency, RampAccruesAndCaps) {
    latency_profile p;
    p.kind = latency_profile::shape::ramp;
    p.base_us = 10;
    p.ramp_us_per_op = 5;
    p.ramp_cap_us = 20;
    vdisk d(0, 4096, 512);
    d.set_latency_profile(p, 1);
    std::vector<std::byte> buf(64);
    std::uint64_t us = 0;
    std::uint64_t prev = 0;
    for (int i = 0; i < 10; ++i) {
        ASSERT_EQ(d.read(0, buf, &us), io_status::ok);
        EXPECT_GE(us, prev);           // monotone degradation
        EXPECT_LE(us, 10u + 20u);      // base + cap
        prev = us;
    }
    EXPECT_EQ(prev, 30u);  // the cap was reached and held
}

TEST(VdiskLatency, IntermittentStallFiresOnSchedule) {
    latency_profile p;
    p.kind = latency_profile::shape::intermittent_stall;
    p.base_us = 10;
    p.stall_us = 5000;
    p.stall_every = 4;
    vdisk d(0, 4096, 512);
    d.set_latency_profile(p, 1);
    std::vector<std::byte> buf(64);
    std::uint64_t us = 0;
    for (int i = 1; i <= 12; ++i) {
        ASSERT_EQ(d.read(0, buf, &us), io_status::ok);
        if (i % 4 == 0) {
            EXPECT_GE(us, 5000u) << "op " << i << " should stall";
        } else {
            EXPECT_LT(us, 5000u) << "op " << i << " should not stall";
        }
    }
}

TEST(VdiskLatency, ReplaceClearsProfile) {
    vdisk d(0, 4096, 512);
    d.set_latency_profile(constant_profile(100, 0), 1);
    EXPECT_TRUE(d.latency_profile_armed());
    d.replace();
    EXPECT_FALSE(d.latency_profile_armed());
    std::vector<std::byte> buf(64);
    std::uint64_t us = 99;
    ASSERT_EQ(d.read(0, buf, &us), io_status::ok);
    EXPECT_EQ(us, 0u);  // fresh hardware is fast
}

// ---- latency monitor --------------------------------------------------

TEST(LatencyMonitor, DisabledLayerNeverTrips) {
    latency_monitor m(4, latency_config{});  // hedged_reads = false
    EXPECT_FALSE(m.enabled());
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(m.note_read(0, 1'000'000));
    }
    EXPECT_EQ(m.deadline_us(0), latency_config{}.max_deadline_us);
    EXPECT_FALSE(m.quarantined(0));
}

latency_config enabled_config() {
    latency_config cfg;
    cfg.hedged_reads = true;
    return cfg;
}

TEST(LatencyMonitor, DeadlineAdaptsToTheDistribution) {
    latency_monitor m(2, enabled_config());
    // Cold distribution: no deadline yet.
    EXPECT_EQ(m.deadline_us(0), enabled_config().max_deadline_us);
    for (int i = 0; i < 200; ++i) m.note_read(0, 100);
    // Warm: clamp(p99 * factor) — near 4x the ~100 us service time, and
    // far below both the cold max and the untouched disk 1.
    const std::uint64_t d = m.deadline_us(0);
    EXPECT_GE(d, enabled_config().min_deadline_us);
    EXPECT_LE(d, 2'000u);
    EXPECT_EQ(m.deadline_us(1), enabled_config().max_deadline_us);
}

TEST(LatencyMonitor, ConsecutiveMissesTripOnceThenProbesRecover) {
    latency_config cfg = enabled_config();
    latency_monitor m(2, cfg);
    for (int i = 0; i < 200; ++i) m.note_read(0, 100);  // warm, on time

    // Winsorized sampling: the stall magnitude must never drown the
    // deadline — every raw 50 ms sample still counts as late, so the
    // miss streak reaches the trip threshold.
    int trips = 0;
    for (std::uint32_t i = 0; i < cfg.slow_trip_misses + 4; ++i) {
        if (i < cfg.slow_trip_misses) {
            // The geometric ratchet must not outrun the streak: every
            // sample up to the trip still counts as late. (After the
            // trip the ratchet may legitimately pass the stall.)
            EXPECT_LT(m.deadline_us(0), 50'000u);
        }
        if (m.note_read(0, 50'000)) ++trips;
    }
    EXPECT_EQ(trips, 1);  // reported exactly once per episode
    EXPECT_TRUE(m.quarantined(0));
    EXPECT_FALSE(m.quarantined(1));
    EXPECT_EQ(m.stats(0).slow_trips, 1u);
    EXPECT_GE(m.stats(0).deadline_misses, cfg.slow_trip_misses);

    // Every probe_every-th routed read probes the disk directly.
    int probes = 0;
    for (std::uint32_t i = 0; i < cfg.probe_every; ++i) {
        if (m.take_probe(0)) ++probes;
    }
    EXPECT_EQ(probes, 1);
    EXPECT_EQ(m.stats(0).routed_reads, cfg.probe_every);

    // recover_probes consecutive on-time probes lift the quarantine.
    for (std::uint32_t i = 0; i < cfg.recover_probes; ++i) {
        EXPECT_FALSE(m.note_read(0, 100));
    }
    EXPECT_FALSE(m.quarantined(0));
    EXPECT_EQ(m.stats(0).recoveries, 1u);
}

TEST(LatencyMonitor, LateProbeRestartsRecoveryCount) {
    latency_config cfg = enabled_config();
    latency_monitor m(1, cfg);
    for (int i = 0; i < 200; ++i) m.note_read(0, 100);
    for (std::uint32_t i = 0; i < cfg.slow_trip_misses; ++i) {
        m.note_read(0, 50'000);
    }
    ASSERT_TRUE(m.quarantined(0));
    // Two good probes, one late one, then the full run of good probes:
    // the late probe must reset the consecutive count.
    m.note_read(0, 100);
    m.note_read(0, 100);
    m.note_read(0, 50'000);
    for (std::uint32_t i = 0; i + 1 < cfg.recover_probes; ++i) {
        m.note_read(0, 100);
        EXPECT_TRUE(m.quarantined(0));
    }
    m.note_read(0, 100);
    EXPECT_FALSE(m.quarantined(0));
}

TEST(LatencyMonitor, ResetClearsQuarantineAndDistribution) {
    latency_monitor m(1, enabled_config());
    for (int i = 0; i < 200; ++i) m.note_read(0, 100);
    for (int i = 0; i < 8; ++i) m.note_read(0, 50'000);
    ASSERT_TRUE(m.quarantined(0));
    m.reset(0);
    EXPECT_FALSE(m.quarantined(0));
    EXPECT_EQ(m.stats(0).samples, 0u);
    EXPECT_EQ(m.deadline_us(0), enabled_config().max_deadline_us);  // cold
}

// ---- hedged reads in the array read path ------------------------------

array_config hedged_config(bool hedged) {
    array_config cfg;
    cfg.k = 4;
    cfg.element_size = 512;
    cfg.stripes = 16;
    cfg.io_queue_depth = 1;
    cfg.latency.hedged_reads = hedged;
    // Operator's tail SLA: with every straggler op stalling, the
    // adaptive p99 tracks the stall, so the ceiling is what bounds the
    // hedge trigger here.
    cfg.latency.max_deadline_us = 1000;
    return cfg;
}

TEST(HedgedRead, HedgesBeatAStragglerAndBytesStayCorrect) {
    raid6_array a(hedged_config(true));
    const auto image = pattern_bytes(a.capacity(), 3);
    ASSERT_TRUE(a.write(0, image));
    a.disk(2).set_latency_profile(constant_profile(50'000, 0), 9);

    const std::uint64_t t0 = a.clock().now_us();
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, image);
    const std::uint64_t hedged_us = a.clock().now_us() - t0;

    const array_stats st = a.stats();
    EXPECT_GE(st.hedged_reads, 1u);
    EXPECT_GE(st.hedge_wins, 1u);
    EXPECT_EQ(st.deadline_exceeded, st.hedged_reads);
    // Winning hedges are charged the deadline, not the stall: the whole
    // pass must cost far less than one 50 ms stall per strip read.
    EXPECT_LT(hedged_us, 50'000u);
    // Hedged reconstruction is checksum-verified, not double-counted as
    // an integrity event.
    EXPECT_EQ(st.checksum_mismatches, 0u);

    // The same pass without hedging pays every stall in full.
    raid6_array b(hedged_config(false));
    ASSERT_TRUE(b.write(0, image));
    b.disk(2).set_latency_profile(constant_profile(50'000, 0), 9);
    const std::uint64_t t1 = b.clock().now_us();
    ASSERT_TRUE(b.read(0, out));
    EXPECT_EQ(out, image);
    const std::uint64_t direct_us = b.clock().now_us() - t1;
    EXPECT_EQ(b.stats().hedged_reads, 0u);
    EXPECT_GT(direct_us, 5 * hedged_us);
}

TEST(HedgedRead, PersistentLatenessQuarantinesThenRecovers) {
    raid6_array a(hedged_config(true));
    const auto image = pattern_bytes(a.capacity(), 4);
    ASSERT_TRUE(a.write(0, image));
    a.disk(2).set_latency_profile(constant_profile(50'000, 0), 9);

    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, image);
    EXPECT_TRUE(a.latency_mon().quarantined(2));
    EXPECT_GE(a.stats().slow_trips, 1u);

    // Quarantined: reads route around the disk via decode. The straggler
    // only sees its periodic probes, so a pass costs probes, not stalls.
    const std::uint64_t t0 = a.clock().now_us();
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, image);
    const std::uint64_t routed_us = a.clock().now_us() - t0;
    EXPECT_GE(a.stats().slow_routed_reads, 1u);
    EXPECT_LT(routed_us, 16u * 50'000u);  // nowhere near a stall per strip

    // Writes still land on the quarantined disk (no erasure is declared):
    // rewrite everything, then heal the disk and keep reading until the
    // probes lift the quarantine.
    const auto image2 = pattern_bytes(a.capacity(), 5);
    ASSERT_TRUE(a.write(0, image2));
    a.disk(2).clear_latency_profile();
    for (int pass = 0; pass < 40 && a.latency_mon().quarantined(2); ++pass) {
        ASSERT_TRUE(a.read(0, out));
        EXPECT_EQ(out, image2);
    }
    EXPECT_FALSE(a.latency_mon().quarantined(2));
    EXPECT_GE(a.stats().slow_recoveries, 1u);
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, image2);
}

// ---- quarantine persistence across remount ----------------------------

TEST(FailSlowPersist, QuarantineSurvivesKillAndRemount) {
    const std::string dir =
        ::testing::TempDir() + "liberation-fail-slow-remount";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    array_config cfg = hedged_config(true);
    persist::store_config scfg;
    scfg.dir = dir;
    std::vector<std::byte> image;
    {
        auto a = persist::create_array(cfg, scfg, 0xFEED);
        ASSERT_NE(a, nullptr);
        image = pattern_bytes(a->capacity(), 6);
        ASSERT_TRUE(a->write(0, image));
        a->disk(2).set_latency_profile(constant_profile(50'000, 0), 9);
        std::vector<std::byte> out(a->capacity());
        ASSERT_TRUE(a->read(0, out));
        ASSERT_TRUE(a->latency_mon().quarantined(2));
        // Kill: destroy with no unmount — the trip already persisted the
        // membership epoch with the slow bit set.
    }

    persist::mount_options mo;
    mo.store.dir = dir;
    mo.io_queue_depth = 1;
    mo.latency = cfg.latency;
    persist::mounted_array m = persist::mount_array(mo);
    ASSERT_TRUE(m.report.ok) << m.report.error;
    ASSERT_NE(m.array, nullptr);
    EXPECT_TRUE(m.array->latency_mon().quarantined(2));

    // The remounted straggler is fresh hardware without the profile, so
    // probe reads come back on time and the quarantine lifts.
    std::vector<std::byte> out(m.array->capacity());
    for (int pass = 0;
         pass < 40 && m.array->latency_mon().quarantined(2); ++pass) {
        ASSERT_TRUE(m.array->read(0, out));
        EXPECT_EQ(out, image);
    }
    EXPECT_FALSE(m.array->latency_mon().quarantined(2));
    EXPECT_TRUE(m.array->unmount());

    // A remount without the fail-slow layer ignores the (now cleared)
    // bit and assembles normally.
    persist::mount_options plain;
    plain.store.dir = dir;
    plain.io_queue_depth = 1;
    persist::mounted_array m2 = persist::mount_array(plain);
    ASSERT_TRUE(m2.report.ok) << m2.report.error;
    EXPECT_FALSE(m2.array->latency_mon().quarantined(2));
    std::filesystem::remove_all(dir);
}

// ---- degraded read racing a concurrent second-disk health trip --------

TEST(HedgedRace, DegradedReadVsConcurrentSecondTrip) {
    // One disk already failed (degraded reads decode around it), one disk
    // fail-slow (hedging in play), and mid-flight a *third* disk storms
    // hard enough for the health monitor to trip it — two erasures plus a
    // straggler. Every read that returns success must carry bytes
    // identical to the shadow image: recover or fail loudly, never stale.
    array_config cfg = hedged_config(true);
    cfg.stripes = 32;
    cfg.health.max_read_errors = 5;
    raid6_array a(cfg);
    const auto image = pattern_bytes(a.capacity(), 7);
    ASSERT_TRUE(a.write(0, image));

    a.fail_disk(1);
    a.disk(2).set_latency_profile(constant_profile(20'000, 0), 11);

    const std::size_t elems = a.capacity() / cfg.element_size;
    std::atomic<bool> go{false};
    std::atomic<std::size_t> served{0}, refused{0};
    std::thread reader([&] {
        util::xoshiro256 rng(123);
        std::vector<std::byte> buf(cfg.element_size);
        while (!go.load(std::memory_order_acquire)) {}
        for (int i = 0; i < 3000; ++i) {
            const std::size_t addr =
                (rng.next() % elems) * cfg.element_size;
            if (a.read(addr, buf)) {
                served.fetch_add(1, std::memory_order_relaxed);
                ASSERT_EQ(std::memcmp(buf.data(), image.data() + addr,
                                      buf.size()),
                          0)
                    << "stale bytes at " << addr;
            } else {
                refused.fetch_add(1, std::memory_order_relaxed);
            }
        }
    });
    go.store(true, std::memory_order_release);
    // Let the reader get going, then storm disk 3: every access errors,
    // retries exhaust, and the health monitor trips it mid-read-stream.
    while (served.load(std::memory_order_relaxed) +
               refused.load(std::memory_order_relaxed) <
           100) {
        std::this_thread::yield();
    }
    a.disk(3).set_transient_fault_rates(1.0, 1.0, 77);
    reader.join();

    EXPECT_GE(served.load(), 1u);
    // Settle: heal the storm, put fresh disks in both failed slots, and
    // rebuild — the array must return to byte-exact health.
    a.disk(3).clear_transient_faults();
    a.replace_disk(1);
    std::vector<std::uint32_t> targets{1};
    if (!a.disk(3).online()) {
        a.replace_disk(3);
        targets.push_back(3);
    }
    const rebuild_result res = rebuild_disks(a, targets);
    EXPECT_TRUE(res.success);
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, image);
}

// ---- chaos campaign with the fail-slow plan ---------------------------

TEST(FailSlowChaos, CampaignHedgesTripsAndRecoversClean) {
    volume::chaos_config cfg = volume::default_chaos_config(42, 1, 3000);
    cfg.volume.shard.latency.hedged_reads = true;
    cfg.events.fail_stop_at_op = 600;
    cfg.events.health_storm_at_op = 1500;
    cfg.events.power_loss_at_op = 2400;
    cfg.events.fail_slow_at_op = 1000;
    cfg.events.fail_slow_recover_at_op = 2000;
    const volume::chaos_report rep = volume::run_chaos_campaign(cfg);

    EXPECT_TRUE(rep.success);
    EXPECT_EQ(rep.mismatches, 0u);
    EXPECT_EQ(rep.failed_reads, 0u);
    EXPECT_EQ(rep.stats.shard_total.reads_unrecoverable, 0u);
    EXPECT_EQ(rep.fail_slow_injected, 1u);
    EXPECT_GE(rep.deadline_exceeded, 1u);
    EXPECT_GE(rep.hedged_reads, 1u);
    EXPECT_GE(rep.hedge_wins, 1u);
    EXPECT_GE(rep.slow_trips, 1u);
    EXPECT_GE(rep.slow_recoveries, 1u);

    // Same seed, same campaign: the fail-slow plan replays bit-for-bit.
    const volume::chaos_report again = volume::run_chaos_campaign(cfg);
    EXPECT_EQ(again.deadline_exceeded, rep.deadline_exceeded);
    EXPECT_EQ(again.hedged_reads, rep.hedged_reads);
    EXPECT_EQ(again.hedge_wins, rep.hedge_wins);
    EXPECT_EQ(again.slow_trips, rep.slow_trips);
    EXPECT_EQ(again.slow_recoveries, rep.slow_recoveries);
}

TEST(FailSlowChaos, PersistentCampaignKeepsHedgingAfterRemount) {
    // The CLI's --persist-dir --fail-slow plan at one shard (6000 ops is
    // the fail-slow floor). The mid-rebuild kill lands before the gray
    // disk arms, so quarantine and recovery happen on a remounted
    // volume: the remount must carry the latency config over.
    const std::string dir =
        ::testing::TempDir() + "liberation-failslow-chaos-persist";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    volume::chaos_config cfg = volume::default_chaos_config(42, 1, 6000);
    cfg.volume.shard.latency.hedged_reads = true;
    cfg.volume.shard.io_queue_depth = 8;
    cfg.persist_enabled = true;
    cfg.dir = dir;
    std::vector<std::string> events;
    cfg.log = [&events](const std::string& msg) { events.push_back(msg); };
    const volume::chaos_report rep = volume::run_chaos_campaign(cfg);

    const auto first = [&events](const std::string& what) {
        for (std::size_t i = 0; i < events.size(); ++i) {
            if (events[i].find(what) != std::string::npos) return i;
        }
        return events.size();
    };
    ASSERT_LT(first("fail-slow on shard"), events.size());
    EXPECT_LT(first("remounted"), first("fail-slow on shard"));
    EXPECT_GE(rep.remounts, 1u);
    EXPECT_EQ(rep.fail_slow_injected, 1u);
    EXPECT_GE(rep.slow_trips, 1u);
    EXPECT_GE(rep.slow_recoveries, 1u);
    EXPECT_TRUE(rep.success);
}

TEST(FailSlowChaos, QuarantineTripsAtThreeAndFourShards) {
    // Shard C sees 1/N of the reads, and a remount restarts its latency
    // distributions. The CLI's 6000-op plan must still arm the gray disk
    // on a warm distribution, so the deadline cannot outgrow the stall
    // before the 8-miss streak trips the quarantine. Seed 1 once failed
    // to trip in both configurations below.
    const std::string dir =
        ::testing::TempDir() + "liberation-failslow-chaos-3shards";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    volume::chaos_config in_memory = volume::default_chaos_config(1, 4, 6000);
    volume::chaos_config persistent =
        volume::default_chaos_config(1, 3, 6000);
    persistent.persist_enabled = true;
    persistent.dir = dir;
    for (volume::chaos_config* cfg : {&in_memory, &persistent}) {
        SCOPED_TRACE(cfg->volume.shards);
        cfg->volume.shard.latency.hedged_reads = true;
        const volume::chaos_report rep = volume::run_chaos_campaign(*cfg);
        EXPECT_EQ(rep.fail_slow_injected, 1u);
        EXPECT_GE(rep.hedge_wins, 1u);
        EXPECT_GE(rep.slow_trips, 1u);
        EXPECT_GE(rep.slow_recoveries, 1u);
        EXPECT_TRUE(rep.success);
    }
    std::filesystem::remove_all(dir);
}

}  // namespace
