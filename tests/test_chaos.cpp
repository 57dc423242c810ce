// Chaos campaign: the acceptance test of the fault-tolerance and
// integrity layers, run on a one-shard volume (a single array). A seeded
// campaign interleaves 10k random reads/writes with transient faults on
// every disk, one health-tripped disk, one injected fail-stop, latent
// sector errors, a mid-write power loss, periodic silent bit-flips, and
// checksum-metadata damage — while two hot spares absorb the failures and
// background rebuilds race the workload. Every read is verified against a
// shadow copy; no host read may ever return bytes that fail their
// checksum; the whole run must replay bit-for-bit from its seed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "liberation/volume/chaos.hpp"

namespace {

using namespace liberation::volume;

std::string fresh_dir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "liberation-chaos-" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

TEST(Chaos, AcceptanceCampaignRunsClean) {
    const chaos_config cfg = default_chaos_config(42, 1, 10'000);
    const chaos_report rep = run_chaos_campaign(cfg);

    // Zero corruption anywhere...
    EXPECT_EQ(rep.mismatches, 0u);
    EXPECT_EQ(rep.failed_reads, 0u);
    EXPECT_EQ(rep.failed_writes, 0u);
    EXPECT_EQ(rep.final_torn, 0u);
    EXPECT_EQ(rep.final_degraded, 0u);
    EXPECT_EQ(rep.final_unrecovered, 0u);
    EXPECT_EQ(rep.scrub_uncorrectable, 0u);
    EXPECT_EQ(rep.final_checksum_bad, 0u);
    EXPECT_EQ(rep.stats.shard_total.reads_unrecoverable, 0u);
    EXPECT_EQ(rep.stats.shard_total.rebuild_sessions_stalled, 0u);
    EXPECT_FALSE(rep.first_bad_op.has_value());

    // ...while the full fault plan actually fired.
    EXPECT_EQ(rep.ops, 10'000u);
    EXPECT_EQ(rep.injected_fail_stops, 1u);
    EXPECT_GE(rep.health_trips, 1u);
    EXPECT_EQ(rep.power_losses, 1u);
    EXPECT_GE(rep.latent_errors_injected, 1u);
    EXPECT_GE(rep.corruptions_injected, 1u);
    EXPECT_GE(rep.integrity_corruptions_injected, 1u);
    EXPECT_EQ(rep.spares_promoted, 2u);  // fail-stop + health trip
    EXPECT_GE(rep.rebuilds_completed, 2u);
    EXPECT_GT(rep.io.transient_masked, 0u);  // retries actually earned keep

    // The integrity layer earned its keep: bit-flips were caught in-line
    // (self-healed reads), stale CRC metadata was refreshed, and the
    // degraded-stripe scrub repaired corruption the seed scrubber skipped.
    EXPECT_GE(rep.stats.shard_total.reads_self_healed, 1u);
    EXPECT_GE(rep.stats.shard_total.checksum_metadata_repaired, 1u);
    EXPECT_GE(rep.degraded_scrub_repairs, 1u);
    EXPECT_TRUE(rep.success);
}

TEST(Chaos, CampaignReplaysBitForBitFromSeed) {
    const chaos_config cfg = default_chaos_config(7, 1, 4'000);
    const chaos_report a = run_chaos_campaign(cfg);
    const chaos_report b = run_chaos_campaign(cfg);

    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.mismatches, b.mismatches);
    EXPECT_EQ(a.power_losses, b.power_losses);
    EXPECT_EQ(a.resynced_stripes, b.resynced_stripes);
    EXPECT_EQ(a.latent_errors_injected, b.latent_errors_injected);
    EXPECT_EQ(a.corruptions_injected, b.corruptions_injected);
    EXPECT_EQ(a.integrity_corruptions_injected, b.integrity_corruptions_injected);
    EXPECT_EQ(a.health_trips, b.health_trips);
    EXPECT_EQ(a.spares_promoted, b.spares_promoted);
    EXPECT_EQ(a.rebuilds_completed, b.rebuilds_completed);
    EXPECT_EQ(a.success, b.success);
    // Down to the per-disk fault streams and retry totals.
    EXPECT_EQ(a.io.retries, b.io.retries);
    EXPECT_EQ(a.io.transient_masked, b.io.transient_masked);
    EXPECT_EQ(a.io.retries_exhausted, b.io.retries_exhausted);
    EXPECT_EQ(a.io.backoff_us, b.io.backoff_us);
    EXPECT_EQ(a.stats.shard_total.degraded_stripe_reads,
              b.stats.shard_total.degraded_stripe_reads);
    EXPECT_EQ(a.stats.shard_total.media_errors_recovered,
              b.stats.shard_total.media_errors_recovered);
    EXPECT_EQ(a.stats.shard_total.checksum_mismatches,
              b.stats.shard_total.checksum_mismatches);
    EXPECT_EQ(a.stats.shard_total.reads_self_healed,
              b.stats.shard_total.reads_self_healed);
    EXPECT_EQ(a.degraded_scrub_repairs, b.degraded_scrub_repairs);
    EXPECT_EQ(a.settle_scrub_healed, b.settle_scrub_healed);
}

TEST(Chaos, RebuildHealCountsTowardTheCorruptionCheck) {
    // `chaos_campaign --seed 18 --ops 2000`: the op-900 flip (stripe 0)
    // lies ahead of the hot-spare rebuild of the disk the op-1000 storm
    // trips, and that rebuild heals it through write_back before any
    // read or the settle scrub meets it; the op-1800 flip (stripe 7) is
    // overwritten by a full-stripe host write ten ops later. Only the
    // rebuild's heal shows that a cadence flip was caught.
    chaos_config cfg = default_chaos_config(18, 1, 2'000);
    cfg.events.fail_slow_at_op = cfg.ops;  // as the CLI without --fail-slow
    cfg.events.fail_slow_recover_at_op = cfg.ops;
    const chaos_report rep = run_chaos_campaign(cfg);
    EXPECT_EQ(rep.mismatches, 0u);
    EXPECT_EQ(rep.corruptions_injected, 3u);
    EXPECT_EQ(rep.rebuilds_completed, 2u);
    // The degraded-stripe scrub's heal of the fail-stop's planted flip,
    // and the rebuild's.
    EXPECT_EQ(rep.degraded_scrub_repairs, 1u);
    EXPECT_EQ(rep.stats.shard_total.corrupt_columns_healed, 2u);
    EXPECT_TRUE(rep.success);
}

TEST(Chaos, DifferentSeedsStillPassButDiverge) {
    chaos_config c1 = default_chaos_config(1234, 1, 4'000);
    c1.events.fail_stop_at_op = 800;
    c1.events.health_storm_at_op = 2'000;
    c1.events.power_loss_at_op = 3'200;
    chaos_config c2 = c1;
    c2.seed = 4321;

    const chaos_report a = run_chaos_campaign(c1);
    const chaos_report b = run_chaos_campaign(c2);
    EXPECT_TRUE(a.success);
    EXPECT_TRUE(b.success);
    // The seed drives the workload, not just the faults.
    EXPECT_NE(a.io.retries, b.io.retries);
}

TEST(Chaos, OneShardPlanFiresEveryFaultClass) {
    // In memory: every fault class fires, including the power loss that a
    // persistent run turns into a mid-write kill.
    const chaos_report mem =
        run_chaos_campaign(default_chaos_config(7, 1, 8'000));
    EXPECT_TRUE(mem.success);
    EXPECT_EQ(mem.injected_fail_stops, 1u);
    EXPECT_GE(mem.degraded_scrub_repairs, 1u);  // scrub right after it
    EXPECT_GE(mem.health_trips, 1u);            // the storm ends in a trip
    EXPECT_GE(mem.latent_errors_injected, 1u);
    EXPECT_GE(mem.integrity_corruptions_injected, 1u);
    EXPECT_GE(mem.stats.shard_total.checksum_metadata_repaired, 1u);
    EXPECT_GE(mem.corruptions_injected, 1u);
    EXPECT_GE(mem.stats.shard_total.reads_self_healed, 1u);
    EXPECT_EQ(mem.power_losses, 1u);
    // The final per-column checksum sweep ran and found every stripe whole.
    EXPECT_EQ(mem.final_degraded, 0u);
    EXPECT_EQ(mem.final_unrecovered, 0u);
    EXPECT_EQ(mem.final_checksum_bad, 0u);
    // Without spares the fail-stop and the storm trip leave two disks
    // down: the sweep counts every stripe degraded, none lost.
    chaos_config bare = default_chaos_config(7, 1, 3'000);
    bare.volume.shard.hot_spares = 0;
    const chaos_report stranded = run_chaos_campaign(bare);
    EXPECT_FALSE(stranded.success);
    EXPECT_EQ(stranded.final_degraded, bare.volume.shard.stripes);
    EXPECT_EQ(stranded.final_unrecovered, 0u);
    EXPECT_EQ(stranded.mismatches, 0u);

    // Persistent: the three crash points, each with its recovery path.
    chaos_config cfg = default_chaos_config(42, 1, 6'000);
    cfg.persist_enabled = true;
    cfg.dir = fresh_dir("one-shard");
    std::vector<std::string> events;
    cfg.log = [&events](const std::string& msg) { events.push_back(msg); };
    const chaos_report per = run_chaos_campaign(cfg);
    EXPECT_TRUE(per.success);
    const auto logged = [&events](const std::string& what) {
        for (const std::string& e : events) {
            if (e.find(what) != std::string::npos) return true;
        }
        return false;
    };
    EXPECT_TRUE(logged("kill (mid-rebuild)"));
    EXPECT_TRUE(logged("kill (mid-write)"));
    EXPECT_TRUE(logged("kill (mid-scrub)"));
    EXPECT_EQ(per.kills, 3u);
    EXPECT_EQ(per.remounts, 3u);
    EXPECT_GE(per.rebuilds_resumed, 1u);
    EXPECT_GE(per.mount_intent_replayed, 1u);
    EXPECT_GE(per.remount_scrub_repairs, 1u);
    EXPECT_GE(per.health_trips, 1u);
    EXPECT_EQ(per.injected_fail_stops, 1u);
}

TEST(Chaos, FirstDivergenceNamesTheOp) {
    // Fail three disks of the only shard at op 700: RAID-6 cannot serve
    // past two erasures, so op 700 is the first host op refused, and the
    // oracle must name it (and only it) as the first divergence.
    constexpr std::size_t kBadOp = 700;
    const std::string pm = fresh_dir("postmortem");
    setenv("LIBERATION_POSTMORTEM_DIR", pm.c_str(), 1);
    chaos_config cfg = default_chaos_config(42, 1, 1'000);
    cfg.trace = true;
    cfg.inject = [](std::size_t op, volume& vol) {
        if (op != kBadOp) return;
        for (std::uint32_t d = 0; d < 3; ++d) vol.shard(0).fail_disk(d);
    };
    const chaos_report rep = run_chaos_campaign(cfg);
    EXPECT_FALSE(rep.success);
    ASSERT_TRUE(rep.first_bad_op.has_value());
    EXPECT_EQ(rep.first_bad_op->op, kBadOp);
    EXPECT_GT(rep.first_bad_op->len, 0u);
    EXPECT_NE(rep.first_bad_op->trace_id, 0u);  // rooted per op when tracing
    EXPECT_GE(rep.failed_reads + rep.failed_writes + rep.mismatches, 1u);

    // The failed verdict's postmortem bundle names the op too.
    unsetenv("LIBERATION_POSTMORTEM_DIR");
    std::string manifest;
    for (const auto& e : std::filesystem::directory_iterator(pm)) {
        std::ifstream in(e.path() / "MANIFEST.json");
        manifest.assign(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
    }
    EXPECT_NE(manifest.find("\"first_bad_op\":{\"op\":" +
                            std::to_string(kBadOp) + ","),
              std::string::npos)
        << manifest;
}

}  // namespace
