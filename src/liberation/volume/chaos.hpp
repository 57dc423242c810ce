// Chaos campaign: a seeded, replayable end-to-end torture test of the
// volume and the raid6_array shards under it. A single array is a
// 1-shard volume, so this one engine covers both.
//
// A random read/write workload over the full volume address space runs
// against a shadow copy, checked on every read, while the fault plan
// lands on different shards: a fail-stop on shard A (with hot-spare
// failover, background rebuild and a scrub of the degraded stripes), a
// transient-error storm that makes the health monitor trip a disk of
// shard B, a gray (fail-slow) disk on shard C, and a power cut on shard
// B. Silent data flips, latent sector errors and checksum-metadata flips
// rotate across all shards. Persistent runs also kill the whole process
// mid-rebuild, mid-write and mid-scrub and reassemble the volume with
// mount_volume(). At the end every shard is scrubbed, its stripes are
// swept against their stored checksums, and the full volume is compared
// with the shadow copy.
//
// Everything is driven by one seed through util::xoshiro256: equal
// configs replay the same campaign bit-for-bit, including with threaded
// dispatch (per-shard dispatcher threads serialize each shard's ops in
// host order, and every random draw happens on the campaign thread).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "liberation/obs/postmortem.hpp"
#include "liberation/obs/slo.hpp"
#include "liberation/volume/mount.hpp"
#include "liberation/volume/volume.hpp"

namespace liberation::volume {

/// Op indices are *arming* points; each event fires at the first
/// subsequent op where its target shard is quiet (no failed disk, no
/// rebuild in flight), so no shard ever holds more faults than RAID-6
/// decodes around. Shard roles: A = rng-picked, B = (A+1) mod N,
/// C = (A+2) mod N (C falls back to A when N == 2). At N == 1 all three
/// are shard 0: the fail-stop and the storm trip take its two spares.
/// >= ops disables an event; 0 disables a cadence.
struct chaos_event_plan {
    /// Fail-stop a disk of shard A, then corrupt a survivor column of a
    /// not-yet-rebuilt stripe and scrub at once: the checksum-first
    /// scrubber must repair corruption on a degraded stripe.
    std::size_t fail_stop_at_op = 1000;
    /// Whole-process kill at the first op with shard A's rebuild in
    /// flight (persistent runs only): the remount must resume it from the
    /// persisted watermark.
    std::size_t kill_mid_rebuild_at_op = 1001;
    /// Gray failure on a disk of shard C (constant service latency);
    /// requires volume.shard.latency.hedged_reads for the shard to react
    /// (hedge, then quarantine). The straggler recovers at the second op.
    /// default_chaos_config opens this window later as the shard count
    /// grows (see there).
    std::size_t fail_slow_at_op = 2000;
    std::size_t fail_slow_recover_at_op = 4200;
    std::uint64_t fail_slow_base_us = 20'000;
    /// Make a disk of shard B flaky enough (0.9 transient rate) for the
    /// health monitor to trip it.
    std::size_t health_storm_at_op = 3000;
    /// Power-cut a few disk writes into some stripe update of shard B:
    /// persistent runs die and remount (intent replay), in-memory runs
    /// reboot and recover the write hole in place.
    std::size_t power_loss_at_op = 4800;
    /// Persistent runs: corrupt a strip of shard C and kill the process
    /// before any scrub heals it; the post-remount scrub must repair it.
    std::size_t kill_mid_scrub_at_op = 5400;
    /// Silently flip bits in a random strip every N ops.
    std::size_t corrupt_every = 900;
    /// Inject a latent sector error every N ops.
    std::size_t latent_error_every = 1500;
    /// Flip a stored checksum (the integrity *metadata*) every N ops:
    /// exercises the damaged-checksum-domain fallback.
    std::size_t corrupt_integrity_every = 3500;
};

struct chaos_config {
    std::uint64_t seed = 42;
    std::size_t ops = 6000;
    /// Shard count, per-shard geometry (must include hot spares for the
    /// fault plan), chunk size, dispatch mode.
    volume_config volume{};
    /// Run file-backed (persist::create_volume in `dir`) and exercise the
    /// kill-and-remount crash points.
    bool persist_enabled = false;
    std::string dir;
    bool sync_meta = false;
    /// Baseline transient error rates armed on every disk of every shard.
    double transient_read_rate = 0.01;
    double transient_write_rate = 0.005;
    chaos_event_plan events{};
    /// Enable span tracing on the volume hub and every shard hub, and
    /// root one trace per host op; the merged Chrome trace lands in
    /// chaos_report::trace_json.
    bool trace = false;
    /// Service-level objectives over the volume hub, evaluated every 256
    /// ops and once at the end over a 1 s window; a violation at *any*
    /// evaluation fails the run. Empty = no SLO gate.
    std::vector<obs::slo_objective> slo{};
    /// Optional event logger (the CLI passes a printf; tests leave null).
    std::function<void(const std::string&)> log{};
    /// Optional extra fault injection, called before every workload op
    /// with the op index (tests use it to force a divergence).
    std::function<void(std::size_t op, liberation::volume::volume&)> inject{};
};

/// A chaos_config whose health thresholds let baseline transients pass
/// and the storm trip, with two hot spares per shard and the event plan
/// scaled to `ops`.
[[nodiscard]] chaos_config default_chaos_config(std::uint64_t seed,
                                                std::uint32_t shards = 1,
                                                std::size_t ops = 6000);

/// Wall-clock seconds spent in each campaign phase, in execution order.
/// (Wall clock, not the arrays' virtual clock: phases are harness-side
/// work — the workload loop, scrubs, the verify sweep — not single I/Os.)
struct chaos_phase_times {
    double fill_s = 0.0;          ///< initial fill + shadow copy
    double workload_s = 0.0;      ///< the op loop, fault injection included
    double settle_s = 0.0;        ///< rebuild drain, write-hole recovery
    double settle_scrub_s = 0.0;  ///< the post-settle healing scrubs
    double final_verify_s = 0.0;  ///< shadow compare + per-stripe checksum sweep
    double final_scrub_s = 0.0;   ///< the parity-consistency scrubs
    /// Time inside mount_volume() across every kill-and-remount, intent
    /// replay included (0 unless chaos_config::persist_enabled).
    double mount_replay_s = 0.0;

    [[nodiscard]] double total_s() const noexcept {
        return fill_s + workload_s + settle_s + settle_scrub_s +
               final_verify_s + final_scrub_s + mount_replay_s;
    }
};

struct chaos_report {
    std::size_t ops = 0;
    std::size_t reads = 0;
    std::size_t writes = 0;
    // ---- correctness ----
    std::size_t mismatches = 0;     ///< reads that disagreed with the shadow
    std::size_t failed_reads = 0;   ///< read() returned false (data loss)
    std::size_t failed_writes = 0;  ///< write() returned false
    std::size_t final_torn = 0;     ///< stripes inconsistent at the end
    // The final sweep: stripes with unavailable columns, stripes beyond
    // two erasures, and columns failing their stored checksum.
    std::size_t final_degraded = 0;
    std::size_t final_unrecovered = 0;
    std::size_t final_checksum_bad = 0;
    std::size_t scrub_uncorrectable = 0;
    /// The first workload op whose read disagreed with the shadow copy or
    /// whose read/write the volume refused (checked after every op).
    std::optional<obs::divergence> first_bad_op;
    // ---- events that actually fired ----
    std::size_t injected_fail_stops = 0;
    std::size_t latent_errors_injected = 0;
    std::size_t corruptions_injected = 0;            ///< silent data flips
    std::size_t integrity_corruptions_injected = 0;  ///< checksum flips
    std::size_t power_losses = 0;       ///< in-place reboots (non-persist)
    std::size_t resynced_stripes = 0;   ///< write-hole recovery
    /// Corrupt columns the post-fail-stop scrub repaired on *degraded*
    /// stripes.
    std::size_t degraded_scrub_repairs = 0;
    /// Injected damage the settle scrubs healed (strips the workload
    /// never re-read, including parity strips).
    std::size_t settle_scrub_healed = 0;
    std::uint64_t health_trips = 0;
    std::uint64_t spares_promoted = 0;
    std::uint64_t rebuilds_completed = 0;
    // ---- fail-slow tolerance (shard C) ----
    std::size_t fail_slow_injected = 0;
    std::uint64_t deadline_exceeded = 0;
    std::uint64_t hedged_reads = 0;
    std::uint64_t hedge_wins = 0;
    std::uint64_t slow_trips = 0;
    std::uint64_t slow_recoveries = 0;
    // ---- kill-and-remount (persistent runs) ----
    std::size_t kills = 0;
    std::size_t remounts = 0;           ///< successful mount_volume() calls
    std::size_t mount_failures = 0;
    std::size_t mount_intent_replayed = 0;
    std::size_t stale_disks_kicked = 0;  ///< members demoted at mount
    std::size_t rebuilds_resumed = 0;
    std::size_t manifest_torn_slots = 0;  ///< across every remount
    /// Pre-kill silent corruption the post-remount scrub repaired.
    std::size_t remount_scrub_repairs = 0;
    volume_stats stats{};     ///< final roll-up, kills included
    raid::io_policy_stats io{};  ///< retry-policy counters, all shards
    chaos_phase_times phases{};
    /// Observability captures taken at the end of the run (the volume
    /// dies with it): the volume hub and every shard hub merged into one
    /// exposition (shard series labelled shard="s"), every latency
    /// histogram by name (shard ones as name{shard=s}), and — with
    /// chaos_config::trace — the merged Chrome trace.
    std::string metrics_text;
    std::vector<std::pair<std::string, obs::latency_histogram::snapshot_t>>
        histograms;
    std::string trace_json;
    /// SLO verdict (vacuously ok with no objectives) and the engine's
    /// final per-objective rendering.
    bool slo_ok = true;
    std::string slo_text;
    bool success = false;

    /// Zero corruption: no read disagreed with the shadow or was refused,
    /// every stripe is whole and consistent at the end, every stored
    /// checksum verifies, and no rebuild session stalled.
    [[nodiscard]] bool clean() const noexcept {
        return mismatches == 0 && failed_reads == 0 && failed_writes == 0 &&
               final_torn == 0 && final_degraded == 0 &&
               final_unrecovered == 0 && final_checksum_bad == 0 &&
               scrub_uncorrectable == 0 &&
               stats.shard_total.reads_unrecoverable == 0 &&
               stats.shard_total.rebuild_sessions_stalled == 0;
    }
};

/// Run one campaign. Deterministic: equal configs produce equal reports.
chaos_report run_chaos_campaign(const chaos_config& cfg);

}  // namespace liberation::volume
