// Chaos campaign CLI: run a seeded fault-injection torture test of the
// RAID-6 array and print the report. The same seed replays the same
// campaign bit-for-bit, so a failing run's seed is a complete bug report.
//
// Usage:
//   chaos_campaign [--shards N] [--seed N] [--ops N] [--spares N]
//                  [--stripes N] [--queue-depth N] [--read-rate R]
//                  [--write-rate R] [--persist-dir DIR] [--sync-meta]
//                  [--fail-slow] [--metrics-out FILE] [--trace-out FILE]
//                  [--slo-read-p99-us N] [--listen PORT]
//                  [--serve-requests N] [--postmortem-dir DIR]
//                  [--json] [--quiet]
//
// --shards N (N >= 2) runs the *volume* campaign instead: one logical
// address space striped across N raid6_array shards, with different
// shards concurrently fail-stopped, corrupted, and (with --fail-slow)
// slow-grayed while a shadow-checked workload spans all of them.
// --spares/--stripes/--queue-depth then configure each shard, and
// --persist-dir creates the volume (manifest + one superblocked directory
// per shard) in DIR and adds whole-process kill-and-remount crash points
// recovered through mount_volume()'s census. The verdict line becomes
// "VOLUME_CHAOS_VERDICT ..." (same pass/counter contract). --trace-out
// then writes the *merged* volume trace: pid 1 is the volume dispatcher,
// pid 1+s+1 is shard s (process_name shard="s"), with flow arrows joining
// each host op's volume spans to the shard work they caused.
//
// --slo-read-p99-us N arms the SLO engine: at most 1% of host reads in
// any 1s (virtual-clock) window may exceed N microseconds, and no read
// may ever complete unrecoverable (zero budget). The liberation_slo_*
// burn-rate gauges land in the metrics exposition, the per-objective
// status lines in the report, and a violation at any evaluation fails
// the verdict (exit 1).
//
// --listen PORT serves the campaign's captured /metrics, /healthz, and
// /trace over HTTP on 127.0.0.1:PORT after the run (PORT 0 = kernel
// assigned; the bound port is printed to stderr). --serve-requests N
// bounds the server to N connections (0 = until killed).
//
// --postmortem-dir DIR sets LIBERATION_POSTMORTEM_DIR for the run: any
// failed verdict, refused mount, or first unrecoverable read auto-writes
// a postmortem bundle (MANIFEST.json, metrics.prom, flight_recorder.log,
// trace.json, slo.txt) into a fresh DIR/<reason>-<seq> subdirectory.
//
// --fail-slow enables the fail-slow phase of the plan: hedged reads are
// switched on, a random online disk is armed with a seeded constant
// latency profile a third of the way in (correct bytes, pathological
// timing), and it recovers two thirds of the way in. The acceptance then
// also requires the array to have hedged past the straggler (>= 1 hedge
// win), quarantined it (>= 1 slow trip), and un-quarantined it after the
// profile cleared (>= 1 slow recovery).
//
// --persist-dir DIR runs the campaign file-backed (one disk-NN.img per
// member in DIR) and adds the kill-and-remount phases: the process state
// is dropped mid-write, mid-rebuild, and mid-scrub, the files reopened,
// the array remounted, and the run continues — the acceptance then also
// requires every remount to succeed, the intent log to replay, and the
// interrupted rebuild to resume from its persisted watermark. --sync-meta
// fdatasyncs every superblock persist (machine-crash ordering; slower).
//
// Exit status 0 iff the campaign met its acceptance criteria: zero shadow
// mismatches, zero unrecovered stripes, no read ever served unverified
// bytes (every surviving block passes its CRC32C at the end), no rebuild
// session stalled, and every planned fault event (health trip, fail-stop,
// power loss, silent corruption + self-heal, checksum-metadata damage,
// degraded-stripe scrub repair, spare promotion + rebuild) fired.
// The penultimate output line is machine-readable: "CHAOS_VERDICT pass=..."
// with every invariant counter, for CI log scrapers. --json replaces that
// line with "CHAOS_VERDICT {...}" — one JSON object carrying the same
// counters plus per-phase timings and every latency-histogram snapshot.
//
// Observability exports: --metrics-out writes the campaign array's full
// Prometheus text exposition (counters, gauges, latency summaries for the
// write/read/rebuild/scrub paths) to FILE; --trace-out enables the span
// tracer and writes Chrome trace_event JSON loadable in chrome://tracing.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "liberation/obs/serve.hpp"
#include "liberation/obs/slo.hpp"
#include "liberation/raid/chaos.hpp"
#include "liberation/volume/chaos.hpp"

namespace {

using liberation::raid::chaos_config;
using liberation::raid::chaos_report;
using liberation::volume::volume_chaos_config;
using liberation::volume::volume_chaos_report;

/// The --slo-read-p99-us objectives: a read-latency quantile (1% of the
/// window may exceed the threshold) plus a zero-budget unrecoverable-read
/// gate, against the hub the campaign actually runs (array or volume).
std::vector<liberation::obs::slo_objective> make_slo_objectives(
    std::uint64_t read_p99_us, bool volume_mode) {
    using liberation::obs::slo_objective;
    std::vector<slo_objective> v;
    slo_objective lat;
    lat.name = "read_p99_us";
    lat.kind = slo_objective::kind_t::latency_quantile;
    lat.source = volume_mode ? "volume_read_ns" : "raid_read_ns";
    lat.threshold_ns = read_p99_us * 1000;
    lat.budget = 0.01;
    v.push_back(std::move(lat));
    slo_objective err;
    err.name = "unrecoverable_rate";
    err.kind = slo_objective::kind_t::event_ratio;
    if (volume_mode) {
        err.source = "volume_failed_reads_total";
        err.denominator = "volume_reads_total";
    } else {
        err.source = "raid_reads_unrecoverable_total";
        err.denominator = "io_reads_total";
    }
    err.budget = 0.0;
    v.push_back(std::move(err));
    return v;
}

/// --listen: serve the campaign's captured exports over HTTP until
/// `max_requests` connections (0 = until killed). The bound port goes to
/// stderr so stdout stays byte-deterministic per seed.
bool serve_captured(int port, std::size_t max_requests, std::string metrics,
                    std::string trace, bool pass) {
    liberation::obs::scrape_handlers h;
    h.metrics = [m = std::move(metrics)] { return m; };
    h.healthz = [pass] { return std::string(pass ? "ok\n" : "failing\n"); };
    h.trace = [t = std::move(trace)] {
        return t.empty() ? std::string("[]") : t;
    };
    liberation::obs::scrape_server srv;
    if (!srv.listen(static_cast<std::uint16_t>(port), std::move(h))) {
        std::fprintf(stderr, "chaos_campaign: cannot listen on port %d\n",
                     port);
        return false;
    }
    std::fprintf(stderr,
                 "chaos_campaign: serving /metrics /healthz /trace on "
                 "127.0.0.1:%u\n",
                 srv.port());
    srv.serve(max_requests);
    return true;
}

bool write_file(const char* path, const std::string& text) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "chaos_campaign: cannot open %s for writing\n",
                     path);
        return false;
    }
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    std::fclose(f);
    return ok;
}

/// The --json verdict: one object with the machine-readable counters, the
/// per-phase wall-clock timings, and a snapshot of every latency
/// histogram. All keys are fixed identifiers, so no string escaping is
/// needed beyond printing them verbatim.
void print_verdict_json(const chaos_config& cfg, const chaos_report& rep) {
    std::printf("CHAOS_VERDICT {");
    std::printf("\"pass\":%s,", rep.success ? "true" : "false");
    std::printf("\"slo_ok\":%s,", rep.slo_ok ? "true" : "false");
    std::printf("\"seed\":%llu,", static_cast<unsigned long long>(cfg.seed));
    std::printf("\"ops\":%zu,", rep.ops);
    std::printf("\"mismatches\":%zu,", rep.mismatches);
    std::printf("\"failed_reads\":%zu,", rep.failed_reads);
    std::printf("\"failed_writes\":%zu,", rep.failed_writes);
    std::printf("\"torn\":%zu,", rep.final_torn);
    std::printf("\"degraded\":%zu,", rep.final_degraded);
    std::printf("\"unrecovered\":%zu,", rep.final_unrecovered);
    std::printf("\"uncorrectable\":%zu,", rep.scrub_uncorrectable);
    std::printf("\"checksum_bad\":%zu,", rep.final_checksum_bad);
    std::printf("\"stalled\":%llu,",
                static_cast<unsigned long long>(
                    rep.stats.rebuild_sessions_stalled));
    std::printf("\"unrecoverable_reads\":%llu,",
                static_cast<unsigned long long>(rep.stats.reads_unrecoverable));
    std::printf("\"self_healed\":%llu,",
                static_cast<unsigned long long>(rep.stats.reads_self_healed));
    std::printf("\"corruptions\":%zu,", rep.corruptions_injected);
    std::printf("\"kills\":%zu,", rep.kills);
    std::printf("\"remounts\":%zu,", rep.remounts);
    std::printf("\"mount_failures\":%zu,", rep.mount_failures);
    std::printf("\"intent_replayed\":%zu,", rep.mount_intent_replayed);
    std::printf("\"stale_disks_kicked\":%zu,", rep.stale_disks_kicked);
    std::printf("\"rebuilds_resumed\":%zu,", rep.rebuilds_resumed);
    std::printf("\"fail_slow_injected\":%zu,", rep.fail_slow_injected);
    std::printf("\"deadline_exceeded\":%llu,",
                static_cast<unsigned long long>(rep.deadline_exceeded));
    std::printf("\"hedged_reads\":%llu,",
                static_cast<unsigned long long>(rep.hedged_reads));
    std::printf("\"hedge_wins\":%llu,",
                static_cast<unsigned long long>(rep.hedge_wins));
    std::printf("\"slow_trips\":%llu,",
                static_cast<unsigned long long>(rep.slow_trips));
    std::printf("\"slow_recoveries\":%llu,",
                static_cast<unsigned long long>(rep.slow_recoveries));
    std::printf("\"phases\":{\"fill_s\":%.6f,\"workload_s\":%.6f,"
                "\"settle_s\":%.6f,\"settle_scrub_s\":%.6f,"
                "\"final_verify_s\":%.6f,\"final_scrub_s\":%.6f,"
                "\"mount_replay_s\":%.6f,\"total_s\":%.6f},",
                rep.phases.fill_s, rep.phases.workload_s, rep.phases.settle_s,
                rep.phases.settle_scrub_s, rep.phases.final_verify_s,
                rep.phases.final_scrub_s, rep.phases.mount_replay_s,
                rep.phases.total_s());
    std::printf("\"histograms\":{");
    bool first = true;
    for (const auto& [name, snap] : rep.histograms) {
        if (snap.count == 0) continue;  // unexercised path; skip the noise
        std::printf("%s\"%s\":{\"count\":%llu,\"sum_ns\":%llu,"
                    "\"max_ns\":%llu,\"p50_ns\":%llu,\"p95_ns\":%llu,"
                    "\"p99_ns\":%llu}",
                    first ? "" : ",", name.c_str(),
                    static_cast<unsigned long long>(snap.count),
                    static_cast<unsigned long long>(snap.sum),
                    static_cast<unsigned long long>(snap.max),
                    static_cast<unsigned long long>(snap.p50),
                    static_cast<unsigned long long>(snap.p95),
                    static_cast<unsigned long long>(snap.p99));
        first = false;
    }
    std::printf("}}\n");
}

void print_report(const chaos_config& cfg, const chaos_report& rep,
                  bool json) {
    std::printf("chaos campaign: seed=%llu ops=%zu (reads=%zu writes=%zu)\n",
                static_cast<unsigned long long>(cfg.seed), rep.ops, rep.reads,
                rep.writes);
    std::printf("  events: fail-stops=%zu health-trips=%llu power-losses=%zu "
                "latent-injected=%zu corruptions-injected=%zu "
                "checksum-flips=%zu\n",
                rep.injected_fail_stops,
                static_cast<unsigned long long>(rep.health_trips),
                rep.power_losses, rep.latent_errors_injected,
                rep.corruptions_injected, rep.integrity_corruptions_injected);
    std::printf("  recovery: spares-promoted=%llu rebuilds-completed=%llu "
                "stripes-resynced=%zu resilver-healed=%zu rebuild-stalls=%llu\n",
                static_cast<unsigned long long>(rep.spares_promoted),
                static_cast<unsigned long long>(rep.rebuilds_completed),
                rep.resynced_stripes, rep.resilver_healed,
                static_cast<unsigned long long>(
                    rep.stats.rebuild_sessions_stalled));
    std::printf("  io policy: retries=%llu masked=%llu exhausted=%llu "
                "backoff-us=%llu\n",
                static_cast<unsigned long long>(rep.io.retries),
                static_cast<unsigned long long>(rep.io.transient_masked),
                static_cast<unsigned long long>(rep.io.retries_exhausted),
                static_cast<unsigned long long>(rep.io.backoff_us));
    std::printf("  fail-slow: injected=%zu deadline-exceeded=%llu hedged=%llu "
                "hedge-wins=%llu slow-trips=%llu slow-recoveries=%llu\n",
                rep.fail_slow_injected,
                static_cast<unsigned long long>(rep.deadline_exceeded),
                static_cast<unsigned long long>(rep.hedged_reads),
                static_cast<unsigned long long>(rep.hedge_wins),
                static_cast<unsigned long long>(rep.slow_trips),
                static_cast<unsigned long long>(rep.slow_recoveries));
    std::printf("  array: degraded-stripe-reads=%llu degraded-element-reads=%llu "
                "media-errors-recovered=%llu\n",
                static_cast<unsigned long long>(rep.stats.degraded_stripe_reads),
                static_cast<unsigned long long>(rep.stats.degraded_element_reads),
                static_cast<unsigned long long>(rep.stats.media_errors_recovered));
    std::printf("  integrity: checksum-mismatches=%llu self-healed-reads=%llu "
                "metadata-repaired=%llu degraded-scrub-repairs=%zu "
                "settle-scrub-healed=%zu\n",
                static_cast<unsigned long long>(rep.stats.checksum_mismatches),
                static_cast<unsigned long long>(rep.stats.reads_self_healed),
                static_cast<unsigned long long>(
                    rep.stats.checksum_metadata_repaired),
                rep.degraded_scrub_repairs, rep.settle_scrub_healed);
    std::printf("  persistence: kills=%zu remounts=%zu mount-failures=%zu "
                "intent-replayed=%zu stale-kicked=%zu rebuilds-resumed=%zu "
                "remount-scrub-repairs=%zu\n",
                rep.kills, rep.remounts, rep.mount_failures,
                rep.mount_intent_replayed, rep.stale_disks_kicked,
                rep.rebuilds_resumed, rep.remount_scrub_repairs);
    std::printf("  verdict: mismatches=%zu failed-reads=%zu failed-writes=%zu "
                "torn=%zu degraded=%zu unrecovered=%zu uncorrectable=%zu "
                "checksum-bad=%zu unrecoverable-reads=%llu\n",
                rep.mismatches, rep.failed_reads, rep.failed_writes,
                rep.final_torn, rep.final_degraded, rep.final_unrecovered,
                rep.scrub_uncorrectable, rep.final_checksum_bad,
                static_cast<unsigned long long>(rep.stats.reads_unrecoverable));
    // Wall-clock timings go to stderr: stdout must stay byte-identical
    // for a fixed seed (the determinism probe / CI scrapers cmp it).
    std::fprintf(stderr,
                 "  phases: fill=%.3fs workload=%.3fs settle=%.3fs "
                 "settle-scrub=%.3fs verify=%.3fs final-scrub=%.3fs "
                 "mount-replay=%.3fs total=%.3fs\n",
                 rep.phases.fill_s, rep.phases.workload_s, rep.phases.settle_s,
                 rep.phases.settle_scrub_s, rep.phases.final_verify_s,
                 rep.phases.final_scrub_s, rep.phases.mount_replay_s,
                 rep.phases.total_s());
    // Per-objective SLO status (only when objectives were configured);
    // deterministic on the virtual clock.
    if (!rep.slo_text.empty()) std::printf("%s", rep.slo_text.c_str());
    if (json) {
        print_verdict_json(cfg, rep);
        std::printf("%s\n", rep.success ? "PASS" : "FAIL");
        return;
    }
    // One machine-readable line for CI log scrapers, then the human one.
    std::printf("CHAOS_VERDICT pass=%d seed=%llu ops=%zu mismatches=%zu "
                "failed_reads=%zu failed_writes=%zu torn=%zu degraded=%zu "
                "unrecovered=%zu uncorrectable=%zu checksum_bad=%zu "
                "stalled=%llu unrecoverable_reads=%llu self_healed=%llu "
                "corruptions=%zu kills=%zu remounts=%zu mount_failures=%zu "
                "intent_replayed=%zu stale_disks_kicked=%zu "
                "rebuilds_resumed=%zu fail_slow=%zu deadline_exceeded=%llu "
                "hedged=%llu hedge_wins=%llu slow_trips=%llu "
                "slow_recoveries=%llu slo_ok=%d\n",
                rep.success ? 1 : 0,
                static_cast<unsigned long long>(cfg.seed), rep.ops,
                rep.mismatches, rep.failed_reads, rep.failed_writes,
                rep.final_torn, rep.final_degraded, rep.final_unrecovered,
                rep.scrub_uncorrectable, rep.final_checksum_bad,
                static_cast<unsigned long long>(
                    rep.stats.rebuild_sessions_stalled),
                static_cast<unsigned long long>(rep.stats.reads_unrecoverable),
                static_cast<unsigned long long>(rep.stats.reads_self_healed),
                rep.corruptions_injected, rep.kills, rep.remounts,
                rep.mount_failures, rep.mount_intent_replayed,
                rep.stale_disks_kicked, rep.rebuilds_resumed,
                rep.fail_slow_injected,
                static_cast<unsigned long long>(rep.deadline_exceeded),
                static_cast<unsigned long long>(rep.hedged_reads),
                static_cast<unsigned long long>(rep.hedge_wins),
                static_cast<unsigned long long>(rep.slow_trips),
                static_cast<unsigned long long>(rep.slow_recoveries),
                rep.slo_ok ? 1 : 0);
    std::printf("%s\n", rep.success ? "PASS" : "FAIL");
}

/// The --json verdict of the volume campaign: the same counter contract
/// as print_verdict_json, per-shard totals rolled up.
void print_volume_verdict_json(const volume_chaos_config& cfg,
                               const volume_chaos_report& rep) {
    std::printf("VOLUME_CHAOS_VERDICT {");
    std::printf("\"pass\":%s,", rep.success ? "true" : "false");
    std::printf("\"slo_ok\":%s,", rep.slo_ok ? "true" : "false");
    std::printf("\"seed\":%llu,", static_cast<unsigned long long>(cfg.seed));
    std::printf("\"shards\":%u,", cfg.volume.shards);
    std::printf("\"ops\":%zu,", rep.ops);
    std::printf("\"mismatches\":%zu,", rep.mismatches);
    std::printf("\"failed_reads\":%zu,", rep.failed_reads);
    std::printf("\"failed_writes\":%zu,", rep.failed_writes);
    std::printf("\"torn\":%zu,", rep.final_torn);
    std::printf("\"uncorrectable\":%zu,", rep.scrub_uncorrectable);
    std::printf("\"stalled\":%llu,",
                static_cast<unsigned long long>(
                    rep.stats.shard_total.rebuild_sessions_stalled));
    std::printf("\"unrecoverable_reads\":%llu,",
                static_cast<unsigned long long>(
                    rep.stats.shard_total.reads_unrecoverable));
    std::printf("\"self_healed\":%llu,",
                static_cast<unsigned long long>(
                    rep.stats.shard_total.reads_self_healed));
    std::printf("\"fail_stops\":%zu,", rep.injected_fail_stops);
    std::printf("\"corruptions\":%zu,", rep.corruptions_injected);
    std::printf("\"power_losses\":%zu,", rep.power_losses);
    std::printf("\"spares_promoted\":%llu,",
                static_cast<unsigned long long>(rep.spares_promoted));
    std::printf("\"rebuilds_completed\":%llu,",
                static_cast<unsigned long long>(rep.rebuilds_completed));
    std::printf("\"kills\":%zu,", rep.kills);
    std::printf("\"remounts\":%zu,", rep.remounts);
    std::printf("\"mount_failures\":%zu,", rep.mount_failures);
    std::printf("\"intent_replayed\":%zu,", rep.mount_intent_replayed);
    std::printf("\"rebuilds_resumed\":%zu,", rep.rebuilds_resumed);
    std::printf("\"manifest_torn_slots\":%zu,", rep.manifest_torn_slots);
    std::printf("\"fail_slow_injected\":%zu,", rep.fail_slow_injected);
    std::printf("\"deadline_exceeded\":%llu,",
                static_cast<unsigned long long>(rep.deadline_exceeded));
    std::printf("\"hedged_reads\":%llu,",
                static_cast<unsigned long long>(rep.hedged_reads));
    std::printf("\"hedge_wins\":%llu,",
                static_cast<unsigned long long>(rep.hedge_wins));
    std::printf("\"slow_trips\":%llu,",
                static_cast<unsigned long long>(rep.slow_trips));
    std::printf("\"slow_recoveries\":%llu,",
                static_cast<unsigned long long>(rep.slow_recoveries));
    std::printf("\"multi_shard_ops\":%zu,", rep.stats.multi_shard_ops);
    std::printf("\"chunks_routed\":%zu,", rep.stats.chunks_routed);
    std::printf("\"phases\":{\"fill_s\":%.6f,\"workload_s\":%.6f,"
                "\"settle_s\":%.6f,\"settle_scrub_s\":%.6f,"
                "\"final_verify_s\":%.6f,\"final_scrub_s\":%.6f,"
                "\"mount_replay_s\":%.6f,\"total_s\":%.6f}}\n",
                rep.phases.fill_s, rep.phases.workload_s, rep.phases.settle_s,
                rep.phases.settle_scrub_s, rep.phases.final_verify_s,
                rep.phases.final_scrub_s, rep.phases.mount_replay_s,
                rep.phases.total_s());
}

void print_volume_report(const volume_chaos_config& cfg,
                         const volume_chaos_report& rep, bool json) {
    std::printf("volume chaos campaign: seed=%llu shards=%u ops=%zu "
                "(reads=%zu writes=%zu)\n",
                static_cast<unsigned long long>(cfg.seed), cfg.volume.shards,
                rep.ops, rep.reads, rep.writes);
    std::printf("  routing: chunks-routed=%zu multi-shard-ops=%zu\n",
                rep.stats.chunks_routed, rep.stats.multi_shard_ops);
    std::printf("  events: fail-stops=%zu corruptions-injected=%zu "
                "power-losses=%zu fail-slow-injected=%zu\n",
                rep.injected_fail_stops, rep.corruptions_injected,
                rep.power_losses, rep.fail_slow_injected);
    std::printf("  recovery: spares-promoted=%llu rebuilds-completed=%llu "
                "stripes-resynced=%zu resilver-healed=%zu "
                "settle-scrub-healed=%zu rebuild-stalls=%llu\n",
                static_cast<unsigned long long>(rep.spares_promoted),
                static_cast<unsigned long long>(rep.rebuilds_completed),
                rep.resynced_stripes, rep.resilver_healed,
                rep.settle_scrub_healed,
                static_cast<unsigned long long>(
                    rep.stats.shard_total.rebuild_sessions_stalled));
    std::printf("  fail-slow: deadline-exceeded=%llu hedged=%llu "
                "hedge-wins=%llu slow-trips=%llu slow-recoveries=%llu\n",
                static_cast<unsigned long long>(rep.deadline_exceeded),
                static_cast<unsigned long long>(rep.hedged_reads),
                static_cast<unsigned long long>(rep.hedge_wins),
                static_cast<unsigned long long>(rep.slow_trips),
                static_cast<unsigned long long>(rep.slow_recoveries));
    std::printf("  persistence: kills=%zu remounts=%zu mount-failures=%zu "
                "intent-replayed=%zu rebuilds-resumed=%zu "
                "manifest-torn-slots=%zu\n",
                rep.kills, rep.remounts, rep.mount_failures,
                rep.mount_intent_replayed, rep.rebuilds_resumed,
                rep.manifest_torn_slots);
    std::printf("  verdict: mismatches=%zu failed-reads=%zu failed-writes=%zu "
                "torn=%zu uncorrectable=%zu unrecoverable-reads=%llu "
                "self-healed=%llu\n",
                rep.mismatches, rep.failed_reads, rep.failed_writes,
                rep.final_torn, rep.scrub_uncorrectable,
                static_cast<unsigned long long>(
                    rep.stats.shard_total.reads_unrecoverable),
                static_cast<unsigned long long>(
                    rep.stats.shard_total.reads_self_healed));
    // Wall-clock timings go to stderr: stdout must stay byte-identical
    // for a fixed seed (the determinism probe / CI scrapers cmp it).
    std::fprintf(stderr,
                 "  phases: fill=%.3fs workload=%.3fs settle=%.3fs "
                 "settle-scrub=%.3fs verify=%.3fs final-scrub=%.3fs "
                 "mount-replay=%.3fs total=%.3fs\n",
                 rep.phases.fill_s, rep.phases.workload_s, rep.phases.settle_s,
                 rep.phases.settle_scrub_s, rep.phases.final_verify_s,
                 rep.phases.final_scrub_s, rep.phases.mount_replay_s,
                 rep.phases.total_s());
    if (!rep.slo_text.empty()) std::printf("%s", rep.slo_text.c_str());
    if (json) {
        print_volume_verdict_json(cfg, rep);
        std::printf("%s\n", rep.success ? "PASS" : "FAIL");
        return;
    }
    std::printf("VOLUME_CHAOS_VERDICT pass=%d seed=%llu shards=%u ops=%zu "
                "mismatches=%zu failed_reads=%zu failed_writes=%zu torn=%zu "
                "uncorrectable=%zu stalled=%llu unrecoverable_reads=%llu "
                "self_healed=%llu fail_stops=%zu corruptions=%zu "
                "power_losses=%zu spares_promoted=%llu "
                "rebuilds_completed=%llu kills=%zu remounts=%zu "
                "mount_failures=%zu intent_replayed=%zu rebuilds_resumed=%zu "
                "manifest_torn_slots=%zu fail_slow=%zu deadline_exceeded=%llu "
                "hedged=%llu hedge_wins=%llu slow_trips=%llu "
                "slow_recoveries=%llu slo_ok=%d\n",
                rep.success ? 1 : 0,
                static_cast<unsigned long long>(cfg.seed), cfg.volume.shards,
                rep.ops, rep.mismatches, rep.failed_reads, rep.failed_writes,
                rep.final_torn, rep.scrub_uncorrectable,
                static_cast<unsigned long long>(
                    rep.stats.shard_total.rebuild_sessions_stalled),
                static_cast<unsigned long long>(
                    rep.stats.shard_total.reads_unrecoverable),
                static_cast<unsigned long long>(
                    rep.stats.shard_total.reads_self_healed),
                rep.injected_fail_stops, rep.corruptions_injected,
                rep.power_losses,
                static_cast<unsigned long long>(rep.spares_promoted),
                static_cast<unsigned long long>(rep.rebuilds_completed),
                rep.kills, rep.remounts, rep.mount_failures,
                rep.mount_intent_replayed, rep.rebuilds_resumed,
                rep.manifest_torn_slots, rep.fail_slow_injected,
                static_cast<unsigned long long>(rep.deadline_exceeded),
                static_cast<unsigned long long>(rep.hedged_reads),
                static_cast<unsigned long long>(rep.hedge_wins),
                static_cast<unsigned long long>(rep.slow_trips),
                static_cast<unsigned long long>(rep.slow_recoveries),
                rep.slo_ok ? 1 : 0);
    std::printf("%s\n", rep.success ? "PASS" : "FAIL");
}

[[noreturn]] void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--shards N] [--seed N] [--ops N] [--spares N]\n"
                 "          [--stripes N] [--queue-depth N] [--read-rate R]\n"
                 "          [--write-rate R] [--persist-dir DIR] [--sync-meta]\n"
                 "          [--fail-slow] [--metrics-out FILE]\n"
                 "          [--trace-out FILE] [--slo-read-p99-us N]\n"
                 "          [--listen PORT] [--serve-requests N]\n"
                 "          [--postmortem-dir DIR] [--json] [--quiet]\n",
                 argv0);
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
    std::uint64_t seed = 42;
    std::size_t ops = 10'000;
    std::uint32_t shards = 1;
    bool quiet = false;
    bool json = false;
    bool fail_slow = false;
    const char* metrics_out = nullptr;
    const char* trace_out = nullptr;
    const char* persist_dir = nullptr;
    bool sync_meta = false;
    bool slo_enabled = false;
    std::uint64_t slo_read_p99_us = 0;
    int listen_port = -1;
    std::size_t serve_requests = 0;
    chaos_config cfg = liberation::raid::default_chaos_config(seed, ops);

    for (int i = 1; i < argc; ++i) {
        const auto arg = [&](const char* name) -> const char* {
            if (std::strcmp(argv[i], name) != 0) return nullptr;
            if (i + 1 >= argc) usage(argv[0]);
            return argv[++i];
        };
        if (const char* v = arg("--seed")) {
            seed = std::strtoull(v, nullptr, 0);
        } else if (const char* v = arg("--shards")) {
            shards = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 0));
            if (shards == 0) usage(argv[0]);
        } else if (const char* v = arg("--ops")) {
            ops = std::strtoull(v, nullptr, 0);
        } else if (const char* v = arg("--spares")) {
            cfg.array.hot_spares = static_cast<std::uint32_t>(
                std::strtoul(v, nullptr, 0));
        } else if (const char* v = arg("--stripes")) {
            cfg.array.stripes = std::strtoull(v, nullptr, 0);
        } else if (const char* v = arg("--queue-depth")) {
            // Submission-queue depth of the array's aio engine, which is
            // also the stripe window of full-stripe writes, rebuild reads
            // and scrub prefetch: 1 is a window of one stripe, > 1
            // pipelines that many under the same fault campaign.
            cfg.array.io_queue_depth = std::strtoull(v, nullptr, 0);
        } else if (const char* v = arg("--read-rate")) {
            cfg.transient_read_rate = std::strtod(v, nullptr);
        } else if (const char* v = arg("--write-rate")) {
            cfg.transient_write_rate = std::strtod(v, nullptr);
        } else if (const char* v = arg("--persist-dir")) {
            persist_dir = v;
            cfg.persist.enabled = true;
            cfg.persist.dir = v;
        } else if (std::strcmp(argv[i], "--sync-meta") == 0) {
            sync_meta = true;
            cfg.persist.sync_meta = true;
        } else if (std::strcmp(argv[i], "--fail-slow") == 0) {
            fail_slow = true;
        } else if (const char* v = arg("--metrics-out")) {
            metrics_out = v;
        } else if (const char* v = arg("--trace-out")) {
            trace_out = v;
            cfg.trace = true;
        } else if (const char* v = arg("--slo-read-p99-us")) {
            slo_enabled = true;
            slo_read_p99_us = std::strtoull(v, nullptr, 0);
        } else if (const char* v = arg("--listen")) {
            listen_port = static_cast<int>(std::strtol(v, nullptr, 0));
            if (listen_port < 0 || listen_port > 65535) usage(argv[0]);
        } else if (const char* v = arg("--serve-requests")) {
            serve_requests = std::strtoull(v, nullptr, 0);
        } else if (const char* v = arg("--postmortem-dir")) {
            // The library's automatic dump points are env-gated; the flag
            // is the CLI spelling of that contract.
            setenv("LIBERATION_POSTMORTEM_DIR", v, 1);
        } else if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else {
            usage(argv[0]);
        }
    }
    if (shards >= 2) {
        // Multi-shard route: the volume campaign. Per-shard knobs reuse
        // the single-array flags (each shard gets the same geometry).
        volume_chaos_config vcfg =
            liberation::volume::default_volume_chaos_config(seed, shards,
                                                            ops);
        vcfg.volume.shard.hot_spares = cfg.array.hot_spares;
        vcfg.volume.shard.stripes = cfg.array.stripes;
        vcfg.volume.shard.io_queue_depth = cfg.array.io_queue_depth;
        vcfg.transient_read_rate = cfg.transient_read_rate;
        vcfg.transient_write_rate = cfg.transient_write_rate;
        vcfg.trace = trace_out != nullptr;
        if (slo_enabled) {
            vcfg.slo = make_slo_objectives(slo_read_p99_us,
                                           /*volume_mode=*/true);
        }
        if (fail_slow) {
            vcfg.volume.shard.latency.hedged_reads = true;
        } else {
            // Without hedging there is nothing to observe the straggler
            // with; don't bother arming it.
            vcfg.events.fail_slow_at_op = ops;
            vcfg.events.fail_slow_recover_at_op = ops;
        }
        if (persist_dir != nullptr) {
            vcfg.persist_enabled = true;
            vcfg.dir = persist_dir;
            vcfg.sync_meta = sync_meta;
        }
        if (!quiet) {
            vcfg.log = [](const std::string& msg) {
                std::printf("  [event] %s\n", msg.c_str());
            };
        }
        const volume_chaos_report rep =
            liberation::volume::run_volume_chaos_campaign(vcfg);
        print_volume_report(vcfg, rep, json);
        bool exports_ok = true;
        if (metrics_out != nullptr) {
            exports_ok = write_file(metrics_out, rep.metrics_text);
        }
        if (trace_out != nullptr) {
            exports_ok =
                write_file(trace_out, rep.trace_json) && exports_ok;
        }
        if (listen_port >= 0) {
            exports_ok = serve_captured(listen_port, serve_requests,
                                        rep.metrics_text, rep.trace_json,
                                        rep.success) &&
                         exports_ok;
        }
        return rep.success && exports_ok ? 0 : 1;
    }

    cfg.seed = seed;
    cfg.ops = ops;
    // Default event plan scales with the op count so short runs still
    // exercise every fault class.
    cfg.events.fail_stop_at_op = ops / 5;
    cfg.events.health_storm_at_op = ops / 2;
    cfg.events.power_loss_at_op = (ops * 4) / 5;
    if (fail_slow) {
        // The straggler arms in the quiet stretch after the fail-stop's
        // rebuild drains and recovers before the power loss, so hedging,
        // quarantine, and un-quarantine all run within one campaign.
        cfg.array.latency.hedged_reads = true;
        cfg.events.fail_slow_at_op = ops / 3;
        cfg.events.fail_slow_recover_at_op = (ops * 2) / 3;
    }
    if (cfg.persist.enabled) {
        // Crash points interleave with the fault plan: the mid-rebuild
        // kill arms right after the fail-stop (while its spare's rebuild
        // is in flight), the mid-write kill in the quiet stretch between
        // the storm and the power loss, the mid-scrub kill near the end.
        cfg.persist.kill_mid_rebuild_at_op = ops / 5 + 1;
        cfg.persist.kill_mid_write_at_op = (ops * 7) / 10;
        cfg.persist.kill_mid_scrub_at_op = (ops * 9) / 10;
    }
    if (slo_enabled) {
        cfg.slo = make_slo_objectives(slo_read_p99_us, /*volume_mode=*/false);
    }
    if (!quiet) {
        cfg.log = [](const std::string& msg) {
            std::printf("  [event] %s\n", msg.c_str());
        };
    }

    const chaos_report rep = liberation::raid::run_chaos_campaign(cfg);
    print_report(cfg, rep, json);
    bool exports_ok = true;
    if (metrics_out != nullptr) {
        exports_ok = write_file(metrics_out, rep.metrics_text) && exports_ok;
    }
    if (trace_out != nullptr) {
        exports_ok = write_file(trace_out, rep.trace_json) && exports_ok;
    }
    if (listen_port >= 0) {
        exports_ok = serve_captured(listen_port, serve_requests,
                                    rep.metrics_text, rep.trace_json,
                                    rep.success) &&
                     exports_ok;
    }
    return rep.success && exports_ok ? 0 : 1;
}
