// Chaos campaign CLI: run a seeded fault-injection torture test of a
// RAID-6 volume and print the report. The same seed replays the same
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
// --shards N (N >= 1, default 1) stripes one logical address space across
// N raid6_array shards; a single array is the 1-shard volume. The fault
// plan lands on different shards concurrently: a fail-stop on shard A, a
// transient-error storm that trips a disk of shard B, a gray disk on
// shard C (with --fail-slow), a power cut on shard B, and silent
// corruption, latent sector errors and checksum-metadata flips rotating
// across all shards, while a shadow-checked workload spans all of them.
// At one shard A, B and C are the same shard, and the fail-stop and the
// storm trip use its two spares. --spares/--stripes/--queue-depth
// configure each shard.
//
// --slo-read-p99-us N arms the SLO engine on the volume hub: at most 1%
// of host reads in any 1s window may exceed N microseconds, and no host
// read may ever be refused (zero budget). The liberation_slo_* burn-rate
// gauges land in the metrics exposition, the per-objective status lines
// in the report, and a violation at any evaluation fails the verdict
// (exit 1).
//
// --listen PORT serves the campaign's captured /metrics, /healthz, and
// /trace over HTTP on 127.0.0.1:PORT after the run (PORT 0 = kernel
// assigned; the bound port is printed to stderr). --serve-requests N
// bounds the server to N connections (0 = until killed).
//
// --postmortem-dir DIR sets LIBERATION_POSTMORTEM_DIR for the run: any
// failed verdict, refused mount, or first unrecoverable read auto-writes
// a postmortem bundle (MANIFEST.json, metrics.prom, flight_recorder.log,
// trace.json, slo.txt) into a fresh DIR/<reason>-<seq> subdirectory. A
// failed verdict's MANIFEST.json names the first divergent op.
//
// --fail-slow enables the fail-slow phase of the plan: hedged reads are
// switched on, a random online disk of shard C is armed with a seeded
// constant latency profile a third of the way in at one shard, later
// with more shards (correct bytes, pathological timing), and it recovers
// 70% of the way in. The acceptance
// then also requires the shard to have hedged past the straggler (>= 1
// hedge win), quarantined it (>= 1 slow trip), and un-quarantined it
// after the profile cleared (>= 1 slow recovery).
//
// --persist-dir DIR runs the campaign file-backed (volume.manifest plus
// one shard-NN/ store of disk-NN.img members per shard in DIR) and adds
// the kill-and-remount phases: the process state is dropped mid-rebuild,
// mid-write, and mid-scrub, the volume remounted through mount_volume(),
// and the run continues — the acceptance then also requires every
// remount to succeed, the intent log to replay, the interrupted rebuild
// to resume from its persisted watermark, and the post-remount scrub to
// repair the unhealed corruption. --sync-meta fdatasyncs every superblock
// persist (machine-crash ordering; slower).
//
// Exit status 0 iff the campaign met its acceptance criteria: zero shadow
// mismatches, zero unrecovered stripes, no read ever served unverified
// bytes (every surviving block passes its CRC32C at the end), no rebuild
// session stalled, and every planned fault event (fail-stop +
// degraded-stripe scrub repair, health trip, power loss, silent
// corruption + self-heal, checksum-metadata damage, spare promotion +
// rebuild) fired. The penultimate output line is machine-readable:
// "CHAOS_VERDICT pass=..." with every invariant counter, for CI log
// scrapers; first_bad_op= names the first workload op whose read or
// write diverged from the shadow copy ("none" on a clean run). --json
// replaces that line with "CHAOS_VERDICT {...}" — one JSON object
// carrying the same counters — and writes "CHAOS_TIMINGS {...}", the
// per-phase timings and every latency-histogram snapshot, to stderr:
// they are wall-clock, and stdout stays byte-identical per seed.
//
// Observability exports: --metrics-out writes one Prometheus text
// exposition of the volume hub and every shard hub (shard series labelled
// shard="s") to FILE; --trace-out enables the span tracer, roots one
// trace per host op, and writes the merged Chrome trace_event JSON: pid 1
// is the volume dispatcher, pid 1+s+1 is shard s (process_name
// shard="s"), with flow arrows joining each host op's volume spans to the
// shard work they caused.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "liberation/obs/serve.hpp"
#include "liberation/obs/slo.hpp"
#include "liberation/volume/chaos.hpp"

namespace {

using liberation::volume::chaos_config;
using liberation::volume::chaos_report;

/// The --slo-read-p99-us objectives over the volume hub: a read-latency
/// quantile (1% of the window may exceed the threshold) plus a
/// zero-budget refused-read gate.
std::vector<liberation::obs::slo_objective> make_slo_objectives(
    std::uint64_t read_p99_us) {
    using liberation::obs::slo_objective;
    std::vector<slo_objective> v;
    slo_objective lat;
    lat.name = "read_p99_us";
    lat.kind = slo_objective::kind_t::latency_quantile;
    lat.source = "volume_read_ns";
    lat.threshold_ns = read_p99_us * 1000;
    lat.budget = 0.01;
    v.push_back(std::move(lat));
    slo_objective err;
    err.name = "unrecoverable_rate";
    err.kind = slo_objective::kind_t::event_ratio;
    err.source = "volume_failed_reads_total";
    err.denominator = "volume_reads_total";
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

using ull = unsigned long long;

/// The verdict's counters, in schema order. The text line prints them as
/// name=value, the --json object as "name":value; pass, first_bad_op and
/// slo_ok are rendered separately around them.
std::vector<std::pair<const char*, ull>> verdict_fields(
    const chaos_config& cfg, const chaos_report& rep) {
    const liberation::raid::array_stats& t = rep.stats.shard_total;
    return {
        {"seed", cfg.seed},
        {"shards", cfg.volume.shards},
        {"ops", rep.ops},
        {"mismatches", rep.mismatches},
        {"failed_reads", rep.failed_reads},
        {"failed_writes", rep.failed_writes},
        {"torn", rep.final_torn},
        {"degraded", rep.final_degraded},
        {"unrecovered", rep.final_unrecovered},
        {"uncorrectable", rep.scrub_uncorrectable},
        {"checksum_bad", rep.final_checksum_bad},
        {"stalled", t.rebuild_sessions_stalled},
        {"unrecoverable_reads", t.reads_unrecoverable},
        {"self_healed", t.reads_self_healed},
        {"fail_stops", rep.injected_fail_stops},
        {"corruptions", rep.corruptions_injected},
        {"power_losses", rep.power_losses},
        {"spares_promoted", rep.spares_promoted},
        {"rebuilds_completed", rep.rebuilds_completed},
        {"kills", rep.kills},
        {"remounts", rep.remounts},
        {"mount_failures", rep.mount_failures},
        {"intent_replayed", rep.mount_intent_replayed},
        {"stale_disks_kicked", rep.stale_disks_kicked},
        {"rebuilds_resumed", rep.rebuilds_resumed},
        {"manifest_torn_slots", rep.manifest_torn_slots},
        {"fail_slow", rep.fail_slow_injected},
        {"deadline_exceeded", rep.deadline_exceeded},
        {"hedged", rep.hedged_reads},
        {"hedge_wins", rep.hedge_wins},
        {"slow_trips", rep.slow_trips},
        {"slow_recoveries", rep.slow_recoveries},
        {"multi_shard_ops", rep.stats.multi_shard_ops},
        {"chunks_routed", rep.stats.chunks_routed},
    };
}

/// The --json verdict on stdout: the verdict counters, byte-identical
/// per seed. All keys are fixed identifiers, so no string escaping is
/// needed.
void print_verdict_json(const chaos_config& cfg, const chaos_report& rep) {
    std::printf("CHAOS_VERDICT {\"pass\":%s", rep.success ? "true" : "false");
    for (const auto& [name, v] : verdict_fields(cfg, rep)) {
        std::printf(",\"%s\":%llu", name, v);
    }
    if (rep.first_bad_op) {
        std::printf(",\"first_bad_op\":{\"op\":%llu,\"addr\":%llu,"
                    "\"len\":%llu,\"trace_id\":%llu}",
                    static_cast<ull>(rep.first_bad_op->op),
                    static_cast<ull>(rep.first_bad_op->addr),
                    static_cast<ull>(rep.first_bad_op->len),
                    static_cast<ull>(rep.first_bad_op->trace_id));
    } else {
        std::printf(",\"first_bad_op\":null");
    }
    std::printf(",\"slo_ok\":%s}\n", rep.slo_ok ? "true" : "false");
}

/// The --json timings on stderr: the per-phase wall-clock seconds and a
/// snapshot of every latency histogram (wall-clock too, so they would
/// break stdout's per-seed byte identity).
void print_timings_json(const chaos_report& rep) {
    std::fprintf(stderr,
                 "CHAOS_TIMINGS {\"phases\":{\"fill_s\":%.6f,"
                 "\"workload_s\":%.6f,\"settle_s\":%.6f,"
                 "\"settle_scrub_s\":%.6f,\"final_verify_s\":%.6f,"
                 "\"final_scrub_s\":%.6f,\"mount_replay_s\":%.6f,"
                 "\"total_s\":%.6f},",
                 rep.phases.fill_s, rep.phases.workload_s, rep.phases.settle_s,
                 rep.phases.settle_scrub_s, rep.phases.final_verify_s,
                 rep.phases.final_scrub_s, rep.phases.mount_replay_s,
                 rep.phases.total_s());
    std::fprintf(stderr, "\"histograms\":{");
    bool first = true;
    for (const auto& [name, snap] : rep.histograms) {
        if (snap.count == 0) continue;  // unexercised path; skip the noise
        std::fprintf(stderr,
                     "%s\"%s\":{\"count\":%llu,\"sum_ns\":%llu,"
                     "\"max_ns\":%llu,\"p50_ns\":%llu,\"p95_ns\":%llu,"
                     "\"p99_ns\":%llu}",
                     first ? "" : ",", name.c_str(),
                     static_cast<ull>(snap.count), static_cast<ull>(snap.sum),
                     static_cast<ull>(snap.max), static_cast<ull>(snap.p50),
                     static_cast<ull>(snap.p95), static_cast<ull>(snap.p99));
        first = false;
    }
    std::fprintf(stderr, "}}\n");
}

void print_report(const chaos_config& cfg, const chaos_report& rep,
                  bool json) {
    const liberation::raid::array_stats& t = rep.stats.shard_total;
    std::printf("chaos campaign: seed=%llu shards=%u ops=%zu "
                "(reads=%zu writes=%zu)\n",
                static_cast<ull>(cfg.seed), cfg.volume.shards, rep.ops,
                rep.reads, rep.writes);
    std::printf("  routing: chunks-routed=%llu multi-shard-ops=%llu\n",
                static_cast<ull>(rep.stats.chunks_routed),
                static_cast<ull>(rep.stats.multi_shard_ops));
    std::printf("  events: fail-stops=%zu health-trips=%llu power-losses=%zu "
                "latent-injected=%zu corruptions-injected=%zu "
                "checksum-flips=%zu\n",
                rep.injected_fail_stops, static_cast<ull>(rep.health_trips),
                rep.power_losses, rep.latent_errors_injected,
                rep.corruptions_injected, rep.integrity_corruptions_injected);
    std::printf("  recovery: spares-promoted=%llu rebuilds-completed=%llu "
                "stripes-resynced=%zu rebuild-stalls=%llu\n",
                static_cast<ull>(rep.spares_promoted),
                static_cast<ull>(rep.rebuilds_completed),
                rep.resynced_stripes,
                static_cast<ull>(t.rebuild_sessions_stalled));
    std::printf("  io policy: retries=%llu masked=%llu exhausted=%llu "
                "backoff-us=%llu\n",
                static_cast<ull>(rep.io.retries),
                static_cast<ull>(rep.io.transient_masked),
                static_cast<ull>(rep.io.retries_exhausted),
                static_cast<ull>(rep.io.backoff_us));
    std::printf("  fail-slow: injected=%zu deadline-exceeded=%llu hedged=%llu "
                "hedge-wins=%llu slow-trips=%llu slow-recoveries=%llu\n",
                rep.fail_slow_injected,
                static_cast<ull>(rep.deadline_exceeded),
                static_cast<ull>(rep.hedged_reads),
                static_cast<ull>(rep.hedge_wins),
                static_cast<ull>(rep.slow_trips),
                static_cast<ull>(rep.slow_recoveries));
    std::printf("  array: degraded-stripe-reads=%llu degraded-element-reads=%llu "
                "media-errors-recovered=%llu\n",
                static_cast<ull>(t.degraded_stripe_reads),
                static_cast<ull>(t.degraded_element_reads),
                static_cast<ull>(t.media_errors_recovered));
    std::printf("  integrity: checksum-mismatches=%llu self-healed-reads=%llu "
                "metadata-repaired=%llu degraded-scrub-repairs=%zu "
                "settle-scrub-healed=%zu corrupt-columns-healed=%llu\n",
                static_cast<ull>(t.checksum_mismatches),
                static_cast<ull>(t.reads_self_healed),
                static_cast<ull>(t.checksum_metadata_repaired),
                rep.degraded_scrub_repairs, rep.settle_scrub_healed,
                static_cast<ull>(t.corrupt_columns_healed));
    std::printf("  persistence: kills=%zu remounts=%zu mount-failures=%zu "
                "intent-replayed=%zu stale-kicked=%zu rebuilds-resumed=%zu "
                "remount-scrub-repairs=%zu manifest-torn-slots=%zu\n",
                rep.kills, rep.remounts, rep.mount_failures,
                rep.mount_intent_replayed, rep.stale_disks_kicked,
                rep.rebuilds_resumed, rep.remount_scrub_repairs,
                rep.manifest_torn_slots);
    std::printf("  verdict: mismatches=%zu failed-reads=%zu failed-writes=%zu "
                "torn=%zu degraded=%zu unrecovered=%zu uncorrectable=%zu "
                "checksum-bad=%zu unrecoverable-reads=%llu\n",
                rep.mismatches, rep.failed_reads, rep.failed_writes,
                rep.final_torn, rep.final_degraded, rep.final_unrecovered,
                rep.scrub_uncorrectable, rep.final_checksum_bad,
                static_cast<ull>(t.reads_unrecoverable));
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
    // Per-objective SLO status (only when objectives were configured).
    if (!rep.slo_text.empty()) std::printf("%s", rep.slo_text.c_str());
    if (json) {
        print_timings_json(rep);
        print_verdict_json(cfg, rep);
    } else {
        // One machine-readable line for CI log scrapers, then the human one.
        std::printf("CHAOS_VERDICT pass=%d", rep.success ? 1 : 0);
        for (const auto& [name, v] : verdict_fields(cfg, rep)) {
            std::printf(" %s=%llu", name, v);
        }
        if (rep.first_bad_op) {
            std::printf(" first_bad_op=%llu",
                        static_cast<ull>(rep.first_bad_op->op));
        } else {
            std::printf(" first_bad_op=none");
        }
        std::printf(" slo_ok=%d\n", rep.slo_ok ? 1 : 0);
    }
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
    std::optional<std::uint64_t> slo_read_p99_us;
    int listen_port = -1;
    std::size_t serve_requests = 0;
    // Flags set the shard geometry and run mode directly; the seed, shard
    // count and op count pick the event plan once parsing is done.
    chaos_config cfg = liberation::volume::default_chaos_config(seed);

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
            cfg.volume.shard.hot_spares = static_cast<std::uint32_t>(
                std::strtoul(v, nullptr, 0));
        } else if (const char* v = arg("--stripes")) {
            cfg.volume.shard.stripes = std::strtoull(v, nullptr, 0);
        } else if (const char* v = arg("--queue-depth")) {
            // Submission-queue depth of each shard's aio engine, which is
            // also the stripe window of full-stripe writes, rebuild reads
            // and scrub prefetch: 1 is a window of one stripe, > 1
            // pipelines that many under the same fault campaign.
            cfg.volume.shard.io_queue_depth = std::strtoull(v, nullptr, 0);
        } else if (const char* v = arg("--read-rate")) {
            cfg.transient_read_rate = std::strtod(v, nullptr);
        } else if (const char* v = arg("--write-rate")) {
            cfg.transient_write_rate = std::strtod(v, nullptr);
        } else if (const char* v = arg("--persist-dir")) {
            cfg.persist_enabled = true;
            cfg.dir = v;
        } else if (std::strcmp(argv[i], "--sync-meta") == 0) {
            cfg.sync_meta = true;
        } else if (std::strcmp(argv[i], "--fail-slow") == 0) {
            fail_slow = true;
        } else if (const char* v = arg("--metrics-out")) {
            metrics_out = v;
        } else if (const char* v = arg("--trace-out")) {
            trace_out = v;
            cfg.trace = true;
        } else if (const char* v = arg("--slo-read-p99-us")) {
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
    cfg.seed = seed;
    cfg.ops = ops;
    cfg.volume.shards = shards;
    cfg.events = liberation::volume::default_chaos_config(seed, shards, ops)
                     .events;
    if (fail_slow) {
        cfg.volume.shard.latency.hedged_reads = true;
    } else {
        // Without hedging there is nothing to observe the straggler with;
        // don't arm it.
        cfg.events.fail_slow_at_op = ops;
        cfg.events.fail_slow_recover_at_op = ops;
    }
    if (slo_read_p99_us) cfg.slo = make_slo_objectives(*slo_read_p99_us);
    if (!quiet) {
        cfg.log = [](const std::string& msg) {
            std::printf("  [event] %s\n", msg.c_str());
        };
    }

    const chaos_report rep = liberation::volume::run_chaos_campaign(cfg);
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
