#include "liberation/volume/chaos.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "liberation/obs/flight_recorder.hpp"
#include "liberation/raid/scrubber.hpp"
#include "liberation/util/rng.hpp"
#include "liberation/util/timer.hpp"

namespace liberation::volume {

namespace {

/// Transient rate of the health-storm disk: retries exhaust (0.9^4 ≈
/// 0.66 per I/O), so the first lost write trips it, while baseline disks
/// essentially never exhaust (0.01^4 = 1e-8 per read).
constexpr double kStormRate = 0.9;
constexpr std::uint32_t kWriteTenths = 4;  ///< 40% of ops write
constexpr std::size_t kSloEveryOps = 256;
constexpr std::uint64_t kSloWindowNs = 1'000'000'000;

/// Per-disk fault streams must be decorrelated from each other and from
/// the workload stream; splitmix-style odd multiplier does that cheaply.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t n) {
    return seed ^ (0x9e3779b97f4a7c15ULL * (n + 1));
}

[[nodiscard]] std::uint32_t pick_online_disk(raid::raid6_array& a,
                                             util::xoshiro256& rng) {
    const std::uint32_t n = a.disk_count();
    for (int attempt = 0; attempt < 64; ++attempt) {
        const auto d = static_cast<std::uint32_t>(rng.next_below(n));
        if (a.disk(d).online()) return d;
    }
    for (std::uint32_t d = 0; d < n; ++d)
        if (a.disk(d).online()) return d;
    return 0;  // all offline; caller's event will be a no-op
}

/// Fold a generation's final counters into the campaign totals before
/// the volume object is destroyed by a kill.
void fold(chaos_report& rep, volume& vol) {
    const volume_stats s = vol.stats();
    obs::accumulate(kVolumeCounters, rep.stats, s);
    obs::accumulate(raid::kArrayCounters, rep.stats.shard_total,
                    s.shard_total);
    for (std::uint32_t sh = 0; sh < vol.shard_count(); ++sh) {
        obs::accumulate(raid::kIoPolicyCounters, rep.io,
                        vol.shard(sh).io_stats());
    }
}

/// Per-stripe availability and a full checksum sweep of one shard: after
/// the settle scrub, every readable column must verify against its
/// stored checksum — no unverified bytes survive the campaign.
void sweep_checksums(raid::raid6_array& a, chaos_report& rep) {
    codes::stripe_buffer sbuf = a.make_stripe_buffer();
    std::vector<std::uint32_t> erased;
    for (std::size_t s = 0; s < a.map().stripes(); ++s) {
        if (!a.load_stripe(s, sbuf.view(), erased)) {
            ++rep.final_unrecovered;
            continue;
        }
        if (!erased.empty()) ++rep.final_degraded;
        for (std::uint32_t c = 0; c < a.map().n(); ++c) {
            if (std::find(erased.begin(), erased.end(), c) != erased.end()) {
                continue;
            }
            const raid::strip_location loc = a.map().locate(s, c);
            if (!a.integrity(loc.disk).verify(loc.offset,
                                              sbuf.view().strip(c))) {
                ++rep.final_checksum_bad;
            }
        }
    }
}

/// The volume hub and every shard hub as one exposition / one histogram
/// list; shard series carry shard="s".
void capture_metrics(volume& vol, chaos_report& rep) {
    std::vector<obs::metrics_part> parts{{"", &vol.obs()}};
    rep.histograms = vol.obs().histogram_snapshots();
    for (std::uint32_t s = 0; s < vol.shard_count(); ++s) {
        const std::string id = std::to_string(s);
        parts.push_back({"shard=\"" + id + "\"", &vol.shard(s).obs()});
        for (auto& [name, snap] : vol.shard(s).obs().histogram_snapshots()) {
            rep.histograms.emplace_back(name + "{shard=" + id + "}", snap);
        }
    }
    rep.metrics_text = obs::merged_metrics_text(parts);
}

}  // namespace

chaos_config default_chaos_config(std::uint64_t seed, std::uint32_t shards,
                                  std::size_t ops) {
    chaos_config cfg;
    cfg.seed = seed;
    cfg.ops = ops;
    cfg.volume.shards = shards;
    cfg.volume.chunk_stripes = 1;
    cfg.volume.threaded_dispatch = true;
    raid::array_config& a = cfg.volume.shard;
    a.k = 4;
    a.element_size = 512;
    a.stripes = 32;
    a.sector_size = 512;
    // Two spares per shard: at one shard, one each for the fail-stop and
    // the storm trip; with more shards, one of margin.
    a.hot_spares = 2;
    a.rebuild_batch_stripes = 4;
    // Baseline transients are retry-masked and must never trip a disk;
    // only hard (retry-exhausted) errors count, which the storm disk
    // produces almost at once.
    a.health.max_transient_errors = 0;  // disabled
    a.health.max_read_errors = 20;
    a.health.max_write_errors = 1;  // md: first lost write trips
    chaos_event_plan& ev = cfg.events;
    ev.fail_stop_at_op = ops / 6;
    ev.kill_mid_rebuild_at_op = ops / 6 + 1;
    // The gray disk must arm on a warm latency distribution. A miss is
    // recorded at the deadline it missed, so each time misses pass 1 % of
    // the disk's samples, its p99 (and the deadline, 4 x p99) climbs to a
    // higher power-of-two bucket. With a few hundred samples, the deadline
    // outgrows the 20 ms stall before the 8th consecutive miss and the
    // quarantine never trips. A shard sees 1/N of the reads, and a
    // remount restarts every distribution, so the window opens later as N
    // grows: ops/3 at one shard, 7/12 of the run from four on (the plan
    // is sized for at most four shards at 6000 ops).
    ev.fail_slow_at_op = ops * (std::min(shards, 4u) + 3) / 12;
    ev.health_storm_at_op = ops / 2;
    ev.fail_slow_recover_at_op = ops * 7 / 10;
    ev.power_loss_at_op = ops * 4 / 5;
    ev.kill_mid_scrub_at_op = ops * 9 / 10;
    return cfg;
}

chaos_report run_chaos_campaign(const chaos_config& cfg) {
    chaos_report rep;
    const std::uint32_t nshards = cfg.volume.shards;
    std::unique_ptr<volume> vol;
    if (cfg.persist_enabled) {
        persist::volume_store_config scfg;
        scfg.dir = cfg.dir;
        scfg.sync_meta = cfg.sync_meta;
        // Fixed uuid: the campaign replays bit-for-bit from the seed.
        vol = persist::create_volume(cfg.volume, scfg,
                                     derive_seed(cfg.seed, 0xB011) | 1);
        if (!vol) {
            ++rep.mount_failures;
            return rep;
        }
    } else {
        vol = std::make_unique<volume>(cfg.volume);
    }
    util::xoshiro256 rng(cfg.seed);
    const auto log = [&](const std::string& msg) {
        if (cfg.log) cfg.log(msg);
    };
    const auto log_op = [&](std::size_t op, const std::string& msg) {
        log("op " + std::to_string(op) + ": " + msg);
    };
    if (cfg.trace) vol->set_tracing(true);
    // SLO engine over the volume hub; rebuilt per kill-and-remount
    // generation (the hub dies with the volume), sticky verdict folded.
    std::unique_ptr<obs::slo_engine> slo;
    bool slo_ever_violated = false;
    const auto make_slo = [&] {
        if (cfg.slo.empty()) return;
        slo = std::make_unique<obs::slo_engine>(vol->obs(), cfg.slo,
                                                kSloWindowNs);
        slo->evaluate();  // baseline frame at generation start
    };
    make_slo();
    const auto fold_slo = [&] {
        if (slo == nullptr) return;
        slo->evaluate();
        slo_ever_violated = slo_ever_violated || slo->ever_violated();
    };
    const auto capture_obs = [&] {
        fold_slo();
        if (slo != nullptr) rep.slo_text = slo->text();
        rep.slo_ok = !slo_ever_violated;
        capture_metrics(*vol, rep);
        if (cfg.trace) rep.trace_json = vol->trace_json();
    };
    util::stopwatch phase_clock;
    std::uint64_t generation = 0;

    // Baseline transients on every starting disk. Spares stay clean: a
    // promoted spare is fresh hardware, which is also what keeps a
    // post-storm shard quiet enough to finish its rebuild.
    const auto arm_transients = [&] {
        if (cfg.transient_read_rate <= 0.0 &&
            cfg.transient_write_rate <= 0.0) {
            return;
        }
        for (std::uint32_t s = 0; s < nshards; ++s) {
            raid::raid6_array& a = vol->shard(s);
            for (std::uint32_t d = 0; d < a.disk_count(); ++d) {
                a.disk(d).set_transient_fault_rates(
                    cfg.transient_read_rate, cfg.transient_write_rate,
                    derive_seed(cfg.seed,
                                std::uint64_t{s} * 64 + d +
                                    8192 * generation));
            }
        }
    };
    arm_transients();

    // Whole-process death: every shard's array object is destroyed with
    // no unmount, then mount_volume() reassembles the set (manifest
    // election, shard census, per-shard member election + intent replay).
    const auto kill_and_remount = [&](const std::string& why) {
        fold(rep, *vol);
        // The engine references the dying hub: fold its verdict and drop
        // it before the volume goes away.
        fold_slo();
        slo.reset();
        vol.reset();
        ++rep.kills;
        log("kill (" + why + "): process state dropped, remounting volume");
        util::stopwatch mount_clock;
        persist::volume_mount_options mo;
        mo.store.dir = cfg.dir;
        mo.store.sync_meta = cfg.sync_meta;
        mo.io_queue_depth = cfg.volume.shard.io_queue_depth;
        mo.io_retry = cfg.volume.shard.io_retry;
        mo.health = cfg.volume.shard.health;
        mo.latency = cfg.volume.shard.latency;
        mo.rebuild_batch_stripes = cfg.volume.shard.rebuild_batch_stripes;
        mo.auto_failover = cfg.volume.shard.auto_failover;
        mo.obs_virtual_time = cfg.volume.shard.obs_virtual_time;
        mo.threaded_dispatch = cfg.volume.threaded_dispatch;
        persist::mounted_volume m = persist::mount_volume(mo);
        rep.phases.mount_replay_s += mount_clock.seconds();
        rep.manifest_torn_slots +=
            static_cast<std::size_t>(m.report.manifest_torn_slots);
        if (!m.report.ok) {
            ++rep.mount_failures;
            log("volume remount FAILED: " + m.report.error);
            return false;
        }
        vol = std::move(m.vol);
        ++rep.remounts;
        for (const persist::shard_census_entry& e : m.report.census) {
            rep.mount_intent_replayed += e.report.intent_replayed;
            rep.stale_disks_kicked +=
                e.report.stale_kicked + e.report.unreadable;
            rep.rebuilds_resumed += e.report.rebuilds_resumed;
        }
        ++generation;
        arm_transients();
        if (cfg.trace) vol->set_tracing(true);
        make_slo();
        log("remounted: " + std::to_string(m.report.shards_mounted) + "/" +
            std::to_string(m.report.shards_expected) + " shards");
        return true;
    };

    // Initial fill + shadow copy: every later read has a ground truth.
    const std::size_t cap = vol->capacity();
    std::vector<std::byte> shadow(cap);
    rng.fill(shadow);
    if (!vol->write(0, shadow)) {
        ++rep.failed_writes;
        fold(rep, *vol);
        rep.phases.fill_s = phase_clock.seconds();
        capture_obs();
        return rep;
    }
    rep.phases.fill_s = phase_clock.seconds();

    const std::size_t max_io =
        std::min(2 * vol->shard(0).map().stripe_data_size(), cap);
    std::vector<std::byte> buf(max_io);

    // Shard roles: concurrent faults land on *different* shards.
    const auto shard_a = static_cast<std::uint32_t>(rng.next_below(nshards));
    const std::uint32_t shard_b = (shard_a + 1) % nshards;
    const std::uint32_t shard_c =
        nshards >= 3 ? (shard_a + 2) % nshards : shard_a;

    const chaos_event_plan& ev = cfg.events;
    const auto planned = [&](std::size_t at_op) { return at_op < cfg.ops; };
    const auto planned_every = [&](std::size_t every) {
        return every != 0 && every < cfg.ops;
    };
    const auto cadence = [&](std::size_t every, std::size_t op) {
        return every != 0 && op != 0 && op % every == 0;
    };
    bool fail_stop_pending = false;
    bool storm_pending = false;
    bool power_pending = false;
    bool power_armed = false;
    bool kill_write_armed = false;  // on the budget's loss: kill, not reboot
    bool kill_rebuild_pending = false;
    bool kill_scrub_pending = false;
    bool fail_slow_pending = false;
    bool fail_slow_recover_pending = false;
    std::uint32_t slow_victim = UINT32_MAX;

    // An armed event only fires on a quiet shard — no failed disk, no
    // rebuild in flight — so faults never stack beyond the two erasures
    // RAID-6 tolerates by construction.
    const auto quiet = [&](std::uint32_t s) {
        return vol->shard(s).failed_disk_count() == 0 &&
               !vol->shard(s).rebuild_active() && vol->shard(s).powered() &&
               !power_armed;
    };
    // Silent damage uses a looser gate: healthy, degraded or rebuilding
    // (<= 1 masked column keeps each flip inside the two-erasure decode
    // budget). Journaled (torn) stripes are excluded: their mismatches
    // belong to write-hole recovery, not to the corruption classifier.
    const auto corruptible = [&](std::uint32_t s) {
        raid::raid6_array& a = vol->shard(s);
        return a.powered() && !power_armed && a.failed_disk_count() == 0 &&
               a.rebuilding_disk_count() <= 1 && a.journal().size() == 0;
    };
    // Injection counters; each also picks the next target shard, so the
    // damage rotates across all shards.
    std::size_t data_flips = 0;
    std::size_t latent_errors = 0;
    std::size_t checksum_flips = 0;
    // Columns the harness's own scrubs healed (the degraded-stripe scrub
    // after the fail-stop, the post-remount scrub of the mid-scrub kill):
    // those heal the flips planted for those checks, not the corrupt_every
    // cadence the corruption check is about.
    std::uint64_t planted_heals = 0;
    const auto scrub_planted = [&](raid::raid6_array& a) {
        const std::uint64_t before = a.stats().corrupt_columns_healed;
        const raid::scrub_summary sum = scrub_array(a);
        planted_heals += a.stats().corrupt_columns_healed - before;
        return sum;
    };
    const auto rotate = [nshards](std::size_t count) {
        return static_cast<std::uint32_t>(count % nshards);
    };

    const auto note_divergence = [&](std::size_t op, std::size_t addr,
                                     std::size_t len,
                                     std::uint64_t trace_id) {
        if (rep.first_bad_op) return;
        rep.first_bad_op = obs::divergence{op, addr, len, trace_id};
        log_op(op, "first_bad_op=" + std::to_string(op) + " at " +
               std::to_string(addr) + "+" + std::to_string(len) + " trace " +
               std::to_string(trace_id));
    };

    phase_clock.restart();
    for (std::size_t op = 0; op < cfg.ops; ++op) {
        if (slo != nullptr && op != 0 && op % kSloEveryOps == 0) {
            slo->evaluate();
        }
        if (op == ev.fail_stop_at_op) fail_stop_pending = true;
        if (op == ev.health_storm_at_op) storm_pending = true;
        if (op == ev.power_loss_at_op) power_pending = true;
        if (op == ev.fail_slow_at_op) fail_slow_pending = true;
        if (op == ev.fail_slow_recover_at_op) fail_slow_recover_pending = true;
        if (cfg.persist_enabled) {
            if (op == ev.kill_mid_rebuild_at_op) kill_rebuild_pending = true;
            if (op == ev.kill_mid_scrub_at_op) kill_scrub_pending = true;
        }

        // The mid-rebuild kill inverts the quiet gate: it fires at the
        // first op with shard A's rebuild actually in flight, so the
        // remount must resume it from the persisted watermark while every
        // other shard reassembles clean.
        if (kill_rebuild_pending && vol->shard(shard_a).rebuild_active() &&
            vol->shard(shard_a).powered() && !power_armed) {
            kill_rebuild_pending = false;
            log_op(op, "killing mid-rebuild of shard " +
                   std::to_string(shard_a));
            if (!kill_and_remount("mid-rebuild")) return rep;
        }

        // Fire at most one armed event per op, oldest first. Gates are
        // per-shard: shard B can take its storm while shard A is still
        // rebuilding and shard C is dragging.
        if (fail_stop_pending && quiet(shard_a)) {
            raid::raid6_array& a = vol->shard(shard_a);
            const std::uint32_t victim = pick_online_disk(a, rng);
            log_op(op, "fail-stop shard " + std::to_string(shard_a) + " disk " +
                   std::to_string(victim));
            a.fail_disk(victim);
            ++rep.injected_fail_stops;
            fail_stop_pending = false;
            // The shard is now degraded (a spare's rebuild has barely
            // started). Corrupt a survivor column of the last stripe — far
            // from the rebuild cursor — and scrub at once: the
            // checksum-first scrubber must repair corruption on a degraded
            // stripe, which a parity cross-check could only skip.
            const std::size_t s = a.map().stripes() - 1;
            for (std::uint32_t c = 0; c < a.map().n(); ++c) {
                const raid::strip_location loc = a.map().locate(s, c);
                if (loc.disk == victim || !a.disk(loc.disk).online()) continue;
                a.disk(loc.disk).inject_silent_corruption(loc.offset, 32, rng);
                ++rep.corruptions_injected;
                log_op(op, "corrupted survivor disk " +
                       std::to_string(loc.disk) + " on degraded stripe " +
                       std::to_string(s));
                break;
            }
            rep.degraded_scrub_repairs += scrub_planted(a).repaired_on_degraded;
        } else if (storm_pending && quiet(shard_b)) {
            const std::uint32_t victim =
                pick_online_disk(vol->shard(shard_b), rng);
            log_op(op, "transient storm on shard " + std::to_string(shard_b) +
                   " disk " + std::to_string(victim));
            vol->shard(shard_b).disk(victim).set_transient_fault_rates(
                kStormRate, kStormRate, derive_seed(cfg.seed, 1000));
            storm_pending = false;
        } else if (fail_slow_pending && quiet(shard_c)) {
            // Gray failure: correct bytes, but every service takes
            // fail_slow_base_us. A constant shape keeps the deadline-miss
            // streak unbroken, so the monitor first hedges around single
            // late reads, then quarantines the disk.
            const std::uint32_t victim =
                pick_online_disk(vol->shard(shard_c), rng);
            raid::latency_profile prof;
            prof.kind = raid::latency_profile::shape::constant;
            prof.base_us = ev.fail_slow_base_us;
            prof.jitter_us = ev.fail_slow_base_us / 4;
            vol->shard(shard_c).disk(victim).set_latency_profile(
                prof, derive_seed(cfg.seed, 2000 + 64 * generation));
            slow_victim = victim;
            ++rep.fail_slow_injected;
            fail_slow_pending = false;
            log_op(op, "fail-slow on shard " + std::to_string(shard_c) +
                   " disk " + std::to_string(victim));
        } else if (power_pending && quiet(shard_b)) {
            const auto budget = 1 + rng.next_below(4);
            log_op(op, "power loss armed on shard " + std::to_string(shard_b) +
                   " after " + std::to_string(budget) + " disk writes" +
                   (cfg.persist_enabled ? " (kill on loss)" : ""));
            vol->shard(shard_b).simulate_power_loss_after(budget);
            power_pending = false;
            power_armed = true;
            kill_write_armed = cfg.persist_enabled;
        } else if (kill_scrub_pending && quiet(shard_c) &&
                   vol->shard(shard_c).journal().size() == 0) {
            // Mid-scrub crash point: damage sits on the medium and the
            // scrub that would heal it never runs. The files hold the
            // corrupt bytes, the persisted checksums still describe the
            // original data, and the post-remount scrub must repair it.
            raid::raid6_array& a = vol->shard(shard_c);
            const std::size_t s = a.map().stripes() / 2;
            const auto c =
                static_cast<std::uint32_t>(rng.next_below(a.map().n()));
            const raid::strip_location loc = a.map().locate(s, c);
            a.disk(loc.disk).inject_silent_corruption(loc.offset, 32, rng);
            ++rep.corruptions_injected;
            kill_scrub_pending = false;
            log_op(op, "killing mid-scrub (shard " + std::to_string(shard_c) +
                   " disk " + std::to_string(loc.disk) + " stripe " +
                   std::to_string(s) + " corrupt and unhealed)");
            if (!kill_and_remount("mid-scrub")) return rep;
            const raid::scrub_summary after = scrub_planted(vol->shard(shard_c));
            rep.remount_scrub_repairs += after.repaired_data +
                                         after.repaired_parity +
                                         after.repaired_metadata;
            rep.scrub_uncorrectable += after.uncorrectable;
        } else if (cadence(ev.latent_error_every, op) &&
                   quiet(rotate(latent_errors))) {
            raid::raid6_array& a = vol->shard(rotate(latent_errors));
            const std::size_t sector = cfg.volume.shard.sector_size;
            const std::uint32_t victim = pick_online_disk(a, rng);
            const std::size_t off =
                rng.next_below(a.disk(victim).capacity() / sector) * sector;
            a.disk(victim).inject_latent_error(off, sector);
            ++latent_errors;
            ++rep.latent_errors_injected;
        }

        if (cadence(ev.corrupt_every, op) && corruptible(rotate(data_flips))) {
            // Rotate stripes with a stride coprime to the stripe count:
            // corruption lingers until a read or scrub heals it, and piling
            // three unhealed flips onto one stripe would exceed what any
            // two-parity code can repair.
            const std::uint32_t s = rotate(data_flips);
            raid::raid6_array& a = vol->shard(s);
            const std::size_t stripe = (data_flips * 7) % a.map().stripes();
            ++data_flips;
            const auto c =
                static_cast<std::uint32_t>(rng.next_below(a.map().n()));
            const raid::strip_location loc = a.map().locate(stripe, c);
            const std::size_t block = a.integrity_block();
            const std::size_t off =
                loc.offset +
                rng.next_below(a.map().strip_size() / block) * block;
            const std::size_t len =
                1 + rng.next_below(std::min<std::size_t>(64, block));
            a.disk(loc.disk).inject_silent_corruption(off, len, rng);
            ++rep.corruptions_injected;
            log_op(op, "silent corruption on shard " + std::to_string(s) +
                   " disk " + std::to_string(loc.disk) + " stripe " +
                   std::to_string(stripe));
        }
        if (cadence(ev.corrupt_integrity_every, op) &&
            corruptible(rotate(checksum_flips))) {
            // Flip a stored checksum instead of the data it covers: the
            // verify/decode machinery must conclude the *metadata* is the
            // damaged side and refresh it, never "heal" the good data.
            const std::uint32_t s = rotate(checksum_flips);
            raid::raid6_array& a = vol->shard(s);
            ++checksum_flips;
            const std::uint32_t victim = pick_online_disk(a, rng);
            integrity::integrity_region& region = a.integrity(victim);
            const std::size_t b = rng.next_below(region.blocks());
            region.corrupt_block(b, static_cast<std::uint32_t>(rng.next() | 1));
            ++rep.integrity_corruptions_injected;
            log_op(op, "checksum metadata flip on shard " + std::to_string(s) +
                   " disk " + std::to_string(victim));
        }

        // The straggler recovers; the quarantine must now be lifted by
        // the monitor's own probes, not by the injection harness.
        if (fail_slow_recover_pending && !fail_slow_pending &&
            slow_victim != UINT32_MAX) {
            if (vol->shard(shard_c).disk(slow_victim)
                    .latency_profile_armed()) {
                vol->shard(shard_c).disk(slow_victim).clear_latency_profile();
                log_op(op, "fail-slow shard " + std::to_string(shard_c) +
                       " disk " + std::to_string(slow_victim) + " recovered");
            }
            fail_slow_recover_pending = false;
        }
        if (cfg.inject) cfg.inject(op, *vol);

        // One workload op over the full volume address space, rooted in
        // its own trace when tracing (its id names a divergence).
        const bool do_write = rng.next_below(10) < kWriteTenths;
        const std::size_t len = 1 + rng.next_below(max_io);
        const std::size_t addr = rng.next_below(cap - len + 1);
        const std::span<std::byte> io(buf.data(), len);
        const std::uint64_t trace_id = cfg.trace ? obs::next_trace_id() : 0;
        const obs::trace_scope root(obs::trace_context{trace_id, 0});
        if (do_write) {
            rng.fill(io);
            ++rep.writes;
            if (!vol->write(addr, io)) {
                ++rep.failed_writes;
                log_op(op, "write failed at " + std::to_string(addr) + "+" +
                       std::to_string(len));
                note_divergence(op, addr, len, trace_id);
            } else if (vol->shard(shard_b).powered()) {
                std::memcpy(shadow.data() + addr, buf.data(), len);
            }
        } else {
            ++rep.reads;
            if (!vol->read(addr, io)) {
                ++rep.failed_reads;
                log_op(op, "read failed at " + std::to_string(addr) + "+" +
                       std::to_string(len));
                note_divergence(op, addr, len, trace_id);
            } else if (std::memcmp(shadow.data() + addr, buf.data(), len) !=
                       0) {
                ++rep.mismatches;
                log_op(op, "shadow mismatch at " + std::to_string(addr) + "+" +
                       std::to_string(len));
                note_divergence(op, addr, len, trace_id);
            }
        }
        ++rep.ops;

        // Shard B's power budget exhausted mid-op: the other shards
        // committed their pieces, B holds a torn stripe. Persistent runs
        // die and remount (intent replay heals B); in-memory runs reboot
        // B and recover its write hole in place. Either way the op's
        // extent is re-read to reconcile the shadow with whatever mix of
        // old/new data the torn write left behind.
        if (!vol->shard(shard_b).powered()) {
            power_armed = false;
            if (kill_write_armed) {
                kill_write_armed = false;
                if (!kill_and_remount("mid-write")) return rep;
            } else {
                ++rep.power_losses;
                log_op(op, "shard " + std::to_string(shard_b) +
                       " power lost, rebooting");
                raid::raid6_array& b = vol->shard(shard_b);
                b.reboot();
                // Baseline transients can defer single stripes; retry.
                for (int t = 0; t < 16 && b.journal().size() != 0; ++t) {
                    rep.resynced_stripes += b.recover_write_hole();
                }
            }
            if (do_write) {
                if (vol->read(addr, io)) {
                    std::memcpy(shadow.data() + addr, buf.data(), len);
                } else {
                    ++rep.failed_reads;
                    note_divergence(op, addr, len, trace_id);
                }
            }
        }
    }
    rep.phases.workload_s = phase_clock.seconds();

    // Settle: drain every shard's rebuild, disarm every fault stream and
    // recover write holes. What is left (latent sectors and rot on strips
    // the workload never re-read, parity strips included) is the settle
    // scrub's.
    phase_clock.restart();
    vol->drain_background_rebuilds();
    for (std::uint32_t s = 0; s < nshards; ++s) {
        raid::raid6_array& a = vol->shard(s);
        for (std::uint32_t d = 0; d < a.disk_count(); ++d) {
            a.disk(d).clear_transient_faults();
            a.disk(d).clear_latency_profile();
        }
        for (int t = 0; t < 16 && a.journal().size() != 0; ++t) {
            rep.resynced_stripes += a.recover_write_hole();
        }
    }
    rep.phases.settle_s = phase_clock.seconds();

    // Settle scrub: heal injected damage the workload never re-read. Its
    // parity-fallback repairs are damage the checksum domain could not
    // see — a stripe left torn without being journaled — and count
    // against the write-hole invariant.
    phase_clock.restart();
    for (std::uint32_t s = 0; s < nshards; ++s) {
        const raid::scrub_summary settle = scrub_array(vol->shard(s));
        rep.settle_scrub_healed += settle.repaired_data +
                                   settle.repaired_parity +
                                   settle.repaired_metadata;
        rep.final_torn += settle.parity_fallback_repairs;
        rep.scrub_uncorrectable += settle.uncorrectable;
    }
    rep.phases.settle_scrub_s = phase_clock.seconds();

    // Final verification: the full volume against the shadow copy, then
    // every shard's stripes against their stored checksums...
    phase_clock.restart();
    std::vector<std::byte> out(cap);
    if (!vol->read(0, out)) {
        ++rep.failed_reads;
    } else if (!std::equal(out.begin(), out.end(), shadow.begin())) {
        ++rep.mismatches;
        log("final full-volume read disagrees with the shadow copy");
    }
    for (std::uint32_t s = 0; s < nshards; ++s) {
        sweep_checksums(vol->shard(s), rep);
    }
    rep.phases.final_verify_s = phase_clock.seconds();

    // ...then per-shard parity consistency: the settle scrubs healed
    // every injected fault, so any repair here means some path left a
    // stripe inconsistent after recovery claimed it was done.
    phase_clock.restart();
    for (std::uint32_t s = 0; s < nshards; ++s) {
        const raid::scrub_summary scrub = scrub_array(vol->shard(s));
        rep.final_torn += scrub.repaired_data + scrub.repaired_parity;
        rep.scrub_uncorrectable += scrub.uncorrectable;
    }
    rep.phases.final_scrub_s = phase_clock.seconds();

    fold(rep, *vol);
    const raid::array_stats& total = rep.stats.shard_total;
    rep.health_trips = total.disks_tripped;
    rep.spares_promoted = total.spares_promoted;
    rep.rebuilds_completed = total.rebuilds_completed;
    rep.deadline_exceeded = total.deadline_exceeded;
    rep.hedged_reads = total.hedged_reads;
    rep.hedge_wins = total.hedge_wins;
    rep.slow_trips = total.slow_trips;
    rep.slow_recoveries = total.slow_recoveries;

    // The plan must have visibly exercised every fault class it armed.
    bool events_ok = true;
    for (std::uint32_t s = 0; s < nshards; ++s) {
        events_ok = events_ok && vol->shard(s).journal().size() == 0;
    }
    if (planned(ev.fail_stop_at_op)) {
        events_ok = events_ok && rep.injected_fail_stops >= 1 &&
                    rep.degraded_scrub_repairs >= 1;
    }
    if (planned(ev.health_storm_at_op)) {
        events_ok = events_ok && rep.health_trips >= 1;
    }
    const std::size_t losses =
        std::size_t{planned(ev.fail_stop_at_op)} +
        std::size_t{planned(ev.health_storm_at_op)};
    if (cfg.volume.shard.hot_spares > 0) {
        events_ok = events_ok && rep.spares_promoted >= losses &&
                    rep.rebuilds_completed >= losses;
    }
    if (planned_every(ev.corrupt_every)) {
        // A flip is healed by a read, the settle scrub, or any other
        // write_back of its stripe: a hot spare's rebuild meets it first
        // when its stripe lies ahead of the rebuild cursor.
        events_ok = events_ok && rep.corruptions_injected >= 1 &&
                    total.reads_self_healed + rep.settle_scrub_healed +
                            (total.corrupt_columns_healed - planted_heals) >=
                        1;
    }
    if (planned_every(ev.corrupt_integrity_every)) {
        events_ok = events_ok && rep.integrity_corruptions_injected >= 1 &&
                    total.checksum_metadata_repaired >= 1;
    }
    if (cfg.volume.shard.latency.hedged_reads && planned(ev.fail_slow_at_op)) {
        // The whole tolerance chain: late reads detected, hedges that
        // beat the straggler, a quarantine trip and, once the profile
        // cleared, the un-quarantine.
        events_ok = events_ok && rep.fail_slow_injected >= 1 &&
                    rep.deadline_exceeded >= 1 && rep.hedge_wins >= 1 &&
                    rep.slow_trips >= 1;
        if (planned(ev.fail_slow_recover_at_op)) {
            events_ok = events_ok && rep.slow_recoveries >= 1;
        }
    }
    if (planned(ev.power_loss_at_op) && !cfg.persist_enabled) {
        events_ok = events_ok && rep.power_losses >= 1;
    }
    if (cfg.persist_enabled) {
        // Every kill must have remounted, every planned crash point must
        // have demonstrated its recovery path.
        events_ok = events_ok && rep.mount_failures == 0 &&
                    rep.kills == rep.remounts;
        if (planned(ev.kill_mid_rebuild_at_op)) {
            events_ok =
                events_ok && rep.kills >= 1 && rep.rebuilds_resumed >= 1;
        }
        if (planned(ev.power_loss_at_op)) {
            events_ok = events_ok && rep.mount_intent_replayed >= 1;
        }
        if (planned(ev.kill_mid_scrub_at_op)) {
            events_ok = events_ok && rep.remount_scrub_repairs >= 1;
        }
    }
    capture_obs();
    // The campaign's own exit is clean: the *next* mount of the directory
    // sees a clean shutdown.
    if (cfg.persist_enabled) events_ok = vol->unmount() && events_ok;
    rep.success = rep.clean() && events_ok && rep.slo_ok;
    if (!rep.success) {
        // Failed verdict: breadcrumb + automatic bundle (opt-in via
        // LIBERATION_POSTMORTEM_DIR) with everything already captured.
        obs::flight_recorder::instance().record(obs::fr_kind::verdict_failed,
                                                vol->obs().now_ns());
        obs::postmortem_bundle b;
        b.metrics_text = rep.metrics_text;
        b.trace_json = rep.trace_json;
        b.slo_text = rep.slo_text;
        b.first_bad_op = rep.first_bad_op;
        (void)obs::auto_postmortem("chaos_verdict", nullptr, std::move(b));
    }
    return rep;
}

}  // namespace liberation::volume
