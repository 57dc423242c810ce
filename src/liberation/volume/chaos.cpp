#include "liberation/volume/chaos.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "liberation/obs/flight_recorder.hpp"
#include "liberation/obs/postmortem.hpp"
#include "liberation/raid/scrubber.hpp"
#include "liberation/util/rng.hpp"
#include "liberation/util/timer.hpp"

namespace liberation::volume {

namespace {

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
void fold(volume_stats& into, const volume_stats& s) {
    into.reads += s.reads;
    into.writes += s.writes;
    into.failed_reads += s.failed_reads;
    into.failed_writes += s.failed_writes;
    into.chunks_routed += s.chunks_routed;
    into.multi_shard_ops += s.multi_shard_ops;
    accumulate(into.shard_total, s.shard_total);
}

}  // namespace

volume_chaos_config default_volume_chaos_config(std::uint64_t seed,
                                                std::uint32_t shards,
                                                std::size_t ops) {
    volume_chaos_config cfg;
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
    // Two spares per shard: one for its planned fail-stop, one of margin
    // should baseline errors ever trip a disk.
    a.hot_spares = 2;
    a.rebuild_batch_stripes = 4;
    // Same trip calculus as default_chaos_config: baseline transients are
    // retry-masked and must never trip a disk.
    a.health.max_transient_errors = 0;
    a.health.max_read_errors = 20;
    a.health.max_write_errors = 1;
    cfg.events.fail_stop_a_at_op = ops / 6;
    cfg.events.kill_mid_rebuild_at_op = ops / 6 + 1;
    cfg.events.fail_slow_at_op = ops / 3;
    cfg.events.fail_stop_b_at_op = ops / 2;
    cfg.events.fail_slow_recover_at_op = ops * 7 / 10;
    cfg.events.power_or_kill_at_op = ops * 4 / 5;
    cfg.events.corrupt_every = 900;
    return cfg;
}

volume_chaos_report run_volume_chaos_campaign(const volume_chaos_config& cfg) {
    volume_chaos_report rep;
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
    if (cfg.trace) vol->set_tracing(true);
    // SLO engine over the volume hub; rebuilt per kill-and-remount
    // generation (the hub dies with the volume), sticky verdict folded.
    std::unique_ptr<obs::slo_engine> slo;
    bool slo_ever_violated = false;
    const auto make_slo = [&] {
        if (cfg.slo.empty()) return;
        slo = std::make_unique<obs::slo_engine>(vol->obs(), cfg.slo,
                                                cfg.slo_window_ns);
        slo->evaluate();  // baseline frame at generation start
    };
    make_slo();
    const auto capture_obs = [&] {
        if (slo != nullptr) {
            slo->evaluate();
            slo_ever_violated = slo_ever_violated || slo->ever_violated();
            rep.slo_text = slo->text();
            rep.slo_ok = !slo_ever_violated;
        }
        rep.metrics_text = vol->obs().metrics_text();
        if (cfg.trace) rep.trace_json = vol->trace_json();
    };
    const auto note_failed_verdict = [&] {
        if (rep.success) return;
        obs::flight_recorder::instance().record(obs::fr_kind::verdict_failed,
                                                vol->obs().now_ns());
        obs::postmortem_bundle b;
        b.metrics_text = rep.metrics_text;
        b.trace_json = rep.trace_json;
        b.slo_text = rep.slo_text;
        (void)obs::auto_postmortem("chaos_verdict", nullptr, std::move(b));
    };
    util::stopwatch phase_clock;

    volume_stats acc{};
    std::uint64_t generation = 0;

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
        fold(acc, vol->stats());
        // The engine references the dying hub: fold its verdict and drop
        // it before the volume goes away.
        if (slo != nullptr) {
            slo->evaluate();
            slo_ever_violated = slo_ever_violated || slo->ever_violated();
            slo.reset();
        }
        vol.reset();
        ++rep.kills;
        log("kill (" + why + "): process state dropped, remounting volume");
        util::stopwatch mount_clock;
        persist::volume_mount_options mo;
        mo.store.dir = cfg.dir;
        mo.store.sync_meta = cfg.sync_meta;
        mo.io_queue_depth = cfg.volume.shard.io_queue_depth;
        mo.verify_reads = cfg.volume.shard.verify_reads;
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
        rep.stats = vol->stats();
        rep.phases.fill_s = phase_clock.seconds();
        capture_obs();
        return rep;
    }
    rep.phases.fill_s = phase_clock.seconds();

    const std::size_t stripe_bytes = vol->shard(0).map().stripe_data_size();
    const std::size_t max_io = cfg.max_io_bytes != 0
                                   ? std::min(cfg.max_io_bytes, cap)
                                   : std::min(2 * stripe_bytes, cap);
    std::vector<std::byte> buf(max_io);

    // Shard roles: concurrent faults land on *different* shards.
    const auto shard_a = static_cast<std::uint32_t>(rng.next_below(nshards));
    const std::uint32_t shard_b = (shard_a + 1) % nshards;
    const std::uint32_t shard_c =
        nshards >= 3 ? (shard_a + 2) % nshards : shard_a;

    const volume_chaos_event_plan& ev = cfg.events;
    bool fail_a_pending = false;
    bool fail_b_pending = false;
    bool power_pending = false;
    bool power_armed = false;
    bool kill_write_armed = false;  // on the budget's loss: kill, not reboot
    bool kill_rebuild_pending = false;
    bool fail_slow_pending = false;
    bool fail_slow_recover_pending = false;
    std::uint32_t slow_victim = UINT32_MAX;

    const auto quiet = [&](std::uint32_t s) {
        return vol->shard(s).failed_disk_count() == 0 &&
               !vol->shard(s).rebuild_active() && vol->shard(s).powered() &&
               !power_armed;
    };
    const auto corruptible = [&](std::uint32_t s) {
        raid::raid6_array& a = vol->shard(s);
        return a.powered() && !power_armed && a.failed_disk_count() == 0 &&
               a.rebuilding_disk_count() <= 1 && a.journal().size() == 0;
    };
    std::size_t data_flips = 0;

    const auto fail_stop = [&](std::uint32_t s, std::size_t op) {
        const std::uint32_t victim = pick_online_disk(vol->shard(s), rng);
        log("op " + std::to_string(op) + ": fail-stop shard " +
            std::to_string(s) + " disk " + std::to_string(victim));
        vol->shard(s).fail_disk(victim);
        ++rep.injected_fail_stops;
    };

    phase_clock.restart();
    for (std::size_t op = 0; op < cfg.ops; ++op) {
        if (slo != nullptr && cfg.slo_every_ops != 0 && op != 0 &&
            op % cfg.slo_every_ops == 0) {
            slo->evaluate();
        }
        if (op == ev.fail_stop_a_at_op) fail_a_pending = true;
        if (op == ev.fail_stop_b_at_op) fail_b_pending = true;
        if (op == ev.power_or_kill_at_op) power_pending = true;
        if (op == ev.fail_slow_at_op) fail_slow_pending = true;
        if (op == ev.fail_slow_recover_at_op) fail_slow_recover_pending = true;
        if (cfg.persist_enabled && op == ev.kill_mid_rebuild_at_op) {
            kill_rebuild_pending = true;
        }

        // The mid-rebuild kill inverts the quiet gate: it fires at the
        // first op with shard A's rebuild actually in flight, so the
        // remount must resume it from the persisted watermark while every
        // other shard reassembles clean.
        if (kill_rebuild_pending && vol->shard(shard_a).rebuild_active() &&
            vol->shard(shard_a).powered() && !power_armed) {
            kill_rebuild_pending = false;
            log("op " + std::to_string(op) + ": killing mid-rebuild of shard " +
                std::to_string(shard_a));
            if (!kill_and_remount("mid-rebuild")) {
                rep.stats = acc;
                return rep;
            }
        }

        // Fire at most one armed event per op, oldest first. Gates are
        // per-shard: shard B can take its fail-stop while shard A is
        // still rebuilding and shard C is dragging.
        if (fail_a_pending && quiet(shard_a)) {
            fail_stop(shard_a, op);
            fail_a_pending = false;
        } else if (fail_b_pending && quiet(shard_b)) {
            fail_stop(shard_b, op);
            fail_b_pending = false;
        } else if (fail_slow_pending && quiet(shard_c)) {
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
            log("op " + std::to_string(op) + ": fail-slow on shard " +
                std::to_string(shard_c) + " disk " + std::to_string(victim));
        } else if (power_pending && quiet(shard_b)) {
            const auto budget = 1 + rng.next_below(4);
            log("op " + std::to_string(op) + ": power loss armed on shard " +
                std::to_string(shard_b) + " after " + std::to_string(budget) +
                " disk writes" +
                (cfg.persist_enabled ? " (kill on loss)" : ""));
            vol->shard(shard_b).simulate_power_loss_after(budget);
            power_pending = false;
            power_armed = true;
            kill_write_armed = cfg.persist_enabled;
        }

        // Silent corruption rotates across shards, independent of the
        // armed-event chain — flips are supposed to land on degraded and
        // rebuilding shards too (<= 1 masked column keeps each flip
        // inside the two-erasure decode budget).
        if (ev.corrupt_every != 0 && op % ev.corrupt_every == 0 && op != 0) {
            const auto s =
                static_cast<std::uint32_t>(data_flips % nshards);
            if (corruptible(s)) {
                raid::raid6_array& a = vol->shard(s);
                const std::size_t stripe =
                    (data_flips * 7) % a.map().stripes();
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
                log("op " + std::to_string(op) +
                    ": silent corruption on shard " + std::to_string(s) +
                    " disk " + std::to_string(loc.disk) + " stripe " +
                    std::to_string(stripe));
            }
        }

        // The straggler recovers; the quarantine must now be lifted by
        // the monitor's own probes, not by the injection harness.
        if (fail_slow_recover_pending && !fail_slow_pending &&
            slow_victim != UINT32_MAX) {
            if (vol->shard(shard_c).disk(slow_victim)
                    .latency_profile_armed()) {
                vol->shard(shard_c).disk(slow_victim).clear_latency_profile();
                log("op " + std::to_string(op) + ": fail-slow shard " +
                    std::to_string(shard_c) + " disk " +
                    std::to_string(slow_victim) + " recovered");
            }
            fail_slow_recover_pending = false;
        }

        // One workload op over the full volume address space.
        const bool do_write = rng.next_below(10) < cfg.write_tenths;
        const std::size_t len = 1 + rng.next_below(max_io);
        const std::size_t addr = rng.next_below(cap - len + 1);
        const std::span<std::byte> io(buf.data(), len);
        if (do_write) {
            rng.fill(io);
            ++rep.writes;
            if (!vol->write(addr, io)) {
                ++rep.failed_writes;
                log("op " + std::to_string(op) + ": write failed at " +
                    std::to_string(addr) + "+" + std::to_string(len));
            } else if (vol->shard(shard_b).powered()) {
                std::memcpy(shadow.data() + addr, buf.data(), len);
            }
        } else {
            ++rep.reads;
            if (!vol->read(addr, io)) {
                ++rep.failed_reads;
                log("op " + std::to_string(op) + ": read failed at " +
                    std::to_string(addr) + "+" + std::to_string(len));
            } else if (std::memcmp(shadow.data() + addr, buf.data(), len) !=
                       0) {
                ++rep.mismatches;
                log("op " + std::to_string(op) + ": shadow mismatch at " +
                    std::to_string(addr) + "+" + std::to_string(len));
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
                if (!kill_and_remount("mid-write")) {
                    rep.stats = acc;
                    return rep;
                }
            } else {
                ++rep.power_losses;
                log("op " + std::to_string(op) + ": shard " +
                    std::to_string(shard_b) + " power lost, rebooting");
                vol->shard(shard_b).reboot();
                for (int t = 0;
                     t < 16 && vol->shard(shard_b).journal().size() != 0; ++t) {
                    rep.resynced_stripes +=
                        vol->shard(shard_b).recover_write_hole();
                }
            }
            if (do_write) {
                if (vol->read(addr, io)) {
                    std::memcpy(shadow.data() + addr, buf.data(), len);
                } else {
                    ++rep.failed_reads;
                }
            }
        }
    }
    rep.phases.workload_s = phase_clock.seconds();

    // Settle: drain every shard's rebuild, disarm every fault stream,
    // recover write holes, then heal what is left.
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
        rep.resilver_healed += a.resilver();
    }
    rep.phases.settle_s = phase_clock.seconds();

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

    // Final verification: the full volume against the shadow copy...
    phase_clock.restart();
    std::vector<std::byte> out(cap);
    if (!vol->read(0, out)) {
        ++rep.failed_reads;
    } else if (!std::equal(out.begin(), out.end(), shadow.begin())) {
        ++rep.mismatches;
        log("final full-volume read disagrees with the shadow copy");
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

    fold(acc, vol->stats());
    rep.stats = acc;
    rep.spares_promoted = rep.stats.shard_total.spares_promoted;
    rep.rebuilds_completed = rep.stats.shard_total.rebuilds_completed;
    rep.deadline_exceeded = rep.stats.shard_total.deadline_exceeded;
    rep.hedged_reads = rep.stats.shard_total.hedged_reads;
    rep.hedge_wins = rep.stats.shard_total.hedge_wins;
    rep.slow_trips = rep.stats.shard_total.slow_trips;
    rep.slow_recoveries = rep.stats.shard_total.slow_recoveries;

    bool events_ok = true;
    for (std::uint32_t s = 0; s < nshards; ++s) {
        events_ok = events_ok && vol->shard(s).journal().size() == 0;
    }
    std::size_t stops_planned = 0;
    if (ev.fail_stop_a_at_op < cfg.ops) ++stops_planned;
    if (ev.fail_stop_b_at_op < cfg.ops) ++stops_planned;
    events_ok = events_ok && rep.injected_fail_stops >= stops_planned;
    if (cfg.volume.shard.hot_spares > 0 && stops_planned > 0) {
        events_ok = events_ok && rep.spares_promoted >= stops_planned &&
                    rep.rebuilds_completed >= stops_planned;
    }
    if (ev.corrupt_every != 0 && ev.corrupt_every < cfg.ops) {
        events_ok = events_ok && rep.corruptions_injected >= 1 &&
                    rep.stats.shard_total.reads_self_healed +
                            rep.settle_scrub_healed >=
                        1;
    }
    if (cfg.volume.shard.latency.hedged_reads &&
        ev.fail_slow_at_op < cfg.ops) {
        events_ok = events_ok && rep.fail_slow_injected >= 1 &&
                    rep.deadline_exceeded >= 1 && rep.hedge_wins >= 1 &&
                    rep.slow_trips >= 1;
        if (ev.fail_slow_recover_at_op < cfg.ops) {
            events_ok = events_ok && rep.slow_recoveries >= 1;
        }
    }
    if (ev.power_or_kill_at_op < cfg.ops && !cfg.persist_enabled) {
        events_ok = events_ok && rep.power_losses >= 1;
    }
    if (cfg.persist_enabled) {
        events_ok = events_ok && rep.mount_failures == 0 &&
                    rep.kills == rep.remounts;
        if (ev.kill_mid_rebuild_at_op < cfg.ops) {
            events_ok = events_ok && rep.kills >= 1 &&
                        rep.rebuilds_resumed >= 1;
        }
        if (ev.power_or_kill_at_op < cfg.ops) {
            events_ok = events_ok && rep.mount_intent_replayed >= 1;
        }
        capture_obs();
        events_ok = events_ok && vol->unmount();
        rep.success = rep.clean() && events_ok && rep.slo_ok;
        note_failed_verdict();
        return rep;
    }
    capture_obs();
    rep.success = rep.clean() && events_ok && rep.slo_ok;
    note_failed_verdict();
    return rep;
}

}  // namespace liberation::volume
