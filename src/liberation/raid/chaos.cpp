#include "liberation/raid/chaos.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "liberation/obs/flight_recorder.hpp"
#include "liberation/obs/postmortem.hpp"
#include "liberation/raid/persist/mount.hpp"
#include "liberation/raid/scrubber.hpp"
#include "liberation/util/rng.hpp"
#include "liberation/util/timer.hpp"

namespace liberation::raid {

namespace {

/// Per-disk fault streams must be decorrelated from each other and from
/// the workload stream; splitmix-style odd multiplier does that cheaply.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t n) {
    return seed ^ (0x9e3779b97f4a7c15ULL * (n + 1));
}

[[nodiscard]] std::uint32_t pick_online_disk(raid6_array& a,
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

/// Counters must survive the kill-and-remount phases: each generation's
/// final snapshot is folded into the campaign totals before the array
/// object is destroyed.
void accumulate(array_stats& into, const array_stats& s) {
    into.full_stripe_writes += s.full_stripe_writes;
    into.small_writes += s.small_writes;
    into.parity_elements_updated += s.parity_elements_updated;
    into.degraded_stripe_reads += s.degraded_stripe_reads;
    into.degraded_element_reads += s.degraded_element_reads;
    into.media_errors_recovered += s.media_errors_recovered;
    into.transient_errors_masked += s.transient_errors_masked;
    into.retries_exhausted += s.retries_exhausted;
    into.disks_tripped += s.disks_tripped;
    into.spares_promoted += s.spares_promoted;
    into.rebuilds_completed += s.rebuilds_completed;
    into.rebuild_stripes_failed += s.rebuild_stripes_failed;
    into.rebuild_sessions_stalled += s.rebuild_sessions_stalled;
    into.checksum_mismatches += s.checksum_mismatches;
    into.reads_self_healed += s.reads_self_healed;
    into.reads_unrecoverable += s.reads_unrecoverable;
    into.checksum_metadata_repaired += s.checksum_metadata_repaired;
    into.writes_rejected_log_full += s.writes_rejected_log_full;
    into.deadline_exceeded += s.deadline_exceeded;
    into.hedged_reads += s.hedged_reads;
    into.hedge_wins += s.hedge_wins;
    into.slow_trips += s.slow_trips;
    into.slow_recoveries += s.slow_recoveries;
    into.slow_routed_reads += s.slow_routed_reads;
    into.intent_replayed += s.intent_replayed;
    into.stale_disks_kicked += s.stale_disks_kicked;
    into.aio_batches += s.aio_batches;
    into.aio_merges += s.aio_merges;
    into.aio_split_retries += s.aio_split_retries;
    into.aio_inflight_highwater =
        std::max(into.aio_inflight_highwater, s.aio_inflight_highwater);
}

void accumulate(io_policy_stats& into, const io_policy_stats& s) {
    into.reads += s.reads;
    into.writes += s.writes;
    into.retries += s.retries;
    into.transient_masked += s.transient_masked;
    into.retries_exhausted += s.retries_exhausted;
    into.backoff_us += s.backoff_us;
}

}  // namespace

chaos_config default_chaos_config(std::uint64_t seed, std::size_t ops) {
    chaos_config cfg;
    cfg.seed = seed;
    cfg.ops = ops;
    cfg.array.k = 4;
    cfg.array.element_size = 512;
    cfg.array.stripes = 32;
    cfg.array.sector_size = 512;
    // One spare each for the injected fail-stop and the health trip.
    cfg.array.hot_spares = 2;
    cfg.array.rebuild_batch_stripes = 4;
    // Baseline transient rates are masked by retries and must NOT trip
    // disks; only *hard* (retry-exhausted) errors count, which the storm
    // disk produces almost immediately at storm_rate = 0.9
    // (0.9^4 ≈ 0.66 per I/O) while baseline disks essentially never do
    // (0.01^4 = 1e-8 per read).
    cfg.array.health.max_transient_errors = 0;  // disabled
    cfg.array.health.max_read_errors = 20;
    cfg.array.health.max_write_errors = 1;  // md: first lost write trips
    return cfg;
}

chaos_report run_chaos_campaign(const chaos_config& cfg) {
    chaos_report rep;
    const chaos_persist_plan& pp = cfg.persist;
    std::unique_ptr<raid6_array> arr;
    if (pp.enabled) {
        persist::store_config scfg;
        scfg.dir = pp.dir;
        scfg.sync_meta = pp.sync_meta;
        // Fixed uuid: the campaign replays bit-for-bit from the seed.
        arr = persist::create_array(cfg.array, scfg,
                                    derive_seed(cfg.seed, 0xA11A) | 1);
        if (!arr) {
            ++rep.mount_failures;
            return rep;
        }
    } else {
        arr = std::make_unique<raid6_array>(cfg.array);
    }
    util::xoshiro256 rng(cfg.seed);
    const auto log = [&](const std::string& msg) {
        if (cfg.log) cfg.log(msg);
    };
    if (cfg.trace) arr->obs().trace().enable();
    // SLO engine over the array's hub. The hub dies with each
    // kill-and-remount generation, so the engine is rebuilt per
    // generation and the sticky ever-violated bit folded across.
    std::unique_ptr<obs::slo_engine> slo;
    bool slo_ever_violated = false;
    const auto make_slo = [&] {
        if (cfg.slo.empty()) return;
        slo = std::make_unique<obs::slo_engine>(arr->obs(), cfg.slo,
                                                cfg.slo_window_ns);
        slo->evaluate();  // baseline frame at generation start
    };
    make_slo();
    // The array (and its observability hub) is local to this run; capture
    // the exports into the report on every return path.
    const auto capture_obs = [&] {
        if (slo != nullptr) {
            slo->evaluate();
            slo_ever_violated = slo_ever_violated || slo->ever_violated();
            rep.slo_text = slo->text();
            rep.slo_ok = !slo_ever_violated;
        }
        rep.metrics_text = arr->obs().metrics_text();
        rep.histograms = arr->obs().histogram_snapshots();
        if (cfg.trace) rep.trace_json = arr->obs().trace_json();
    };
    util::stopwatch phase_clock;

    // Counter continuity across kill-and-remount generations: fault
    // streams and stats are process-local, so each generation re-arms
    // (with a derived, decorrelated seed) and folds its totals in.
    array_stats acc_stats{};
    io_policy_stats acc_io{};
    std::uint64_t generation = 0;

    // Arm baseline transient rates on every starting disk (spares are
    // armed only if promoted hardware were flaky — they are not; a
    // promoted spare is fresh hardware, which is also what keeps the
    // post-storm array quiet enough to finish its rebuild).
    const auto arm_transients = [&] {
        if (cfg.transient_read_rate <= 0.0 && cfg.transient_write_rate <= 0.0) {
            return;
        }
        for (std::uint32_t d = 0; d < arr->disk_count(); ++d) {
            arr->disk(d).set_transient_fault_rates(
                cfg.transient_read_rate, cfg.transient_write_rate,
                derive_seed(cfg.seed, d + 64 * generation));
        }
    };
    arm_transients();

    // Destroy the array with no unmount — the on-disk state of an abrupt
    // process death — then reassemble it from the backing files.
    const auto kill_and_remount = [&](const std::string& why) {
        accumulate(acc_stats, arr->stats());
        accumulate(acc_io, arr->io_stats());
        // The engine references the dying hub: fold its verdict and drop
        // it before the array goes away.
        if (slo != nullptr) {
            slo->evaluate();
            slo_ever_violated = slo_ever_violated || slo->ever_violated();
            slo.reset();
        }
        arr.reset();
        ++rep.kills;
        log("kill (" + why + "): process state dropped, remounting");
        util::stopwatch mount_clock;
        persist::mount_options mo;
        mo.store.dir = pp.dir;
        mo.store.sync_meta = pp.sync_meta;
        mo.io_queue_depth = cfg.array.io_queue_depth;
        mo.io_workers = cfg.array.io_workers;
        mo.verify_reads = cfg.array.verify_reads;
        mo.io_retry = cfg.array.io_retry;
        mo.health = cfg.array.health;
        mo.rebuild_batch_stripes = cfg.array.rebuild_batch_stripes;
        mo.auto_failover = cfg.array.auto_failover;
        mo.obs_virtual_time = cfg.array.obs_virtual_time;
        persist::mounted_array m = persist::mount_array(mo);
        rep.phases.mount_replay_s += mount_clock.seconds();
        if (!m.report.ok) {
            ++rep.mount_failures;
            log("remount FAILED: " + m.report.error);
            return false;
        }
        arr = std::move(m.array);
        ++rep.remounts;
        rep.mount_intent_replayed += m.report.intent_replayed;
        rep.stale_disks_kicked += m.report.stale_kicked + m.report.unreadable;
        rep.rebuilds_resumed += m.report.rebuilds_resumed;
        ++generation;
        arm_transients();
        if (cfg.trace) arr->obs().trace().enable();
        make_slo();
        log("remounted: " + std::to_string(m.report.disks_online) + "/" +
            std::to_string(m.report.disks_total) + " online, " +
            std::to_string(m.report.intent_replayed) + " stripes replayed");
        return true;
    };

    // Initial fill + shadow copy: every later read has a ground truth.
    const std::size_t cap = arr->capacity();
    std::vector<std::byte> shadow(cap);
    rng.fill(shadow);
    if (!arr->write(0, shadow)) {
        ++rep.failed_writes;
        rep.stats = arr->stats();
        rep.phases.fill_s = phase_clock.seconds();
        capture_obs();
        return rep;
    }
    rep.phases.fill_s = phase_clock.seconds();

    const std::size_t max_io = cfg.max_io_bytes != 0
                                   ? std::min(cfg.max_io_bytes, cap)
                                   : std::min(2 * arr->map().stripe_data_size(), cap);
    std::vector<std::byte> buf(max_io);

    const chaos_event_plan& ev = cfg.events;
    bool fail_stop_pending = false;
    bool storm_pending = false;
    bool power_pending = false;
    bool power_armed = false;  // budget set, loss not yet observed
    bool kill_write_pending = false;
    bool kill_write_armed = false;  // on the budget's loss: kill, not reboot
    bool kill_rebuild_pending = false;
    bool kill_scrub_pending = false;
    bool fail_slow_pending = false;
    bool fail_slow_recover_pending = false;
    std::uint32_t slow_victim = UINT32_MAX;

    // An event only fires when the array is quiet — no failed disk, no
    // rebuild in flight — so faults never stack beyond the two erasures
    // RAID-6 tolerates by construction.
    const auto quiet = [&] {
        return arr->failed_disk_count() == 0 && !arr->rebuild_active() &&
               arr->powered() && !power_armed;
    };

    // Silent corruption is injected under a *looser* gate than the armed
    // events: it fires while healthy, degraded, and rebuilding — any state
    // with at most one masked column, so a flipped column stays within the
    // two-erasure decode budget. Torn (journaled) stripes are excluded:
    // their mismatches belong to write-hole recovery, not to the
    // corruption classifier.
    const auto corruptible = [&] {
        return arr->powered() && !power_armed && arr->failed_disk_count() == 0 &&
               arr->rebuilding_disk_count() <= 1 && arr->journal().size() == 0;
    };
    std::size_t data_flips = 0;

    phase_clock.restart();
    for (std::size_t op = 0; op < cfg.ops; ++op) {
        if (slo != nullptr && cfg.slo_every_ops != 0 && op != 0 &&
            op % cfg.slo_every_ops == 0) {
            slo->evaluate();
        }
        if (op == ev.fail_stop_at_op) fail_stop_pending = true;
        if (op == ev.health_storm_at_op) storm_pending = true;
        if (op == ev.power_loss_at_op) power_pending = true;
        if (op == ev.fail_slow_at_op) fail_slow_pending = true;
        if (op == ev.fail_slow_recover_at_op) fail_slow_recover_pending = true;
        if (pp.enabled) {
            if (op == pp.kill_mid_write_at_op) kill_write_pending = true;
            if (op == pp.kill_mid_rebuild_at_op) kill_rebuild_pending = true;
            if (op == pp.kill_mid_scrub_at_op) kill_scrub_pending = true;
        }

        // The mid-rebuild kill deliberately inverts the quiet() gate: it
        // fires at the first op with a rebuild actually in flight, so the
        // remount must resume it from the persisted watermark.
        if (kill_rebuild_pending && arr->rebuild_active() && arr->powered() &&
            !power_armed) {
            kill_rebuild_pending = false;
            log("op " + std::to_string(op) + ": killing mid-rebuild");
            if (!kill_and_remount("mid-rebuild")) {
                rep.stats = acc_stats;
                rep.io = acc_io;
                return rep;
            }
        }

        // Fire at most one armed event per op, oldest first.
        if (fail_stop_pending && quiet()) {
            const std::uint32_t victim = pick_online_disk(*arr, rng);
            log("op " + std::to_string(op) + ": fail-stop disk " +
                std::to_string(victim));
            arr->fail_disk(victim);
            ++rep.injected_fail_stops;
            fail_stop_pending = false;
            if (ev.degraded_scrub) {
                // The array is now degraded (a spare's rebuild has barely
                // started, or no spare exists at all). Corrupt a survivor
                // column of the last stripe — far from the rebuild cursor —
                // and scrub immediately: the checksum-first scrubber must
                // repair corruption on a degraded stripe, which the parity
                // cross-check scrubber could only skip.
                const std::size_t s = arr->map().stripes() - 1;
                for (std::uint32_t c = 0; c < arr->map().n(); ++c) {
                    const strip_location loc = arr->map().locate(s, c);
                    if (loc.disk == victim || !arr->disk(loc.disk).online()) {
                        continue;
                    }
                    arr->disk(loc.disk).inject_silent_corruption(loc.offset, 32,
                                                              rng);
                    ++rep.corruptions_injected;
                    log("op " + std::to_string(op) +
                        ": corrupted survivor disk " +
                        std::to_string(loc.disk) + " on degraded stripe " +
                        std::to_string(s));
                    break;
                }
                const scrub_summary mid = scrub_array(*arr);
                rep.degraded_scrub_repairs += mid.repaired_on_degraded;
            }
        } else if (storm_pending && quiet()) {
            const std::uint32_t victim = pick_online_disk(*arr, rng);
            log("op " + std::to_string(op) + ": transient storm on disk " +
                std::to_string(victim));
            arr->disk(victim).set_transient_fault_rates(
                cfg.storm_rate, cfg.storm_rate, derive_seed(cfg.seed, 1000));
            storm_pending = false;
        } else if (power_pending && quiet()) {
            const auto budget = 1 + rng.next_below(4);
            log("op " + std::to_string(op) + ": power loss armed after " +
                std::to_string(budget) + " disk writes");
            arr->simulate_power_loss_after(budget);
            power_pending = false;
            power_armed = true;
        } else if (kill_write_pending && quiet()) {
            // Armed exactly like a power loss: a few disk writes into some
            // stripe update the plug is pulled — but instead of rebooting
            // the same array object, the process dies and the array is
            // remounted from the files, which must replay the intent log.
            const auto budget = 1 + rng.next_below(4);
            log("op " + std::to_string(op) + ": mid-write kill armed after " +
                std::to_string(budget) + " disk writes");
            arr->simulate_power_loss_after(budget);
            kill_write_pending = false;
            kill_write_armed = true;
            power_armed = true;
        } else if (kill_scrub_pending && quiet() &&
                   arr->journal().size() == 0) {
            // Mid-scrub crash point: damage is sitting on the medium, the
            // scrub that would heal it never finishes. The corruption must
            // survive the remount round-trip (the files hold the corrupt
            // bytes, the persisted checksums still describe the original
            // data) and the post-remount scrub must repair it.
            const std::size_t s = arr->map().stripes() / 2;
            const auto c =
                static_cast<std::uint32_t>(rng.next_below(arr->map().n()));
            const strip_location loc = arr->map().locate(s, c);
            arr->disk(loc.disk).inject_silent_corruption(loc.offset, 32, rng);
            ++rep.corruptions_injected;
            kill_scrub_pending = false;
            log("op " + std::to_string(op) + ": killing mid-scrub (disk " +
                std::to_string(loc.disk) + " stripe " + std::to_string(s) +
                " corrupt and unhealed)");
            if (!kill_and_remount("mid-scrub")) {
                rep.stats = acc_stats;
                rep.io = acc_io;
                return rep;
            }
            const scrub_summary after = scrub_array(*arr);
            rep.remount_scrub_repairs += after.repaired_data +
                                         after.repaired_parity +
                                         after.repaired_metadata;
            rep.scrub_uncorrectable += after.uncorrectable;
        } else if (fail_slow_pending && quiet()) {
            // Gray failure: the disk keeps answering correctly but every
            // service takes fail_slow_base_us. Constant shape so the
            // deadline-miss streak is unbroken — the monitor must first
            // hedge around individual late reads, then trip the disk into
            // suspect_slow once the lateness proves persistent.
            const std::uint32_t victim = pick_online_disk(*arr, rng);
            latency_profile prof;
            prof.kind = latency_profile::shape::constant;
            prof.base_us = ev.fail_slow_base_us;
            prof.jitter_us = ev.fail_slow_base_us / 4;
            arr->disk(victim).set_latency_profile(
                prof, derive_seed(cfg.seed, 2000 + 64 * generation));
            slow_victim = victim;
            ++rep.fail_slow_injected;
            fail_slow_pending = false;
            log("op " + std::to_string(op) + ": fail-slow on disk " +
                std::to_string(victim) + " (" +
                std::to_string(ev.fail_slow_base_us) + "us per service)");
        } else if (ev.latent_error_every != 0 && op % ev.latent_error_every == 0 &&
                   op != 0 && quiet()) {
            const std::uint32_t victim = pick_online_disk(*arr, rng);
            const std::size_t dcap = arr->disk(victim).capacity();
            const std::size_t off =
                rng.next_below(dcap / cfg.array.sector_size) *
                cfg.array.sector_size;
            arr->disk(victim).inject_latent_error(off, cfg.array.sector_size);
            ++rep.latent_errors_injected;
        }

        // Silent corruption, independent of the armed-event chain (it is
        // what the chain's quiet() gate exists to serialize; flips are
        // *supposed* to land while a rebuild is in flight).
        if (ev.corrupt_every != 0 && op % ev.corrupt_every == 0 && op != 0 &&
            corruptible()) {
            // Rotate stripes with a stride coprime to the stripe count:
            // corruption lingers until a read or scrub heals it, and piling
            // three unhealed flips onto one stripe would exceed what any
            // two-parity code can repair.
            const std::size_t s = (data_flips * 7) % arr->map().stripes();
            ++data_flips;
            const auto c =
                static_cast<std::uint32_t>(rng.next_below(arr->map().n()));
            const strip_location loc = arr->map().locate(s, c);
            const std::size_t block = arr->integrity_block();
            const std::size_t off =
                loc.offset +
                rng.next_below(arr->map().strip_size() / block) * block;
            const std::size_t len =
                1 + rng.next_below(std::min<std::size_t>(64, block));
            arr->disk(loc.disk).inject_silent_corruption(off, len, rng);
            ++rep.corruptions_injected;
            log("op " + std::to_string(op) + ": silent corruption on disk " +
                std::to_string(loc.disk) + " stripe " + std::to_string(s));
        }
        if (ev.corrupt_integrity_every != 0 &&
            op % ev.corrupt_integrity_every == 0 && op != 0 &&
            corruptible()) {
            // Flip a stored checksum instead of the data it covers: the
            // verify/decode machinery must conclude the *metadata* is the
            // damaged side and refresh it, never "heal" the good data.
            const std::uint32_t victim = pick_online_disk(*arr, rng);
            integrity::integrity_region& region = arr->integrity(victim);
            const std::size_t b = rng.next_below(region.blocks());
            region.corrupt_block(
                b, static_cast<std::uint32_t>(rng.next() | 1));
            ++rep.integrity_corruptions_injected;
            log("op " + std::to_string(op) +
                ": checksum metadata flip on disk " + std::to_string(victim));
        }

        // The straggler recovers (GC pass ended, link renegotiated).
        // Independent of the armed-event chain: clearing a profile is
        // safe in any array state. The quarantine must now be lifted by
        // the monitor's own probes, not by the injection harness.
        if (fail_slow_recover_pending && !fail_slow_pending &&
            slow_victim != UINT32_MAX) {
            if (arr->disk(slow_victim).latency_profile_armed()) {
                arr->disk(slow_victim).clear_latency_profile();
                log("op " + std::to_string(op) + ": fail-slow disk " +
                    std::to_string(slow_victim) + " recovered");
            }
            fail_slow_recover_pending = false;
        }

        // One workload op.
        const bool do_write = rng.next_below(10) < cfg.write_tenths;
        const std::size_t len = 1 + rng.next_below(max_io);
        const std::size_t addr = rng.next_below(cap - len + 1);
        const std::span<std::byte> io(buf.data(), len);
        if (do_write) {
            rng.fill(io);
            ++rep.writes;
            if (!arr->write(addr, io)) {
                ++rep.failed_writes;
                log("op " + std::to_string(op) + ": write failed at " +
                    std::to_string(addr) + "+" + std::to_string(len));
            } else if (arr->powered()) {
                std::memcpy(shadow.data() + addr, buf.data(), len);
            }
        } else {
            ++rep.reads;
            if (!arr->read(addr, io)) {
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

        // Power loss fired mid-op: reboot, re-sync the journaled (torn)
        // stripes from their data columns, then reconcile the shadow with
        // whichever mix of old/new data the torn write left behind — that
        // on-disk state is now the ground truth, exactly as a real host
        // sees after an unclean shutdown.
        if (!arr->powered()) {
            power_armed = false;
            if (kill_write_armed) {
                // The mid-write crash point: the process dies with the
                // torn write on disk and the intent entry persisted.
                // mount_array() replays the journal before handing the
                // array back (counted in mount_intent_replayed).
                kill_write_armed = false;
                if (!kill_and_remount("mid-write")) {
                    rep.stats = acc_stats;
                    rep.io = acc_io;
                    return rep;
                }
            } else {
                ++rep.power_losses;
                log("op " + std::to_string(op) + ": power lost, rebooting");
                arr->reboot();
                // Baseline transients can defer individual stripes; retry.
                for (int t = 0; t < 16 && arr->journal().size() != 0; ++t)
                    rep.resynced_stripes += arr->recover_write_hole();
            }
            if (do_write) {
                if (arr->read(addr, io)) {
                    std::memcpy(shadow.data() + addr, buf.data(), len);
                } else {
                    ++rep.failed_reads;
                }
            }
        }
    }

    rep.phases.workload_s = phase_clock.seconds();

    // Settle: finish the background rebuild, disarm every fault stream,
    // then heal what is left (latent sectors on strips the workload never
    // re-read, including parity strips only resilver visits).
    phase_clock.restart();
    arr->drain_background_rebuild();
    for (std::uint32_t d = 0; d < arr->disk_count(); ++d) {
        arr->disk(d).clear_transient_faults();
        arr->disk(d).clear_latency_profile();
    }
    for (int t = 0; t < 16 && arr->journal().size() != 0; ++t)
        rep.resynced_stripes += arr->recover_write_hole();
    rep.resilver_healed = arr->resilver();
    rep.phases.settle_s = phase_clock.seconds();

    phase_clock.restart();
    // Settle scrub: heal injected corruption the workload never re-read
    // (including parity strips, which host reads only touch when
    // degraded). Its parity-fallback repairs are damage the checksum
    // domain could not see — a stripe left torn without being journaled —
    // and count against the write-hole invariant.
    const scrub_summary settle = scrub_array(*arr);
    rep.settle_scrub_healed = settle.repaired_data + settle.repaired_parity +
                              settle.repaired_metadata;
    rep.final_torn += settle.parity_fallback_repairs;
    rep.scrub_uncorrectable += settle.uncorrectable;
    rep.phases.settle_scrub_s = phase_clock.seconds();

    // Final verification: full device vs shadow...
    phase_clock.restart();
    std::vector<std::byte> out(cap);
    if (!arr->read(0, out)) {
        ++rep.failed_reads;
    } else if (!std::equal(out.begin(), out.end(), shadow.begin())) {
        ++rep.mismatches;
        log("final full-device read disagrees with the shadow copy");
    }

    // ...then per-stripe availability and a full checksum sweep: after the
    // settle scrub, every readable column must verify against its stored
    // checksum — this is the "no unverified bytes survive the campaign"
    // invariant.
    {
        codes::stripe_buffer sbuf = arr->make_stripe_buffer();
        std::vector<std::uint32_t> erased;
        for (std::size_t s = 0; s < arr->map().stripes(); ++s) {
            if (!arr->load_stripe(s, sbuf.view(), erased)) {
                ++rep.final_unrecovered;
                continue;
            }
            if (!erased.empty()) ++rep.final_degraded;
            for (std::uint32_t c = 0; c < arr->map().n(); ++c) {
                if (std::find(erased.begin(), erased.end(), c) !=
                    erased.end()) {
                    continue;
                }
                const strip_location loc = arr->map().locate(s, c);
                if (!arr->integrity(loc.disk).verify(loc.offset,
                                                  sbuf.view().strip(c))) {
                    ++rep.final_checksum_bad;
                }
            }
        }
    }

    rep.phases.final_verify_s = phase_clock.seconds();

    // ...then parity consistency. The settle scrub already healed every
    // injected fault, so any repair the scrubber performs here means some
    // path left a stripe inconsistent after recovery claimed it was done.
    phase_clock.restart();
    const scrub_summary scrub = scrub_array(*arr);
    rep.final_torn += scrub.repaired_data + scrub.repaired_parity;
    rep.scrub_uncorrectable += scrub.uncorrectable;
    rep.phases.final_scrub_s = phase_clock.seconds();

    accumulate(acc_stats, arr->stats());
    accumulate(acc_io, arr->io_stats());
    rep.stats = acc_stats;
    rep.io = acc_io;
    rep.health_trips = rep.stats.disks_tripped;
    rep.spares_promoted = rep.stats.spares_promoted;
    rep.rebuilds_completed = rep.stats.rebuilds_completed;
    rep.deadline_exceeded = rep.stats.deadline_exceeded;
    rep.hedged_reads = rep.stats.hedged_reads;
    rep.hedge_wins = rep.stats.hedge_wins;
    rep.slow_trips = rep.stats.slow_trips;
    rep.slow_recoveries = rep.stats.slow_recoveries;

    bool events_ok = arr->journal().size() == 0;
    if (ev.fail_stop_at_op < cfg.ops) {
        events_ok = events_ok && rep.injected_fail_stops >= 1;
    }
    if (ev.health_storm_at_op < cfg.ops && cfg.storm_rate > 0.0) {
        events_ok = events_ok && rep.health_trips >= 1;
    }
    if (ev.power_loss_at_op < cfg.ops) {
        events_ok = events_ok && rep.power_losses >= 1;
    }
    if (cfg.array.hot_spares > 0 &&
        (ev.fail_stop_at_op < cfg.ops || ev.health_storm_at_op < cfg.ops)) {
        events_ok = events_ok && rep.spares_promoted >= 1 &&
                    rep.rebuilds_completed >= 1;
    }
    if (ev.corrupt_every != 0 && ev.corrupt_every < cfg.ops) {
        // The campaign must not only survive silent corruption but visibly
        // exercise the self-healing read path.
        events_ok = events_ok && rep.corruptions_injected >= 1 &&
                    rep.stats.reads_self_healed >= 1;
    }
    if (ev.corrupt_integrity_every != 0 &&
        ev.corrupt_integrity_every < cfg.ops) {
        events_ok = events_ok && rep.integrity_corruptions_injected >= 1 &&
                    rep.stats.checksum_metadata_repaired >= 1;
    }
    if (ev.degraded_scrub && ev.fail_stop_at_op < cfg.ops) {
        events_ok = events_ok && rep.degraded_scrub_repairs >= 1;
    }
    if (cfg.array.latency.hedged_reads && ev.fail_slow_at_op < cfg.ops) {
        // The fail-slow plan must visibly exercise the whole tolerance
        // chain: late reads detected, hedges that beat the straggler,
        // and a quarantine trip.
        events_ok = events_ok && rep.fail_slow_injected >= 1 &&
                    rep.deadline_exceeded >= 1 && rep.hedge_wins >= 1 &&
                    rep.slow_trips >= 1;
        if (ev.fail_slow_recover_at_op < cfg.ops) {
            events_ok = events_ok && rep.slow_recoveries >= 1;
        }
    }
    if (pp.enabled) {
        // Every kill must have remounted, every planned crash point must
        // have demonstrated its recovery path.
        events_ok = events_ok && rep.mount_failures == 0 &&
                    rep.kills == rep.remounts;
        if (pp.kill_mid_write_at_op < cfg.ops) {
            events_ok = events_ok && rep.kills >= 1 &&
                        rep.mount_intent_replayed >= 1;
        }
        if (pp.kill_mid_rebuild_at_op < cfg.ops) {
            events_ok = events_ok && rep.rebuilds_resumed >= 1;
        }
        if (pp.kill_mid_scrub_at_op < cfg.ops) {
            events_ok = events_ok && rep.remount_scrub_repairs >= 1;
        }
        // The campaign's own exit is clean: stamp the superblocks so the
        // *next* mount of the directory sees a clean shutdown.
        events_ok = events_ok && arr->unmount();
    }
    capture_obs();
    rep.success = rep.clean() && events_ok && rep.slo_ok;
    if (!rep.success) {
        // Failed verdict: breadcrumb + automatic bundle (opt-in via
        // LIBERATION_POSTMORTEM_DIR) with everything already captured.
        obs::flight_recorder::instance().record(obs::fr_kind::verdict_failed,
                                                arr->obs().now_ns());
        obs::postmortem_bundle b;
        b.metrics_text = rep.metrics_text;
        b.trace_json = rep.trace_json;
        b.slo_text = rep.slo_text;
        (void)obs::auto_postmortem("chaos_verdict", nullptr, std::move(b));
    }
    return rep;
}

}  // namespace liberation::raid
