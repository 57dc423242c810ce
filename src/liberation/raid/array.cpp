#include "liberation/raid/array.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>

#include "liberation/aio/stripe_io.hpp"
#include "liberation/core/error_correction.hpp"
#include "liberation/core/update.hpp"
#include "liberation/obs/flight_recorder.hpp"
#include "liberation/obs/postmortem.hpp"
#include "liberation/raid/persist/store.hpp"
#include "liberation/raid/rebuild.hpp"
#include "liberation/util/assert.hpp"
#include "liberation/util/primes.hpp"
#include "liberation/xorops/xorops.hpp"

namespace liberation::raid {

namespace {

std::uint32_t effective_p(const array_config& cfg) {
    return cfg.p != 0 ? cfg.p : util::next_odd_prime(cfg.k);
}

}  // namespace

raid6_array::raid6_array(const array_config& cfg, bool allocate_members)
    : map_(cfg.k, effective_p(cfg), cfg.element_size, cfg.stripes, cfg.layout),
      code_(cfg.k, effective_p(cfg)),
      sector_size_(cfg.sector_size),
      journal_(cfg.intent_log_entries),
      integrity_block_(std::gcd(cfg.sector_size, map_.element_size())),
      in_place_(xorops::reads_in_place(map_.element_size())),
      read_scratch_(in_place_ ? 0 : map_.strip_size()),
      policy_(cfg.io_retry, clock_, &obs_),
      health_(map_.n(), cfg.health),
      latmon_(map_.n(), cfg.latency),
      auto_failover_(cfg.auto_failover),
      rebuild_batch_stripes_(cfg.rebuild_batch_stripes == 0
                                 ? 1
                                 : cfg.rebuild_batch_stripes),
      next_disk_id_(map_.n() + cfg.hot_spares) {
    // Intent-log column masks are 64-bit (see intent_log::mark).
    LIBERATION_EXPECTS(map_.n() <= 64);
    // Every host read is verified; there is no unverified mode to select.
    LIBERATION_EXPECTS(cfg.verify_reads);
    disks_.reserve(map_.n());
    regions_.reserve(map_.n());
    for (std::uint32_t d = 0; d < map_.n(); ++d) {
        disks_.push_back(std::make_unique<vdisk>(
            d, map_.disk_capacity(), cfg.sector_size, allocate_members));
        regions_.emplace_back(map_.disk_capacity(), integrity_block_);
    }
    spares_.reserve(cfg.hot_spares);
    for (std::uint32_t s = 0; s < cfg.hot_spares; ++s) {
        spares_.push_back(std::make_unique<vdisk>(
            map_.n() + s, map_.disk_capacity(), cfg.sector_size));
    }
    init_obs(cfg);
    aio::aio_config acfg;
    acfg.queue_depth = cfg.io_queue_depth;
    acfg.obs = &obs_;
    rebuild_aio_engine(acfg);
}

raid6_array::~raid6_array() = default;

void raid6_array::init_obs(const array_config& cfg) {
    if (cfg.obs_virtual_time) obs_.set_clock(&virtual_clock_now_ns, &clock_);
    auto& m = obs_.metrics();
    hist_read_ = &m.get_histogram(
        "raid_read_ns", "host read latency (verified-read path included)");
    hist_write_full_ = &m.get_histogram("raid_write_full_stripe_ns",
                                        "full-stripe write latency");
    hist_write_small_ = &m.get_histogram(
        "raid_write_small_ns", "small (read-modify-write) write latency");
    // Registered here (not recorded here) so the exposition always shows
    // the families: rebuild.cpp and scrubber.cpp record into them.
    (void)m.get_histogram("raid_rebuild_window_ns",
                          "rebuild window latency (rebuild_stripe_range)");
    (void)m.get_histogram("raid_scrub_stripe_ns", "per-stripe scrub latency");
    // Recorded by persist::mount_array when this array is assembled from a
    // store; registered here so the family is always in the exposition.
    (void)m.get_histogram("raid_mount_ns",
                          "persistent-array mount latency "
                          "(probe, mapping, intent replay)");
    hist_hedge_delay_ = &m.get_histogram(
        "raid_hedge_delay_ns",
        "hedge-issue to first-completion delay of hedged reads");
    gauge_failed_disks_ =
        &m.get_gauge("raid_failed_disks", "disks currently failed");
    gauge_spares_ =
        &m.get_gauge("raid_spares_available", "hot spares still in the pool");
    gauge_rebuild_remaining_ = &m.get_gauge(
        "raid_rebuild_stripes_remaining",
        "stripes the background rebuild session has yet to process");
    gauge_journal_ = &m.get_gauge(
        "raid_intent_log_entries", "stripes journaled in the intent log");
    gauge_spares_->set(static_cast<std::int64_t>(spares_.size()));
    slot_ctr_.reserve(map_.n());
    for (std::uint32_t d = 0; d < map_.n(); ++d) add_slot_counters(d);
}

void raid6_array::add_slot_counters(std::uint32_t d) {
    slot_ctr_.emplace_back(obs_.metrics(),
                           "disk=\"" + std::to_string(d) + "\"");
}

void raid6_array::update_health_gauges() noexcept {
    gauge_failed_disks_->set(failed_disk_count());
    gauge_spares_->set(static_cast<std::int64_t>(spares_.size()));
    gauge_rebuild_remaining_->set(
        static_cast<std::int64_t>(rebuild_stripes_remaining()));
}

void raid6_array::rebuild_aio_engine(const aio::aio_config& acfg) {
    full_writer_.reset();
    aio_engine_ = std::make_unique<aio::queue_pair>(backend_, map_.n(), acfg);
    full_writer_ = std::make_unique<aio::stripe_writer>(*aio_engine_, map_,
                                                        integrity_block_);
    scratch_.clear();
    reserve_scratch(1);
    // Checksum verification as a completion-stage decorator: it sees the
    // final status of the execution stage, so transient errors have
    // already been retried (a mismatch, by contrast, is never retried —
    // re-reading rotten bytes cannot un-rot them). Mirrors
    // verified_disk_read() on the element-granular read path.
    aio_engine_->add_completion_stage(
        [this](const aio::io_desc& d, io_status st) {
            if (st != io_status::ok || d.kind == aio::op_kind::write ||
                (d.flags & aio::flag_verify) == 0) {
                return st;
            }
            const std::byte* bytes =
                kernel_bytes(d.data, d.len, read_scratch_.data());
            if (!regions_[d.disk].verify(d.offset, {bytes, d.len})) {
                ctr_.inc<&array_stats::checksum_mismatches>();
                return io_status::checksum_mismatch;
            }
            return st;
        });
}

io_status raid6_array::disk_backend::execute(const aio::io_desc& d) {
    if (d.kind == aio::op_kind::read) {
        return owner.disk_read(d.disk, d.offset,
                               std::span<std::byte>(d.data, d.len));
    }
    return owner.disk_write(
        d.disk, d.offset, std::span<const std::byte>(d.data, d.len), d.crcs);
}

io_status raid6_array::disk_backend::view(const aio::io_desc& d,
                                          const std::byte*& out) {
    return owner.disk_view(d.disk, d.offset, d.len, out);
}

void raid6_array::add_data_disk() {
    // A persistent array's on-disk framing (file count, slot tables,
    // checksum table sizes) is fixed at format time; growth would need a
    // reshape pass the store does not implement.
    LIBERATION_EXPECTS(store_ == nullptr);
    LIBERATION_EXPECTS(map_.layout() == parity_layout::parity_first);
    LIBERATION_EXPECTS(map_.k() < code_.p());
    LIBERATION_EXPECTS(failed_disk_count() == 0);
    const std::uint32_t new_k = map_.k() + 1;
    disks_.push_back(std::make_unique<vdisk>(next_disk_id_++,
                                             map_.disk_capacity(),
                                             sector_size_));
    map_ = stripe_map(new_k, map_.rows(), map_.element_size(), map_.stripes(),
                      parity_layout::parity_first);
    code_ = core::liberation_optimal_code(new_k, code_.p());
    plans_.clear();  // planned for the old geometry
    LIBERATION_EXPECTS(map_.n() <= 64);
    // The new column is blank (all zeros), which is exactly what a fresh
    // integrity region describes.
    regions_.emplace_back(map_.disk_capacity(), integrity_block_);
    health_.add_disk();
    latmon_.add_disk();
    add_slot_counters(map_.n() - 1);
    // The engine's per-disk rings are sized at construction; rebuild it
    // for the grown array (it is idle here — growth requires all disks
    // online and no I/O in flight). Its counters live in the hub's
    // registry, so the new engine continues them.
    rebuild_aio_engine(aio_engine_->config());
}

std::uint32_t raid6_array::failed_disk_count() const noexcept {
    std::uint32_t n = 0;
    for (const auto& d : disks_) {
        if (!d->online()) ++n;
    }
    return n;
}

// ---- I/O funnel ------------------------------------------------------

bool raid6_array::rebuild_masked(std::uint32_t d, std::size_t offset,
                                 std::size_t len) const noexcept {
    if (!rebuild_active_) return false;
    // Strips at or past the member's cursor are blank. The mask covers
    // the whole extent when its *last* strip is masked (stripes only ever
    // become unmasked from the front), which makes coalesced multi-strip
    // reads conservative: the aio split-retry re-drives the fragments and
    // only the truly masked ones stay erased.
    const std::size_t last_stripe =
        (offset + (len == 0 ? 0 : len - 1)) / map_.strip_size();
    for (const rebuild_member& m : rebuilding_) {
        if (m.disk == d) return last_stripe >= m.cursor;
    }
    return false;
}

void raid6_array::note_io(std::uint32_t d, io_kind kind, const io_result& r) {
    if (r.transient_seen > 0) {
        slot_ctr_[d].inc<&disk_slot_stats::transient_errors>(r.transient_seen);
    }
    if (health_monitor::is_hard_error(r.status)) {
        slot_ctr_[d].inc<&disk_slot_stats::hard_errors>();
    }
    if (health_.record(d, kind, r.status, r.transient_seen)) {
        // Threshold crossed: the disk is too sick to trust. Fail it now
        // (atomic) and let the next foreground operation promote a spare.
        disks_[d]->fail();
        ctr_.inc<&array_stats::disks_tripped>();
        obs::flight_recorder::instance().record(obs::fr_kind::disk_tripped,
                                                obs_.now_ns(), d);
        pending_failover_.store(true, std::memory_order_release);
    }
}

io_status raid6_array::disk_read(std::uint32_t d, std::size_t offset,
                                 std::span<std::byte> out) {
    const std::byte* at = nullptr;
    const io_status st = disk_view(d, offset, out.size(), at);
    if (st == io_status::ok) std::memcpy(out.data(), at, out.size());
    return st;
}

io_status raid6_array::disk_view(std::uint32_t d, std::size_t offset,
                                 std::size_t len, const std::byte*& out) {
    // A promoted spare is blank above the rebuild cursor: its bytes are
    // not data, the column is (still) an erasure.
    if (rebuild_masked(d, offset, len)) return io_status::rebuilding;
    const io_result r = policy_.view(*disks_[d], offset, len, out);
    note_io(d, io_kind::read, r);
    return r.status;
}

io_status raid6_array::disk_write(std::uint32_t disk, std::size_t offset,
                                  std::span<const std::byte> in,
                                  const std::uint32_t* crcs) {
    // Fused writes hand over the words their producing traversal already
    // computed; the others' words are in the region by the time this runs.
    const auto install_words = [&] {
        if (crcs != nullptr) {
            regions_[disk].install(offset,
                                   {crcs, in.size() / integrity_block_});
        }
        persist_checksums(disk, offset, in.size());
    };
    // Claim one unit of the power-loss budget (atomic: it is armed on the
    // caller's thread, while a volume shard's writes run on its
    // dispatcher).
    std::uint64_t budget = write_budget_.load(std::memory_order_relaxed);
    do {
        if (budget == 0) {
            powered_.store(false, std::memory_order_relaxed);
            // The write's *intent* still reaches the battery-backed
            // metadata domain even though the bits never reach the medium
            // — recording the checksum is what makes the torn write
            // deterministically detectable (and torn-vs-corrupt
            // classifiable) on replay. The persisted superblock models the
            // same NVRAM domain, so the record-ahead checksum is flushed
            // there too — powered off or not.
            if (crcs == nullptr) regions_[disk].record(offset, in);
            install_words();
            return io_status::ok;  // the host never learns; the bits are gone
        }
    } while (!write_budget_.compare_exchange_weak(budget, budget - 1,
                                                  std::memory_order_relaxed));
    // Whole strips are not read back soon, so they bypass the cache; the
    // stores are fenced inside the write, before any word below is
    // installed or persisted. Words the caller does not hold are computed
    // by the landing copy straight into the region's slots — written only
    // if the bytes land, so a failed write leaves the old words
    // authoritative.
    write_landing how;
    how.stream = in.size() % map_.strip_size() == 0;
    if (crcs == nullptr) {
        how.crcs = regions_[disk].slots(offset, in.size());
        how.crc_block = integrity_block_;
    }
    const io_result r = policy_.write(*disks_[disk], offset, in, how);
    note_io(disk, io_kind::write, r);
    if (r.status == io_status::ok) {
        // Paranoid mode: the landed bytes (already in the mapped file)
        // reach stable storage before the write completes.
        if (store_ && store_->config().sync_data) (void)store_->flush(disk);
        install_words();
    }
    return r.status;
}

io_status raid6_array::verified_disk_read(std::uint32_t d, std::size_t offset,
                                          std::span<std::byte> out) {
    const std::byte* at = nullptr;
    const io_status st =
        verified_disk_view(d, offset, out.size(), at, out.data());
    if (st == io_status::ok && at != out.data()) {
        std::memcpy(out.data(), at, out.size());
    }
    return st;
}

const std::byte* raid6_array::kernel_bytes(const std::byte* view,
                                           std::size_t len,
                                           std::byte* scratch) const noexcept {
    if (in_place_) return view;
    std::memcpy(scratch, view, len);
    return scratch;
}

io_status raid6_array::verified_disk_view(std::uint32_t d, std::size_t offset,
                                          std::size_t len,
                                          const std::byte*& out,
                                          std::byte* scratch) {
    const std::byte* at = nullptr;
    const io_status st = disk_view(d, offset, len, at);
    if (st != io_status::ok) return st;
    out = kernel_bytes(at, len, scratch);
    if (!regions_[d].verify(offset, {out, len})) {
        ctr_.inc<&array_stats::checksum_mismatches>();
        return io_status::checksum_mismatch;
    }
    return st;
}

// ---- fail-slow tolerance ---------------------------------------------

io_status raid6_array::disk_view_deferred(std::uint32_t d, std::size_t offset,
                                          std::size_t len,
                                          const std::byte*& out,
                                          std::uint64_t& latency_us) {
    latency_us = 0;
    if (rebuild_masked(d, offset, len)) return io_status::rebuilding;
    const io_result r = policy_.view(*disks_[d], offset, len, out,
                                     /*defer_time_charge=*/true);
    note_io(d, io_kind::read, r);
    latency_us = r.latency_us;
    return r.status;
}

bool raid6_array::reconstruct_column_range(std::size_t stripe,
                                           std::uint32_t col,
                                           std::size_t strip_lo,
                                           std::size_t len,
                                           const std::byte*& out) {
    LIBERATION_EXPECTS(strip_lo + len <= map_.strip_size());
    // No reconstruction from a journaled stripe's parity; the caller
    // reads the column itself instead.
    if (!settle_torn_stripe(stripe, {}, {}, {})) return false;
    // The read-set goes through the aio engine so per-disk batching and
    // read coalescing apply; requests execute through disk_view, so
    // retry/health/masking semantics are identical to any other read.
    std::vector<const std::byte*> views;
    std::vector<io_status> statuses;
    const std::uint32_t skip[] = {col};
    load_views(stripe, skip, aio::flag_verify, views, statuses);
    std::vector<std::uint32_t> erased;
    for (std::uint32_t c = 0; c < map_.n(); ++c) {
        if (statuses[c] != io_status::ok) erased.push_back(c);
    }
    if (erased.size() > 2) return false;
    std::vector<std::byte*> cols;
    assemble(views, cols);
    code_.decode(as_stripe(cols), erased);
    const std::byte* got = scratch(col) + strip_lo;
    // End-to-end gate: the reconstruction must match the *hedged-around*
    // column's own stored checksum before it is served in its place.
    const strip_location loc = map_.locate(stripe, col);
    if (!regions_[loc.disk].verify(loc.offset + strip_lo, {got, len})) {
        return false;
    }
    out = got;
    return true;
}

io_status raid6_array::read_chunk_failslow(std::size_t stripe,
                                           std::uint32_t col,
                                           std::size_t strip_lo,
                                           std::size_t len,
                                           const std::byte*& out) {
    const strip_location loc = map_.locate(stripe, col);
    const std::uint32_t d = loc.disk;
    const std::size_t offset = loc.offset + strip_lo;

    // Quarantined disk: route around it via decode up front, except for
    // the periodic probe that checks whether the straggler recovered.
    if (latmon_.quarantined(d) && !latmon_.take_probe(d)) {
        ctr_.inc<&array_stats::slow_routed_reads>();
        if (reconstruct_column_range(stripe, col, strip_lo, len, out)) {
            return io_status::ok;
        }
        // A second failure in the stripe made the decode impossible; the
        // quarantined disk is slow, not dead — fall through and read it.
    }

    // Deferred-charge direct view: the policy reports the virtual cost
    // but does not advance the clock, so a hedged race can charge
    // whichever leg is actually served.
    std::uint64_t lat = 0;
    const std::byte* direct = nullptr;
    const io_status st = disk_view_deferred(d, offset, len, direct, lat);
    if (st != io_status::ok) {
        clock_.advance(lat);
        return st;  // the caller's existing degraded handling takes over
    }
    // The direct leg as served: checksum-verified like verified_disk_view.
    const auto serve_direct = [&] {
        out = kernel_bytes(direct, len, read_scratch_.data());
        if (!regions_[d].verify(offset, {out, len})) {
            ctr_.inc<&array_stats::checksum_mismatches>();
            return io_status::checksum_mismatch;
        }
        return io_status::ok;
    };
    const std::uint64_t deadline = latmon_.deadline_us(d);
    const bool was_quarantined = latmon_.quarantined(d);
    if (latmon_.note_read(d, lat)) {
        ctr_.inc<&array_stats::slow_trips>();
        slot_ctr_[d].inc<&disk_slot_stats::slow_trips>();
        obs::flight_recorder::instance().record(
            obs::fr_kind::disk_quarantined, obs_.now_ns(), d, lat);
        persist_membership();  // quarantine survives a remount
    } else if (was_quarantined && !latmon_.quarantined(d)) {
        ctr_.inc<&array_stats::slow_recoveries>();
        obs::flight_recorder::instance().record(
            obs::fr_kind::quarantine_lifted, obs_.now_ns(), d, lat);
        persist_membership();
    }

    if (lat <= deadline) {
        clock_.advance(lat);
        return serve_direct();
    }

    // The read outlived its deadline: speculatively issue the
    // reconstruction read-set and take whichever leg completes first.
    // Timeline: the hedge is issued at `deadline` and costs `hedge_us`
    // (charged inline by the aio legs); the direct read lands at `lat`.
    ctr_.inc<&array_stats::deadline_exceeded>();
    ctr_.inc<&array_stats::hedged_reads>();
    slot_ctr_[d].inc<&disk_slot_stats::deadline_misses>();
    slot_ctr_[d].inc<&disk_slot_stats::hedged_reads>();
    obs::flight_recorder::instance().record(obs::fr_kind::hedge_issued,
                                            obs_.now_ns(), d, lat);
    latmon_.note_hedge(d);
    const std::byte* rebuilt = nullptr;
    const std::uint64_t h0 = clock_.now_us();
    const bool recon =
        reconstruct_column_range(stripe, col, strip_lo, len, rebuilt);
    const std::uint64_t hedge_us = clock_.now_us() - h0;
    if (recon && deadline + hedge_us < lat) {
        ctr_.inc<&array_stats::hedge_wins>();
        clock_.advance(deadline);  // hedge_us is already on the clock
        hist_hedge_delay_->record(hedge_us * 1000);
        out = rebuilt;
        return io_status::ok;
    }
    // The straggler still won the race (or the decode was unavailable):
    // serve the direct bytes. The hedge cost overlaps the tail of the
    // wait, so only the remainder of `lat` is still owed.
    clock_.advance(lat > hedge_us ? lat - hedge_us : 0);
    hist_hedge_delay_->record((lat - deadline) * 1000);
    return serve_direct();
}

// ---- failover & background rebuild -----------------------------------

void raid6_array::fail_disk(std::uint32_t d) {
    disks_[d]->fail();
    handle_failed_disks();
    update_health_gauges();
    persist_membership();
}

void raid6_array::replace_disk(std::uint32_t d) {
    if (store_ && !disks_[d]->mapped() &&
        !hand_over_medium(d, *disks_[d])) {
        // Blank hardware that cannot reach its slot's file would lose
        // every write at the next remount: the slot stays failed.
        return;
    }
    disks_[d]->replace();
    health_.reset(d);
    latmon_.reset(d);
    // The operator took over this slot; drop any background-rebuild claim.
    const auto it =
        std::find_if(rebuilding_.begin(), rebuilding_.end(),
                     [d](const rebuild_member& m) { return m.disk == d; });
    if (it != rebuilding_.end()) {
        rebuilding_.erase(it);
        if (rebuilding_.empty()) {
            rebuild_active_ = false;
            rebuild_stalled_ = false;
        }
    }
    update_health_gauges();
    persist_membership();
}

void raid6_array::handle_failed_disks() {
    pending_failover_.store(false, std::memory_order_relaxed);
    if (!auto_failover_) return;
    bool promoted = false;
    for (std::uint32_t d = 0; d < map_.n(); ++d) {
        if (disks_[d]->online() || spares_.empty()) continue;
        // Promote: the blank spare takes the dead disk's slot. Its column
        // is masked (io_status::rebuilding) until its watermark passes.
        // A persistent slot's file moves with the slot: the spare adopts
        // its mapping, dead disk's bytes and all — everything above the
        // new member's watermark is masked anyway, and the rebuild
        // rewrites it.
        if (store_ && !hand_over_medium(d, *spares_.back())) continue;
        disks_[d] = std::move(spares_.back());
        spares_.pop_back();
        health_.reset(d);
        latmon_.reset(d);
        ctr_.inc<&array_stats::spares_promoted>();
        obs::flight_recorder::instance().record(obs::fr_kind::spare_promoted,
                                                obs_.now_ns(), d);
        promoted = true;
        const auto it =
            std::find_if(rebuilding_.begin(), rebuilding_.end(),
                         [d](const rebuild_member& m) { return m.disk == d; });
        if (it != rebuilding_.end()) {
            it->cursor = 0;  // fresh blank hardware in an already-claimed slot
        } else {
            // The new member starts from stripe 0 with its own watermark;
            // members already mid-rebuild keep theirs, so their rebuilt
            // (and write-maintained) extents stay trusted.
            rebuilding_.push_back({d, 0});
        }
        rebuild_active_ = true;
    }
    update_health_gauges();
    if (promoted) persist_membership();
}

void raid6_array::service_events() {
    if (pending_failover_.load(std::memory_order_acquire)) {
        handle_failed_disks();
    }
    if (rebuild_active_ && powered_ && !in_service_) {
        service_background_rebuild(rebuild_batch_stripes_);
    }
}

std::size_t raid6_array::service_background_rebuild(std::size_t max_stripes) {
    if (in_service_ || max_stripes == 0) return 0;
    if (pending_failover_.load(std::memory_order_acquire)) {
        handle_failed_disks();
    }
    if (!rebuild_active_ || !powered_) return 0;
    if (rebuilding_.empty()) {
        rebuild_active_ = false;
        return 0;
    }
    if (rebuilding_.size() > 2) {
        // > 2 concurrent losses: beyond RAID-6, operator's call. Surface
        // the stall (once per session) instead of silently masking the
        // columns forever; reads of them keep failing loudly meanwhile.
        if (!rebuild_stalled_) {
            rebuild_stalled_ = true;
            ctr_.inc<&array_stats::rebuild_sessions_stalled>();
        }
        return 0;
    }
    rebuild_stalled_ = false;
    in_service_ = true;
    // Advance the furthest-behind member(s) together, stopping at the next
    // member's watermark so each disk's cursor only ever moves forward.
    std::size_t first = rebuilding_.front().cursor;
    for (const rebuild_member& m : rebuilding_) {
        first = std::min(first, m.cursor);
    }
    std::size_t last = std::min(map_.stripes(), first + max_stripes);
    std::vector<std::uint32_t> group;
    for (const rebuild_member& m : rebuilding_) {
        if (m.cursor == first) {
            group.push_back(m.disk);
        } else {
            last = std::min(last, m.cursor);
        }
    }
    rebuild_result res;
    {
        // Trace-only span for the batch; the per-window latency histogram
        // (raid_rebuild_window_ns) records inside rebuild_stripe_range, so
        // operator-driven rebuilds feed the same family.
        obs::timed_span span(obs_, nullptr, "raid.rebuild_batch", "rebuild");
        res = rebuild_stripe_range(*this, group, first, last);
    }
    std::size_t processed = 0;
    if (powered_) {
        // (If power died mid-batch the writes were dropped — keep the
        // watermarks so the batch reruns after reboot; decode is
        // idempotent.)
        processed = last - first;
        ctr_.inc<&array_stats::rebuild_stripes_failed>(res.stripes_failed);
        for (rebuild_member& m : rebuilding_) {
            if (m.cursor == first) m.cursor = last;
        }
        bool completed = false;
        for (auto it = rebuilding_.begin(); it != rebuilding_.end();) {
            if (it->cursor >= map_.stripes()) {
                obs::flight_recorder::instance().record(
                    obs::fr_kind::rebuild_completed, obs_.now_ns(), it->disk);
                it = rebuilding_.erase(it);
                ctr_.inc<&array_stats::rebuilds_completed>();
                completed = true;
            } else {
                ++it;
            }
        }
        if (rebuilding_.empty()) rebuild_active_ = false;
        // Persist the advanced watermarks so a kill mid-rebuild resumes
        // from here instead of stripe 0; a finished member is a membership
        // change (its slot state flips back to active).
        if (completed) {
            persist_membership();
        } else if (processed > 0) {
            persist_watermarks();
        }
    }
    in_service_ = false;
    // A survivor may have tripped during the batch.
    if (pending_failover_.load(std::memory_order_acquire)) {
        handle_failed_disks();
    }
    update_health_gauges();
    return processed;
}

void raid6_array::drain_background_rebuild() {
    // A health trip may still be waiting for its promotion.
    if (pending_failover_.load(std::memory_order_acquire)) {
        handle_failed_disks();
    }
    while (rebuild_active_ && powered_) {
        if (service_background_rebuild(map_.stripes()) == 0) break;
    }
}

// ---- stripe-granular interface ---------------------------------------

void raid6_array::load_views(std::size_t stripe,
                             std::span<const std::uint32_t> skip,
                             std::uint32_t flags,
                             std::vector<const std::byte*>& views,
                             std::vector<io_status>& statuses) {
    views.assign(map_.n(), nullptr);
    statuses.assign(map_.n(), io_status::ok);
    // The column read-set goes through the aio engine: per-disk batching
    // and merging apply, the requests execute through disk_view so
    // retry/health/masking semantics are those of any read, and a host
    // op's degraded load shows up as aio fragments inside its causal
    // trace tree.
    const std::size_t base = aio_engine_->completions().size();
    for (std::uint32_t col = 0; col < map_.n(); ++col) {
        if (std::find(skip.begin(), skip.end(), col) != skip.end()) {
            statuses[col] = io_status::rebuilding;
            continue;
        }
        const strip_location loc = map_.locate(stripe, col);
        aio::io_desc d;
        d.disk = loc.disk;
        d.kind = aio::op_kind::view;
        d.offset = loc.offset;
        d.len = map_.strip_size();
        d.user_data = col;
        d.flags = flags;
        aio_engine_->submit(d);
    }
    aio_engine_->drain();
    const std::vector<aio::io_cqe>& cqes = aio_engine_->completions();
    for (std::size_t i = base; i < cqes.size(); ++i) {
        const auto col = static_cast<std::uint32_t>(cqes[i].user_data);
        statuses[col] = cqes[i].status;
        if (cqes[i].status == io_status::ok) views[col] = cqes[i].data;
    }
    aio_engine_->clear_completions();
}

void raid6_array::assemble(std::span<const std::byte* const> views,
                           std::vector<std::byte*>& cols, std::size_t slot) {
    cols.resize(map_.n());
    for (std::uint32_t col = 0; col < map_.n(); ++col) {
        // A view stays read-only although the stripe view's columns are
        // mutable: the coding kernels write only the columns they are told
        // to reconstruct or re-encode, and every such column is pointed at
        // its scratch strip first.
        cols[col] = views[col] != nullptr
                        ? const_cast<std::byte*>(kernel_bytes(
                              views[col], map_.strip_size(),
                              scratch(col, slot)))
                        : scratch(col, slot);
    }
}

bool raid6_array::load_stripe(std::size_t stripe, const codes::stripe_view& dst,
                              std::vector<std::uint32_t>& erased,
                              std::vector<io_status>* statuses) {
    std::vector<const std::byte*> views;
    std::vector<io_status> st;
    // No flag_verify — checksum policy stays with the caller.
    load_views(stripe, {}, 0, views, st);
    erased.clear();
    for (std::uint32_t col = 0; col < map_.n(); ++col) {
        if (views[col] == nullptr) {
            erased.push_back(col);
        } else {
            std::memcpy(dst.strip(col).data(), views[col], map_.strip_size());
        }
    }
    if (statuses != nullptr) *statuses = std::move(st);
    return erased.size() <= 2;
}

bool raid6_array::store_columns(std::size_t stripe,
                                const codes::stripe_view& src,
                                std::span<const std::uint32_t> cols,
                                const std::uint32_t* const* col_crcs) {
    bool all_ok = true;
    for (const std::uint32_t col : cols) {
        const strip_location loc = map_.locate(stripe, col);
        const std::uint32_t* crcs =
            col_crcs != nullptr ? col_crcs[col] : nullptr;
        if (disk_write(loc.disk, loc.offset, src.strip(col), crcs) !=
            io_status::ok) {
            all_ok = false;
        }
    }
    return all_ok;
}

raid6_array::stripe_recovery raid6_array::load_stripe_verified(
    std::size_t stripe, std::span<const std::uint32_t> extra_erasures,
    bool host_read) {
    std::vector<const std::byte*> views;
    std::vector<io_status> statuses;
    load_views(stripe, extra_erasures, 0, views, statuses);
    return verify_loaded_stripe(stripe, views, extra_erasures,
                                std::move(statuses), host_read);
}

raid6_array::stripe_recovery raid6_array::verify_loaded_stripe(
    std::size_t stripe, std::span<const std::byte* const> views,
    std::span<const std::uint32_t> extra_erasures,
    std::vector<io_status> statuses, bool host_read, std::size_t slot) {
    stripe_recovery rec =
        begin_recovery(views, extra_erasures, std::move(statuses), slot);
    if (rec.erased.size() <= 2 &&
        settle_torn_stripe(stripe, rec.cols, rec.statuses, extra_erasures,
                           host_read, slot)) {
        classify_and_decode(stripe, views, extra_erasures, rec, slot);
    }
    return rec;
}

raid6_array::stripe_recovery raid6_array::recover_loaded_stripe(
    std::size_t stripe, std::span<const std::byte* const> views,
    std::span<const std::uint32_t> extra_erasures,
    std::vector<io_status> statuses, std::size_t slot) {
    stripe_recovery rec =
        begin_recovery(views, extra_erasures, std::move(statuses), slot);
    if (rec.erased.size() <= 2) {
        classify_and_decode(stripe, views, extra_erasures, rec, slot);
    }
    return rec;
}

const core::hybrid_plan& raid6_array::rebuild_plan(std::uint32_t col) {
    LIBERATION_EXPECTS(col < map_.k());
    plans_.resize(map_.k());
    if (!plans_[col]) {
        plans_[col] = core::plan_hybrid_rebuild(code_.geom(), col);
    }
    return *plans_[col];
}

raid6_array::stripe_recovery raid6_array::rebuild_planned_column(
    std::size_t stripe, std::span<const std::byte* const> views,
    std::span<const io_status> statuses, const core::hybrid_plan& plan,
    std::size_t slot) {
    stripe_recovery rec;
    rec.statuses.assign(statuses.begin(), statuses.end());
    rec.cols.resize(map_.n());
    for (std::uint32_t col = 0; col < map_.n(); ++col) {
        rec.cols[col] = in_place_ && views[col] != nullptr
                            ? const_cast<std::byte*>(views[col])
                            : scratch(col, slot);
    }
    // Each run of plan rows is verified where it sits (or in its scratch
    // rows, when the kernels may not read it in place) with one sweep:
    // the checksum kernels interleave the blocks of a run.
    const std::size_t elem = map_.element_size();
    const std::uint32_t rows = map_.rows();
    for (std::uint32_t col = 0; col < map_.n(); ++col) {
        const std::uint8_t* sel = plan.read_rows.data() + col * rows;
        const strip_location loc = map_.locate(stripe, col);
        for (std::uint32_t r0 = 0, r1 = 0; r0 < rows; r0 = r1) {
            while (r1 < rows && sel[r1] == sel[r0]) ++r1;
            if (sel[r0] == 0) continue;
            if (statuses[col] != io_status::ok) return rec;
            const std::size_t off = r0 * elem;
            const std::size_t len = (r1 - r0) * elem;
            const std::byte* at =
                kernel_bytes(views[col] + off, len, rec.cols[col] + off);
            if (!regions_[loc.disk].verify(loc.offset + off, {at, len})) {
                return rec;
            }
        }
    }
    const codes::stripe_view buf = as_stripe(rec.cols);
    core::rebuild_column_hybrid(buf, code_.geom(), plan);
    const std::uint32_t l = plan.column;
    const std::size_t bps = map_.strip_size() / integrity_block_;
    rec.crcs.resize(static_cast<std::size_t>(map_.n()) * bps);
    rec.crc_valid.assign(map_.n(), 0);
    const strip_location target = map_.locate(stripe, l);
    rec.ok = regions_[target.disk].verify_capture(
        target.offset, buf.strip(l), rec.crcs.data() + l * bps);
    rec.crc_valid[l] = 1;
    rec.erased = {l};
    rec.repairs = {l};
    return rec;
}

void raid6_array::reserve_scratch(std::size_t slots) {
    // A scratch strip per column per stripe_loader window slot: the
    // loader's computes run in parallel, each in its own slot.
    for (std::size_t i = scratch_.size(); i < slots * map_.n(); ++i) {
        scratch_.emplace_back(map_.strip_size());
    }
}

bool raid6_array::write_back(std::size_t stripe, const stripe_recovery& rec) {
    if (rec.repairs.empty()) return true;
    std::vector<const std::uint32_t*> crc_ptrs(map_.n(), nullptr);
    const std::size_t bps = map_.strip_size() / integrity_block_;
    for (const std::uint32_t col : rec.repairs) {
        // Heal of a latent sector error: the rewrite remaps the sector.
        if (rec.statuses[col] == io_status::unreadable_sector) {
            ctr_.inc<&array_stats::media_errors_recovered>();
        }
        crc_ptrs[col] = rec.crcs.data() + col * bps;
    }
    ctr_.inc<&array_stats::corrupt_columns_healed>(rec.healed.size());
    return store_columns(stripe, as_stripe(rec.cols), rec.repairs,
                         crc_ptrs.data());
}

raid6_array::stripe_recovery raid6_array::begin_recovery(
    std::span<const std::byte* const> views,
    std::span<const std::uint32_t> extra_erasures,
    std::vector<io_status> statuses, std::size_t slot) {
    LIBERATION_EXPECTS(statuses.size() == map_.n() &&
                       views.size() == map_.n());
    stripe_recovery rec;
    rec.statuses = std::move(statuses);
    for (std::uint32_t col = 0; col < map_.n(); ++col) {
        if (rec.statuses[col] != io_status::ok) rec.erased.push_back(col);
    }
    for (const std::uint32_t col : extra_erasures) {
        if (std::find(rec.erased.begin(), rec.erased.end(), col) ==
            rec.erased.end()) {
            rec.erased.push_back(col);
        }
    }
    std::sort(rec.erased.begin(), rec.erased.end());
    // Survivors are decoded from where they sit; every erasure (an extra
    // one may have read fine) is reconstructed into its scratch strip.
    assemble(views, rec.cols, slot);
    for (const std::uint32_t col : rec.erased) {
        rec.cols[col] = scratch(col, slot);
    }
    return rec;
}

void raid6_array::classify_and_decode(
    std::size_t stripe, std::span<const std::byte* const> views,
    std::span<const std::uint32_t> extra_erasures, stripe_recovery& rec,
    std::size_t slot) {
    const codes::stripe_view buf = as_stripe(rec.cols);
    rec.verified = true;

    const auto is_erased = [&](std::uint32_t col) {
        return std::binary_search(rec.erased.begin(), rec.erased.end(), col);
    };

    // Every verification below captures the words its fused sweep
    // computed: a column that is later written back (heal, rebuild
    // commit) hands them to the store instead of being traversed again.
    // A column's words are marked valid only once they describe its
    // *current* bytes (a decode can invalidate a capture).
    const std::size_t bps = map_.strip_size() / integrity_block_;
    rec.crcs.resize(static_cast<std::size_t>(map_.n()) * bps);
    rec.crc_valid.assign(map_.n(), 0);
    const auto col_crc = [&](std::uint32_t col) {
        return rec.crcs.data() + static_cast<std::size_t>(col) * bps;
    };
    // Verify a decoded erasure before anyone trusts it. All decode inputs
    // verified, so a mismatch here means the stored checksum is stale
    // (e.g. corrupted metadata or a blank replacement disk's region) —
    // refresh it. An unreadable sector or a caller's target is then a
    // repair; any other erasure (an offline member, a transient error
    // that left the bytes intact) is only decoded.
    const auto verify_erasure = [&](std::uint32_t col) {
        const strip_location loc = map_.locate(stripe, col);
        if (!regions_[loc.disk].verify_capture(loc.offset, buf.strip(col),
                                               col_crc(col))) {
            regions_[loc.disk].install(loc.offset, {col_crc(col), bps});
            rec.meta_repaired.push_back(col);
            ctr_.inc<&array_stats::checksum_metadata_repaired>();
        }
        rec.crc_valid[col] = 1;
        if (rec.statuses[col] == io_status::unreadable_sector ||
            std::find(extra_erasures.begin(), extra_erasures.end(), col) !=
                extra_erasures.end()) {
            rec.repairs.push_back(col);
        }
    };

    // Checksum-first classification: every available column whose bytes
    // fail their stored CRC is a suspect, with no single-corruption
    // assumption and no dependence on parity agreeing with anything.
    std::vector<std::uint32_t> crc_bad;
    for (std::uint32_t col = 0; col < map_.n(); ++col) {
        if (is_erased(col)) continue;
        const strip_location loc = map_.locate(stripe, col);
        if (!regions_[loc.disk].verify_capture(loc.offset, buf.strip(col),
                                               col_crc(col))) {
            crc_bad.push_back(col);
            rec.statuses[col] = io_status::checksum_mismatch;
        } else {
            rec.crc_valid[col] = 1;
        }
    }
    if (!crc_bad.empty()) {
        ctr_.inc<&array_stats::checksum_mismatches>(crc_bad.size());
    }

    if (rec.erased.size() + crc_bad.size() <= 2) {
        // Within the decode budget: treat the corrupt columns as erasures,
        // reconstruct everything in one optimal decode, then let the
        // checksums arbitrate who was really damaged.
        std::vector<std::uint32_t> suspects = rec.erased;
        suspects.insert(suspects.end(), crc_bad.begin(), crc_bad.end());
        std::sort(suspects.begin(), suspects.end());

        // A suspect's view stays the on-disk bytes while the decode
        // writes its reconstruction into scratch, so the two can be
        // compared.
        for (const std::uint32_t col : crc_bad) {
            rec.cols[col] = scratch(col, slot);
        }
        if (!suspects.empty()) code_.decode(buf, suspects);

        for (const std::uint32_t col : crc_bad) {
            const strip_location loc = map_.locate(stripe, col);
            rec.crc_valid[col] = 1;
            if (std::memcmp(views[col], buf.strip(col).data(),
                            map_.strip_size()) == 0) {
                // Parity reproduced the on-disk bytes exactly: the data
                // was fine all along and the *stored checksum* is the
                // damaged side. Refresh the metadata from the words the
                // classification sweep computed over these very bytes.
                regions_[loc.disk].install(loc.offset, {col_crc(col), bps});
                rec.meta_repaired.push_back(col);
                ctr_.inc<&array_stats::checksum_metadata_repaired>();
                continue;
            }
            // Real corruption: the decode recovered different bytes.
            // Re-verify the reconstruction; if the stored checksum rejects
            // even the parity-backed truth, data *and* metadata were both
            // hit — the decode (computed from verified inputs) wins and
            // the metadata is refreshed too.
            if (!regions_[loc.disk].verify_capture(loc.offset, buf.strip(col),
                                                   col_crc(col))) {
                regions_[loc.disk].install(loc.offset, {col_crc(col), bps});
                ctr_.inc<&array_stats::checksum_metadata_repaired>();
            }
            rec.healed.push_back(col);
            rec.repairs.push_back(col);
        }
        for (const std::uint32_t col : rec.erased) verify_erasure(col);
        std::sort(rec.repairs.begin(), rec.repairs.end());
        rec.ok = true;
        return;
    }

    // More checksum suspects than the two-erasure decode budget (plus any
    // true erasures). Before declaring data loss, consider that the
    // *metadata* may be the damaged side: decode only the true erasures
    // and cross-check parity against data. If the codeword is consistent,
    // the bytes on disk are mutually corroborated by parity and every
    // "suspect" checksum is stale — refresh them all. The cross-check
    // needs redundancy left over after the decode: two true erasures use
    // up both parities, so the decoded codeword is consistent by
    // construction and would vouch for rotten bytes. Refuse instead.
    if (rec.erased.size() > 1) return;
    if (!rec.erased.empty()) code_.decode(buf, rec.erased);
    if (core::stripe_consistent(buf, code_.geom())) {
        for (const std::uint32_t col : crc_bad) {
            // Only true erasures were decoded, so these bytes are still
            // the ones the classification sweep captured words for.
            const strip_location loc = map_.locate(stripe, col);
            regions_[loc.disk].install(loc.offset, {col_crc(col), bps});
            rec.crc_valid[col] = 1;
            rec.meta_repaired.push_back(col);
            rec.statuses[col] = io_status::ok;
            ctr_.inc<&array_stats::checksum_metadata_repaired>();
        }
        for (const std::uint32_t col : rec.erased) verify_erasure(col);
        rec.ok = true;
    }
}

bool raid6_array::journal_mark(std::size_t stripe, std::uint64_t cols,
                               bool persist) {
    // A dead host issues no writes that could tear anything.
    if (!powered_) return true;
    if (!journal_.mark(stripe, cols)) {
        // Log full: proceeding unjournaled would be a silent write hole
        // waiting for a crash — refuse the write loudly instead.
        ctr_.inc<&array_stats::writes_rejected_log_full>();
        return false;
    }
    gauge_journal_->set(static_cast<std::int64_t>(journal_.size()));
    obs::flight_recorder::instance().record(obs::fr_kind::intent_mark,
                                            obs_.now_ns(), 0, stripe);
    // On-disk analogue of the NVRAM flush: the entry must be durable on
    // the other members before any data write of this stripe is issued.
    if (persist) persist_intent();
    return true;
}

void raid6_array::journal_clear(std::size_t stripe, bool persist) {
    // A dead host cannot clear its NVRAM word — the whole point.
    if (powered_) {
        journal_.clear(stripe);
        gauge_journal_->set(static_cast<std::int64_t>(journal_.size()));
        if (persist) persist_intent();
    }
}

// ---- persistence hooks -----------------------------------------------

void raid6_array::attach_persistence(std::unique_ptr<persist::store> st) {
    LIBERATION_EXPECTS(st != nullptr && st->slot_count() == map_.n());
    store_ = std::move(st);
    for (auto& d : disks_) d->allocate_medium();
}

bool raid6_array::hand_over_medium(std::uint32_t d, vdisk& to) {
    if (disks_[d]->mapped()) {
        if (&to != disks_[d].get()) to.map_medium(disks_[d]->unmap_medium());
        return true;
    }
    // A foreign slot's file belongs to another array until the operator
    // installs hardware over it: reclaim it for this one first.
    if (!store_->meta_slot(d) && !store_->reinit_slot(d)) return false;
    util::mapped_region region = store_->map_data(d);
    if (region.empty()) return false;
    to.map_medium(std::move(region));
    return true;
}

void raid6_array::persist_intent() {
    if (!store_) return;
    std::vector<persist::superblock::intent_entry> ents;
    for (const intent_log::entry& e : journal_.entries()) {
        ents.push_back({e.stripe, e.columns, e.seq});
    }
    for (std::uint32_t s = 0; s < map_.n(); ++s) {
        if (!store_->meta_slot(s) || !store_->slot_ok(s)) continue;
        store_->image(s).intents = ents;
        (void)store_->persist(s);
    }
}

void raid6_array::persist_checksums(std::uint32_t disk, std::size_t offset,
                                    std::size_t len) {
    if (!store_ || !store_->meta_slot(disk) || !store_->slot_ok(disk)) return;
    const std::size_t b0 = offset / integrity_block_;
    const std::size_t b1 =
        (offset + len + integrity_block_ - 1) / integrity_block_;
    store_->update_crcs(disk, b0,
                        regions_[disk].checksums().subspan(b0, b1 - b0));
    (void)store_->persist(disk);
}

void raid6_array::persist_membership() {
    if (!store_) return;
    const std::uint32_t n = map_.n();
    std::vector<std::uint8_t> states(
        n, static_cast<std::uint8_t>(persist::slot_state::active));
    std::vector<std::uint64_t> marks(n, map_.stripes());
    for (std::uint32_t d = 0; d < n; ++d) {
        if (!disks_[d]->online()) {
            states[d] = static_cast<std::uint8_t>(persist::slot_state::failed);
        } else if (latmon_.quarantined(d)) {
            // Quarantine survives a remount: lateness is not corruption,
            // so the base state stays active with the slow bit OR-ed on.
            states[d] |= persist::slot_state_slow_bit;
        }
    }
    for (const rebuild_member& m : rebuilding_) {
        states[m.disk] =
            static_cast<std::uint8_t>(persist::slot_state::rebuilding);
        marks[m.disk] = m.cursor;
    }
    // One shared epoch across the replicated copies: members that miss
    // this update (failed/foreign slots) fall behind and are kicked as
    // stale by the next mount.
    std::uint64_t events = 0;
    for (std::uint32_t s = 0; s < n; ++s) {
        if (store_->meta_slot(s)) {
            events = std::max(events, store_->image(s).events);
        }
    }
    ++events;
    for (std::uint32_t s = 0; s < n; ++s) {
        if (!store_->meta_slot(s) || !store_->slot_ok(s)) continue;
        persist::superblock& img = store_->image(s);
        img.slot_states = states;
        img.watermarks = marks;
        img.spares_available = static_cast<std::uint32_t>(spares_.size());
        img.next_disk_id = next_disk_id_;
        img.disk_id = disks_[s]->id();
        img.events = events;
        (void)store_->persist(s);
    }
}

void raid6_array::persist_watermarks() {
    if (!store_) return;
    for (std::uint32_t s = 0; s < map_.n(); ++s) {
        if (!store_->meta_slot(s) || !store_->slot_ok(s)) continue;
        persist::superblock& img = store_->image(s);
        for (const rebuild_member& m : rebuilding_) {
            img.watermarks[m.disk] = m.cursor;
        }
        (void)store_->persist(s);
    }
}

bool raid6_array::unmount() {
    if (!store_) return true;
    // Refresh every replicated table, then stamp the images clean (only
    // if no hazard is still journaled) and flush. The two persists per
    // slot are deliberate: membership/intent refresh first, then the
    // clean stamp — a crash between them is indistinguishable from a
    // crash just before unmount, which mount handles anyway.
    persist_membership();
    persist_intent();
    const bool clean = journal_.size() == 0;
    bool ok = true;
    for (std::uint32_t s = 0; s < map_.n(); ++s) {
        if (!store_->meta_slot(s) || !store_->slot_ok(s)) continue;
        // Wholesale checksum refresh: scrub/read-repair may have updated
        // words without a disk_write hook firing (only the pages whose
        // words differ are written).
        store_->update_crcs(s, 0, regions_[s].checksums());
        store_->image(s).clean = clean;
        if (!store_->persist(s)) ok = false;
    }
    if (!store_->flush_all()) ok = false;
    for (auto& d : disks_) {
        if (d->mapped()) (void)d->unmap_medium();
    }
    store_.reset();
    return ok;
}

std::size_t raid6_array::recover_write_hole() {
    LIBERATION_EXPECTS(powered_);
    std::size_t resynced = 0;
    std::vector<const std::byte*> views;
    std::vector<io_status> statuses;
    std::vector<std::byte*> cols;
    for (const std::size_t s : journal_.dirty_stripes()) {
        load_views(s, {}, 0, views, statuses);
        assemble(views, cols);
        if (resync_journaled_stripe(s, cols, statuses, {},
                                    /*host_read=*/false, /*slot=*/0)) {
            ++resynced;
        }
    }
    return resynced;
}

bool raid6_array::settle_torn_stripe(std::size_t stripe,
                                     std::span<std::byte*> cols,
                                     std::span<const io_status> statuses,
                                     std::span<const std::uint32_t> targets,
                                     bool host_read, std::size_t slot) {
    if (!journal_.is_dirty(stripe)) return true;
    return !cols.empty() && resync_journaled_stripe(stripe, cols, statuses,
                                                    targets, host_read, slot);
}

bool raid6_array::resync_journaled_stripe(
    std::size_t stripe, std::span<std::byte*> cols,
    std::span<const io_status> statuses,
    std::span<const std::uint32_t> targets, bool host_read,
    std::size_t slot) {
    const std::uint32_t pc = code_.p_column();
    const std::uint32_t qc = code_.q_column();
    const std::uint64_t mask = journal_.columns(stripe);
    // Data is the source of truth, so it must be at hand: a data target
    // (its bytes are what the caller wants reconstructed) or any
    // unavailable column other than a parity target leaves the stripe
    // journaled for later. One exception, for a host read only: a single
    // unavailable data column the in-flight update was not writing. Its
    // old checksum still describes it, so it is recovered below from the
    // checksum-vouched candidates, like a corrupt one. A write's fallback,
    // a rebuild and replay still refuse such a stripe and leave it to a
    // read.
    std::uint32_t lost = map_.n();
    for (std::uint32_t col = 0; col < map_.n(); ++col) {
        const bool target =
            std::find(targets.begin(), targets.end(), col) != targets.end();
        if (col == pc || col == qc) {
            if (!target && statuses[col] != io_status::ok) return false;
            continue;
        }
        if (!target && statuses[col] == io_status::ok) continue;
        if (target || !host_read || ((mask >> col) & 1) != 0 ||
            lost != map_.n()) {
            return false;
        }
        lost = col;
    }
    const codes::stripe_view buf = as_stripe(cols);
    // Classify every data column whose bytes fail their stored checksum.
    // A column *targeted* by the in-flight update is torn: the mismatch is
    // the half-landed update itself, the on-disk bytes win and the
    // checksum is refreshed (record-ahead on dropped writes makes this
    // deterministic). An *untargeted* column was never meant to change —
    // its old checksum is authoritative and the mismatch is silent
    // corruption that struck while the stripe was torn; recover it via
    // checksum-guided candidate decode or leave the stripe journaled.
    // Parity columns need no classification: re-encoding from data below
    // resolves any parity tear or corruption either way.
    for (std::uint32_t col = 0; col < map_.n(); ++col) {
        if (col == pc || col == qc || col == lost) continue;
        const strip_location loc = map_.locate(stripe, col);
        if (regions_[loc.disk].verify(loc.offset, buf.strip(col))) continue;
        ctr_.inc<&array_stats::checksum_mismatches>();
        const std::uint32_t one[] = {col};
        if ((mask >> col) & 1) {
            regions_[loc.disk].record(loc.offset, buf.strip(col));
        } else if (!heal_journaled_column(stripe, cols, col, slot) ||
                   !store_columns(stripe, buf, one)) {
            return false;
        }
    }
    // The lost column is only reconstructed (into scratch): its disk is
    // unavailable.
    if (lost != map_.n() &&
        !heal_journaled_column(stripe, cols, lost, slot)) {
        return false;
    }
    // Data is the source of truth; re-encode both parity columns into
    // scratch (a parity target's stale or unread bytes are simply
    // replaced).
    cols[pc] = scratch(pc, slot);
    cols[qc] = scratch(qc, slot);
    code_.encode(buf);
    const std::uint32_t parity_cols[] = {pc, qc};
    if (!store_columns(stripe, buf, parity_cols) || !powered_) return false;
    journal_clear(stripe);
    return true;
}

bool raid6_array::heal_journaled_column(std::size_t stripe,
                                        std::span<std::byte*> cols,
                                        std::uint32_t col, std::size_t slot) {
    const std::uint32_t pc = code_.p_column();
    const std::uint32_t qc = code_.q_column();
    const strip_location loc = map_.locate(stripe, col);
    // Each candidate decodes the column into its scratch strip, and the
    // parity it reconstructs alongside into a strip of its own, over the
    // stripe's columns as they are.
    std::vector<std::byte*> tmp(cols.begin(), cols.end());
    util::aligned_buffer parity(map_.strip_size());
    tmp[col] = scratch(col, slot);
    // Parity may itself be torn, so try each subset that still has enough
    // intact parity to reconstruct the column ({c}: both parities fine,
    // {c,P}: P torn, {c,Q}: Q torn) and accept the first candidate the
    // stored checksum vouches for. A false match is a CRC32C collision on
    // an element-sized block — negligible against the faults modeled here.
    const std::vector<std::vector<std::uint32_t>> candidates = {
        {col}, {col, pc}, {col, qc}};
    for (const std::vector<std::uint32_t>& erased : candidates) {
        tmp[pc] = cols[pc];
        tmp[qc] = cols[qc];
        if (erased.size() == 2) tmp[erased[1]] = parity.data();
        code_.decode(as_stripe(tmp), erased);
        if (!regions_[loc.disk].verify(
                loc.offset, {scratch(col, slot), map_.strip_size()})) {
            continue;
        }
        cols[col] = scratch(col, slot);
        return true;
    }
    return false;
}

bool raid6_array::load_and_decode(std::size_t stripe,
                                  std::vector<std::byte*>& cols) {
    // Trace-only: degraded full-stripe decodes show up as distinct spans
    // inside the surrounding raid.read / raid.write_small span.
    obs::timed_span span(obs_, nullptr, "raid.degraded_read");
    // Checksum mismatches demote columns to erasures, the optimal decoder
    // reconstructs them, reconstructions are re-verified, and repairs are
    // written back (read-repair).
    stripe_recovery rec = load_stripe_verified(stripe, {}, /*host_read=*/true);
    if (!rec.ok) return false;
    write_back(stripe, rec);
    if (!rec.erased.empty()) {
        ctr_.inc<&array_stats::degraded_stripe_reads>();
    }
    if (!rec.healed.empty()) {
        ctr_.inc<&array_stats::reads_self_healed>();
    }
    cols = std::move(rec.cols);
    return true;
}

bool raid6_array::read_element_degraded(std::size_t stripe, std::uint32_t row,
                                        std::uint32_t col,
                                        std::span<std::byte> out) {
    const std::size_t elem = map_.element_size();
    LIBERATION_EXPECTS(out.size() == elem && col < map_.k());
    // Row parity of a journaled stripe may be torn: no reconstruction
    // here, the full-stripe path re-syncs the stripe or refuses.
    if (!settle_torn_stripe(stripe, {}, {}, {})) return false;

    // The row's parity element and its other data elements, viewed where
    // they sit and verified there: XOR-ing a silently corrupt survivor
    // into the reconstruction would *manufacture* corruption in a column
    // that was merely erased.
    const std::size_t in_strip = static_cast<std::size_t>(row) * elem;
    std::vector<const std::byte*> srcs;
    srcs.reserve(map_.k());
    const auto view_elem = [&](std::uint32_t c) {
        const strip_location loc = map_.locate(stripe, c);
        const std::byte* at = nullptr;
        if (verified_disk_view(loc.disk, loc.offset + in_strip, elem, at,
                               scratch(c) + in_strip) != io_status::ok) {
            return false;
        }
        srcs.push_back(at);
        return true;
    };
    if (!view_elem(code_.p_column())) return false;
    for (std::uint32_t j = 0; j < map_.k(); ++j) {
        if (j != col && !view_elem(j)) return false;
    }
    xorops::xor_many(out.data(), srcs.data(), srcs.size(), elem);
    // End-to-end check: the reconstructed element must match the *erased*
    // column's own stored checksum before it is served. A mismatch (e.g.
    // the target's metadata is itself damaged) falls back to the
    // full-stripe path, whose classification can repair the metadata.
    const strip_location loc = map_.locate(stripe, col);
    if (!regions_[loc.disk].verify(loc.offset + in_strip, out)) return false;
    ctr_.inc<&array_stats::degraded_element_reads>();
    return true;
}

void raid6_array::note_unrecoverable_read(std::size_t stripe) {
    const std::uint64_t prev =
        ctr_.at<&array_stats::reads_unrecoverable>().inc();
    obs::flight_recorder::instance().record(obs::fr_kind::read_unrecoverable,
                                            obs_.now_ns(), 0, stripe);
    if (prev == 0) {
        // First data-loss surface of this array: capture the evidence
        // while it is fresh.
        (void)obs::auto_postmortem("reads_unrecoverable", &obs_);
    }
}

namespace {

/// Precondition of the piece-list read()/write(): one gapless extent
/// inside the array, every piece after the first starting on a stripe
/// boundary — so no stripe straddles two host buffers.
template <class Piece>
void expect_piece_list(std::span<const Piece> pieces, std::size_t stripe_bytes,
                       std::size_t capacity) {
    LIBERATION_EXPECTS(!pieces.empty());
    std::size_t end = pieces.front().addr;
    for (std::size_t i = 0; i < pieces.size(); ++i) {
        LIBERATION_EXPECTS(pieces[i].addr == end);
        LIBERATION_EXPECTS(i == 0 || pieces[i].addr % stripe_bytes == 0);
        end += pieces[i].host.size();
    }
    LIBERATION_EXPECTS(end <= capacity);
}

}  // namespace

bool raid6_array::read(std::size_t addr, std::span<std::byte> out) {
    const read_piece whole{addr, out};
    return read(std::span<const read_piece>(&whole, 1));
}

bool raid6_array::read(std::span<const read_piece> pieces) {
    expect_piece_list(pieces, map_.stripe_data_size(), capacity());
    service_events();
    // Timed after service_events: the rebuild batch a host op services is
    // accounted to the rebuild-window family, not to read latency.
    obs::timed_span span(obs_, hist_read_, "raid.read");
    // Pieces split the extent only at stripe boundaries, and the read
    // works stripe by stripe: piece by piece is the same I/O.
    for (const read_piece& pc : pieces) {
        if (!read_extent(pc.addr, pc.host)) return false;
    }
    return true;
}

bool raid6_array::read_extent(std::size_t addr, std::span<std::byte> out) {
    std::size_t done = 0;
    while (done < out.size()) {
        const std::size_t a = addr + done;
        const std::size_t stripe = a / map_.stripe_data_size();
        const std::size_t in_stripe = a % map_.stripe_data_size();
        const std::size_t span_len = std::min(
            out.size() - done, map_.stripe_data_size() - in_stripe);

        // Fast path: per-column direct views, copied once into the host
        // buffer. Verify-on-read checks whole checksum blocks, so it
        // widens each chunk's view to them, checked where it sits.
        bool degraded = false;
        std::size_t off = in_stripe;
        std::size_t copied = 0;
        while (copied < span_len && !degraded) {
            const auto col = static_cast<std::uint32_t>(off / map_.strip_size());
            const std::size_t in_strip = off % map_.strip_size();
            const std::size_t chunk =
                std::min(span_len - copied, map_.strip_size() - in_strip);
            const strip_location loc = map_.locate(stripe, col);
            const std::size_t lo = in_strip - in_strip % integrity_block_;
            const std::size_t hi =
                (in_strip + chunk + integrity_block_ - 1) / integrity_block_ *
                integrity_block_;
            const std::byte* bytes = nullptr;
            const io_status st =
                latmon_.enabled()
                    ? read_chunk_failslow(stripe, col, lo, hi - lo, bytes)
                    : verified_disk_view(loc.disk, loc.offset + lo, hi - lo,
                                         bytes, read_scratch_.data());
            if (st != io_status::ok) {
                degraded = true;
                break;
            }
            std::memcpy(out.data() + done + copied, bytes + (in_strip - lo),
                        chunk);
            copied += chunk;
            off += chunk;
        }

        if (degraded) {
            // Small reads: recover just the touched elements via row
            // parity (k element reads each) before paying a full-stripe
            // decode. Falls back when a second column is unavailable.
            bool element_path = span_len <= 2 * map_.element_size();
            if (element_path) {
                util::aligned_buffer ebuf(map_.element_size());
                for (std::size_t i = 0; i < span_len && element_path;) {
                    const std::size_t o = in_stripe + i;
                    const auto col =
                        static_cast<std::uint32_t>(o / map_.strip_size());
                    const std::size_t in_strip = o % map_.strip_size();
                    const auto row = static_cast<std::uint32_t>(
                        in_strip / map_.element_size());
                    const std::size_t in_elem =
                        in_strip % map_.element_size();
                    const std::size_t chunk = std::min(
                        span_len - i, map_.element_size() - in_elem);
                    const strip_location loc = map_.locate(stripe, col);
                    const std::size_t elem_off =
                        loc.offset +
                        static_cast<std::size_t>(row) * map_.element_size();
                    const io_status est =
                        verified_disk_read(loc.disk, elem_off, ebuf.span());
                    if (est != io_status::ok) {
                        if (!read_element_degraded(stripe, row, col,
                                                   ebuf.span())) {
                            element_path = false;
                            break;
                        }
                        if (est == io_status::checksum_mismatch &&
                            disk_write(loc.disk, elem_off, ebuf.span()) ==
                                io_status::ok) {
                            // Element-granular read-repair: the verified
                            // reconstruction overwrites the rot instead of
                            // leaving it in wait for the next failure.
                            ctr_.inc<&array_stats::reads_self_healed>();
                        }
                    }
                    std::memcpy(out.data() + done + i, ebuf.data() + in_elem,
                                chunk);
                    i += chunk;
                }
            }
            if (!element_path) {
                std::vector<std::byte*> cols;
                if (!load_and_decode(stripe, cols)) {
                    note_unrecoverable_read(stripe);
                    return false;
                }
                // Gather the requested bytes from the rebuilt stripe.
                for (std::size_t i = 0; i < span_len;) {
                    const std::size_t o = in_stripe + i;
                    const auto col =
                        static_cast<std::uint32_t>(o / map_.strip_size());
                    const std::size_t in_strip = o % map_.strip_size();
                    const std::size_t chunk =
                        std::min(span_len - i, map_.strip_size() - in_strip);
                    std::memcpy(out.data() + done + i, cols[col] + in_strip,
                                chunk);
                    i += chunk;
                }
            }
        }
        done += span_len;
    }
    return true;
}

bool raid6_array::write(std::size_t addr, std::span<const std::byte> in) {
    const write_piece whole{addr, in};
    return write(std::span<const write_piece>(&whole, 1));
}

bool raid6_array::write(std::span<const write_piece> pieces) {
    const std::size_t sds = map_.stripe_data_size();
    expect_piece_list(pieces, sds, capacity());
    service_events();
    const std::size_t addr = pieces.front().addr;
    std::size_t total = 0;
    for (const write_piece& pc : pieces) total += pc.host.size();
    // Host cursor: the next `len` bytes of the extent. A stripe never
    // straddles two pieces, so they always lie in one host buffer.
    std::size_t piece = 0;
    std::size_t in_piece = 0;
    const auto take = [&](std::size_t len) {
        while (in_piece == pieces[piece].host.size()) {
            ++piece;
            in_piece = 0;
        }
        LIBERATION_EXPECTS(in_piece + len <= pieces[piece].host.size());
        const std::span<const std::byte> out =
            pieces[piece].host.subspan(in_piece, len);
        in_piece += len;
        return out;
    };
    std::vector<const std::byte*> run_data;
    std::size_t done = 0;
    while (done < total) {
        const std::size_t a = addr + done;
        const std::size_t stripe = a / sds;
        const std::size_t in_stripe = a % sds;
        const std::size_t span_len = std::min(total - done, sds - in_stripe);

        bool ok;
        std::size_t advance = span_len;
        if (in_stripe == 0 && span_len == sds) {
            // A run of consecutive full stripes goes through the async
            // pipeline: all k+2 column writes of every stripe in the
            // window are in flight together, and parity of stripe i+1 is
            // computed while stripe i's columns are still landing.
            const std::size_t run = (total - done) / sds;
            advance = run * sds;
            run_data.resize(run);
            for (const std::byte*& p : run_data) p = take(sds).data();
            ok = write_full_stripes(stripe, run_data);
        } else {
            ok = write_partial(stripe, in_stripe, take(span_len));
        }
        // Power died during this stripe's update: nothing further lands,
        // the host never observes the result, and the journal owns any
        // tear. Reporting failure would be a verdict nobody is alive to
        // hear — the seed's "the host never learns" semantics.
        if (!powered_) return true;
        if (!ok) return false;
        done += advance;
    }
    return true;
}

bool raid6_array::write_full_stripes(
    std::size_t first, std::span<const std::byte* const> stripes) {
    // One span/sample for the whole pipelined run (it is one host op);
    // per-request latencies live in the aio_* stage histograms.
    obs::timed_span span(obs_, hist_write_full_, "raid.write_full_stripes");
    // Parity CRCs ride the fused encode below and the parity submissions
    // carry them for the integrity layer to install; data CRCs are
    // computed by the copy that lands each data column on its medium.
    aio::stripe_writer& writer = *full_writer_;
    const std::size_t count = stripes.size();
    const std::uint32_t k = map_.k();
    const std::uint32_t n = map_.n();
    std::size_t done = 0;
    bool mark_failed = false;
    while (done < count && !mark_failed) {
        std::size_t window = std::min(writer.window(), count - done);
        // A bounded intent log must keep headroom for the whole window:
        // the window is capped at the free NVRAM words (at least one
        // stripe), so a log with one free word still accepts a run, one
        // stripe at a time.
        if (journal_.capacity() != 0) {
            const std::size_t free_slots =
                journal_.capacity() > journal_.size()
                    ? journal_.capacity() - journal_.size()
                    : 0;
            window = std::min(window, std::max<std::size_t>(1, free_slots));
        }
        // Group commit: every intent entry of the window reaches the store
        // in one persist before anything is staged or submitted, and the
        // clears in one persist after the drain — the persisted state at
        // the op's boundaries is the per-stripe protocol's, and no intent
        // persist falls between the column writes and their checksum
        // persists.
        std::size_t submitted = 0;
        while (submitted < window) {
            if (!journal_mark(first + done + submitted,
                              intent_log::all_columns, /*persist=*/false)) {
                mark_failed = true;
                break;
            }
            ++submitted;
        }
        if (submitted > 0 && powered_) persist_intent();
        for (std::size_t i = 0; i < submitted; ++i) {
            const std::size_t s = first + done + i;
            ctr_.inc<&array_stats::full_stripe_writes>();
            const std::span<std::byte* const> cols =
                writer.stage(i, stripes[done + i]);
            // Data columns enter their disks' windows before parity
            // exists; each window executes, batched per disk in
            // submission order, when it fills or at the drain.
            writer.submit_columns(s, i, cols, 0, k);
            const codes::stripe_view v(cols, map_.rows(),
                                       map_.element_size());
            code_.encode_crc(v, integrity_block_, writer.parity_crcs(i, 0),
                             writer.parity_crcs(i, 1));
            writer.submit_columns(s, i, cols, k, n);
        }
        writer.drain();
        // Store results are ignored: failed disks miss the update and the
        // stripe stays decodable while <= 2 columns are down. The journal
        // entry is cleared only once every column of the stripe has been
        // given to the backend.
        if (powered_ && submitted > 0) {
            for (std::size_t i = 0; i < submitted; ++i)
                journal_clear(first + done + i, /*persist=*/false);
            persist_intent();
        }
        if (!powered_) return true;
        done += submitted;
    }
    if (mark_failed) return false;
    return failed_disk_count() <= 2;
}

bool raid6_array::write_partial(std::size_t stripe, std::size_t in_stripe,
                                std::span<const std::byte> in) {
    obs::timed_span span(obs_, hist_write_small_, "raid.write_small");
    const std::size_t elem = map_.element_size();
    const std::uint32_t pc = code_.p_column();
    const std::uint32_t qc = code_.q_column();
    const auto& g = code_.geom();

    // One touched data element per plan entry.
    struct touch {
        std::uint32_t col, row;
        std::size_t in_elem;   ///< first modified byte within the element
        std::size_t src_off;   ///< offset into `in`
        std::size_t chunk;
        std::uint32_t slot = 0;  ///< the element's place in the write order
    };
    std::vector<touch> plan;
    for (std::size_t i = 0; i < in.size();) {
        const std::size_t o = in_stripe + i;
        const auto col = static_cast<std::uint32_t>(o / map_.strip_size());
        const std::size_t in_strip = o % map_.strip_size();
        const auto row = static_cast<std::uint32_t>(in_strip / elem);
        const std::size_t in_elem = in_strip % elem;
        const std::size_t chunk = std::min(in.size() - i, elem - in_elem);
        plan.push_back({col, row, in_elem, i, chunk});
        i += chunk;
    }
    const auto elem_offset = [&](std::uint32_t col, std::uint32_t row) {
        const strip_location loc = map_.locate(stripe, col);
        return std::pair{loc.disk,
                         loc.offset + static_cast<std::size_t>(row) * elem};
    };

    // Every element the update-optimal path rewrites, in write order: per
    // touched data element, the parity elements it patches that no earlier
    // touch listed (in update_targets order), then the data element. A
    // one-element write lands P, Q (and an extra-bit Q) before its data; a
    // parity element two touches patch is written once, with both deltas.
    constexpr std::uint32_t unlisted = ~std::uint32_t{0};
    std::vector<std::pair<std::uint32_t, std::size_t>> at;  // disk, offset
    std::vector<std::uint32_t> parity_slot(2 * std::size_t{map_.rows()},
                                           unlisted);
    const auto slot_of = [&](const core::parity_element& pe) -> std::uint32_t& {
        return parity_slot[(pe.col == pc ? 0 : map_.rows()) + pe.row];
    };
    for (touch& t : plan) {
        for (const core::parity_element& pe :
             core::update_targets(g, t.row, t.col)) {
            std::uint32_t& slot = slot_of(pe);
            if (slot != unlisted) continue;
            slot = static_cast<std::uint32_t>(at.size());
            at.push_back(elem_offset(pe.col, pe.row));
        }
        t.slot = static_cast<std::uint32_t>(at.size());
        at.push_back(elem_offset(t.col, t.row));
    }
    const std::size_t count = at.size();

    // Validate phase, the only read: the update-optimal path needs every
    // element it rewrites to be readable, and keeps the verified old bytes
    // for the whole write. Nothing is mutated until validation passes, so
    // the stripe never ends up half-updated before the reconstruct-write
    // fallback below runs. Reads are verified: XOR-patching parity with a
    // delta computed from silently corrupt old bytes would bake the
    // corruption into parity permanently. A checksum mismatch here simply
    // demotes the write to the fallback, whose classification heals it.
    // So does a journaled stripe: patching parity that may be torn would
    // carry the tear forward under a cleared entry, and the fallback's
    // load re-syncs the stripe first (or refuses the write).
    util::aligned_buffer bytes((2 * count + 1) * elem);
    const auto kept = [&](std::size_t i) { return bytes.data() + i * elem; };
    const auto fresh = [&](std::size_t i) {
        return bytes.data() + (count + i) * elem;
    };
    std::byte* const delta = fresh(count);
    bool fast_ok = settle_torn_stripe(stripe, {}, {}, {});
    for (std::size_t i = 0; fast_ok && i < count; ++i) {
        fast_ok = verified_disk_read(at[i].first, at[i].second,
                                     {kept(i), elem}) == io_status::ok;
    }

    if (fast_ok) {
        // Each element's new bytes: the host's bytes spliced into a data
        // element, every delta of the touches that patch it XOR-ed into a
        // parity element.
        std::memcpy(fresh(0), kept(0), count * elem);
        for (const touch& t : plan) {
            std::byte* const d = fresh(t.slot);
            std::memcpy(d + t.in_elem, in.data() + t.src_off, t.chunk);
            xorops::xor2(delta, kept(t.slot), d, elem);
            std::byte* dsts[3];
            std::size_t n = 0;
            for (const core::parity_element& pe :
                 core::update_targets(g, t.row, t.col)) {
                dsts[n++] = fresh(slot_of(pe));
            }
            xorops::xor_broadcast(dsts, n, delta, elem);
        }

        // Apply phase: writes only, each element once. Validation makes
        // failures rare, but transient faults or a health trip can still
        // strike between phases. On a mid-apply failure every landed
        // element is restored from its kept old bytes (exact, because a
        // failed vdisk write never reaches the medium), so a complete
        // restore leaves the stripe as it was and its journal entry is
        // cleared. A failed restore leaves the entry: the stripe is torn,
        // and the fallback's load re-syncs it or refuses.
        std::uint64_t touch_mask = (std::uint64_t{1} << pc) |
                                   (std::uint64_t{1} << qc);
        for (const touch& t : plan) touch_mask |= std::uint64_t{1} << t.col;
        if (!journal_mark(stripe, touch_mask)) return false;
        std::size_t landed = 0;
        while (landed < count &&
               disk_write(at[landed].first, at[landed].second,
                          {fresh(landed), elem}) == io_status::ok) {
            ++landed;
        }
        if (landed == count) {
            journal_clear(stripe);
            ctr_.inc<&array_stats::parity_elements_updated>(count -
                                                            plan.size());
            ctr_.inc<&array_stats::small_writes>();
            return true;
        }
        bool exact = true;
        for (std::size_t i = 0; i < landed && exact; ++i) {
            exact = disk_write(at[i].first, at[i].second, {kept(i), elem}) ==
                    io_status::ok;
        }
        if (exact) journal_clear(stripe);
        // Power died mid-apply: nothing more lands, and the stripe stays
        // journaled for replay after the reboot.
        if (!powered_) return true;
    }

    // Reconstruct-write fallback: reconstruct the whole stripe
    // (checksum-verified — a silently corrupt column must not be
    // re-encoded into fresh parity), splice the new bytes, re-encode,
    // write everything that is still online. A stripe left journaled
    // (from a crash, or a restore that failed above) is re-synced by the
    // load, or the load refuses: the write then fails loudly and the
    // stripe stays journaled for recover_write_hole().
    const stripe_recovery rec = load_stripe_verified(stripe);
    if (!rec.ok) return false;
    codes::stripe_buffer buf = make_stripe_buffer();
    for (std::uint32_t c = 0; c < map_.n(); ++c) {
        std::memcpy(buf.view().strip(c).data(), rec.cols[c],
                    map_.strip_size());
    }
    if (!rec.erased.empty()) {
        ctr_.inc<&array_stats::degraded_stripe_reads>();
        for (const std::uint32_t col : rec.erased) {
            // Latent sector errors heal below when every column is
            // rewritten; keep the accounting load_and_decode would do.
            if (rec.statuses[col] == io_status::unreadable_sector) {
                ctr_.inc<&array_stats::media_errors_recovered>();
            }
        }
    }
    if (!rec.healed.empty()) {
        ctr_.inc<&array_stats::reads_self_healed>();
    }
    for (std::size_t j = 0; j < in.size();) {
        const std::size_t o = in_stripe + j;
        const auto col = static_cast<std::uint32_t>(o / map_.strip_size());
        const std::size_t in_strip = o % map_.strip_size();
        const std::size_t chunk =
            std::min(in.size() - j, map_.strip_size() - in_strip);
        std::memcpy(buf.view().strip(col).data() + in_strip, in.data() + j,
                    chunk);
        j += chunk;
    }
    code_.encode(buf.view());
    std::vector<std::uint32_t> cols(map_.n());
    for (std::uint32_t c = 0; c < map_.n(); ++c) cols[c] = c;
    if (!journal_mark(stripe, intent_log::all_columns)) return false;
    store_columns(stripe, buf.view(), cols);
    journal_clear(stripe);
    ctr_.inc<&array_stats::small_writes>();
    return failed_disk_count() <= 2;
}

}  // namespace liberation::raid
