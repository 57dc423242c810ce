#include "liberation/raid/latency_monitor.hpp"

#include <algorithm>

#include "liberation/util/assert.hpp"

namespace liberation::raid {

latency_monitor::latency_monitor(std::uint32_t disks,
                                 const latency_config& cfg)
    : cfg_(cfg) {
    disks_.reserve(disks);
    for (std::uint32_t d = 0; d < disks; ++d) add_disk();
}

void latency_monitor::add_disk() {
    disks_.push_back(std::make_unique<per_disk>());
}

std::uint64_t latency_monitor::deadline_of(const per_disk& d) const {
    if (!cfg_.hedged_reads) return cfg_.max_deadline_us;
    if (d.samples.load(std::memory_order_relaxed) < cfg_.min_samples) {
        return cfg_.max_deadline_us;
    }
    const std::uint64_t p99 = d.hist.snapshot().p99;
    const auto scaled = static_cast<std::uint64_t>(
        cfg_.deadline_factor * static_cast<double>(p99));
    return std::clamp(scaled, cfg_.min_deadline_us, cfg_.max_deadline_us);
}

std::uint64_t latency_monitor::deadline_us(std::uint32_t disk) const {
    LIBERATION_EXPECTS(disk < disks_.size());
    return deadline_of(*disks_[disk]);
}

bool latency_monitor::note_read(std::uint32_t disk,
                                std::uint64_t latency_us) {
    LIBERATION_EXPECTS(disk < disks_.size());
    if (!cfg_.hedged_reads) return false;
    per_disk& d = *disks_[disk];
    // Deadline from the distribution *before* this sample: a stall must
    // not dilute the threshold it is judged against. Samples are
    // winsorized at the deadline — recording a 50 ms stall raw would let
    // a straggler inflate its own p99 until nothing counts as late, while
    // clipping still lets the deadline ratchet up (×factor per escalation)
    // when the disk's *on-time* behaviour genuinely shifts.
    const std::uint64_t deadline = deadline_of(d);
    d.hist.record(std::min(latency_us, deadline));
    d.samples.fetch_add(1, std::memory_order_relaxed);

    if (latency_us > deadline) {
        d.misses.fetch_add(1, std::memory_order_relaxed);
        d.ok_probes.store(0, std::memory_order_relaxed);
        const std::uint32_t streak =
            d.miss_streak.fetch_add(1, std::memory_order_relaxed) + 1;
        if (streak >= cfg_.slow_trip_misses) {
            auto expected = static_cast<std::uint8_t>(disk_pace::normal);
            if (d.pace.compare_exchange_strong(
                    expected,
                    static_cast<std::uint8_t>(disk_pace::suspect_slow),
                    std::memory_order_acq_rel)) {
                d.trips.fetch_add(1, std::memory_order_relaxed);
                return true;
            }
        }
        return false;
    }

    d.miss_streak.store(0, std::memory_order_relaxed);
    // On-time sample on a quarantined disk: a probe that came back fast.
    if (d.pace.load(std::memory_order_acquire) ==
        static_cast<std::uint8_t>(disk_pace::suspect_slow)) {
        const std::uint32_t ok =
            d.ok_probes.fetch_add(1, std::memory_order_relaxed) + 1;
        if (ok >= cfg_.recover_probes) {
            auto expected =
                static_cast<std::uint8_t>(disk_pace::suspect_slow);
            if (d.pace.compare_exchange_strong(
                    expected, static_cast<std::uint8_t>(disk_pace::normal),
                    std::memory_order_acq_rel)) {
                d.recoveries.fetch_add(1, std::memory_order_relaxed);
                d.ok_probes.store(0, std::memory_order_relaxed);
            }
        }
    }
    return false;
}

disk_pace latency_monitor::pace(std::uint32_t disk) const {
    LIBERATION_EXPECTS(disk < disks_.size());
    return static_cast<disk_pace>(
        disks_[disk]->pace.load(std::memory_order_acquire));
}

bool latency_monitor::take_probe(std::uint32_t disk) {
    LIBERATION_EXPECTS(disk < disks_.size());
    per_disk& d = *disks_[disk];
    d.routed.fetch_add(1, std::memory_order_relaxed);
    if (cfg_.probe_every == 0) return false;
    const std::uint32_t tick =
        d.probe_tick.fetch_add(1, std::memory_order_relaxed) + 1;
    return tick % cfg_.probe_every == 0;
}

void latency_monitor::note_hedge(std::uint32_t disk) {
    LIBERATION_EXPECTS(disk < disks_.size());
    disks_[disk]->hedges.fetch_add(1, std::memory_order_relaxed);
}

disk_latency_stats latency_monitor::stats(std::uint32_t disk) const {
    LIBERATION_EXPECTS(disk < disks_.size());
    const per_disk& d = *disks_[disk];
    return {d.samples.load(std::memory_order_relaxed),
            d.misses.load(std::memory_order_relaxed),
            d.trips.load(std::memory_order_relaxed),
            d.recoveries.load(std::memory_order_relaxed),
            d.hedges.load(std::memory_order_relaxed),
            d.routed.load(std::memory_order_relaxed),
            deadline_of(d),
            pace(disk)};
}

void latency_monitor::reset(std::uint32_t disk) {
    LIBERATION_EXPECTS(disk < disks_.size());
    // In place, like health_monitor::reset — the node must stay put
    // because a stats() reader on another thread may hold a reference
    // into it.
    per_disk& d = *disks_[disk];
    d.hist.clear();
    d.samples.store(0, std::memory_order_relaxed);
    d.misses.store(0, std::memory_order_relaxed);
    d.miss_streak.store(0, std::memory_order_relaxed);
    d.ok_probes.store(0, std::memory_order_relaxed);
    d.probe_tick.store(0, std::memory_order_relaxed);
    d.pace.store(static_cast<std::uint8_t>(disk_pace::normal),
                 std::memory_order_release);
}

void latency_monitor::force_quarantine(std::uint32_t disk) {
    LIBERATION_EXPECTS(disk < disks_.size());
    disks_[disk]->pace.store(
        static_cast<std::uint8_t>(disk_pace::suspect_slow),
        std::memory_order_release);
}

}  // namespace liberation::raid
