// Per-disk fail-slow monitor: adaptive deadlines and slow-disk quarantine.
//
// The health monitor (health.hpp) reacts to *errors*; this layer reacts
// to *time*. A gray-failing disk answers every request correctly but
// slowly — firmware GC pauses, a dying head retrying internally, a
// flaky link renegotiating — and stalls every stripe it touches while
// looking perfectly healthy to error accounting. The Liberation optimal
// decoder makes reconstruction nearly free in XOR count, so the array
// can afford to treat lateness like an erasure: hedge the read through
// the other k columns and decode, and if the disk is *persistently*
// late, quarantine it so reads route around it up front.
//
// Mechanics, mirroring health_monitor's shape:
//   * every policy-mediated read's virtual latency is fed to
//     note_read(); each disk keeps its own power-of-two histogram;
//   * the per-disk deadline is clamp(p99 × deadline_factor) — adaptive,
//     so a uniformly slow fleet does not hedge against itself, while a
//     single straggler stands out. Below min_samples the deadline sits
//     at max_deadline_us: a cold array never hedges;
//   * slow_trip_misses *consecutive* deadline misses trip the disk into
//     suspect_slow (reported exactly once per episode, CAS); reads then
//     route around it via decode while writes still land;
//   * every probe_every-th routed read probes the quarantined disk
//     directly; recover_probes consecutive on-time probes un-quarantine
//     it (gray failures are often transient — GC ends, link recovers).
//
// All counters are atomics: one thread feeds the monitor at a time (the
// caller, or a volume shard's dispatcher), while a metrics scrape may
// read stats() from another. Quarantine state is persisted
// across remount via a flag bit in the superblock slot states (see
// persist/superblock.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "liberation/obs/metrics.hpp"

namespace liberation::raid {

/// Off by default: hedging changes read-path behaviour (and virtual-time
/// accounting), so arrays opt in — like health_config's thresholds.
struct latency_config {
    /// Master switch for the whole fail-slow layer: hedged reads,
    /// deadline tracking, and quarantine. Off = note_read() is a no-op
    /// and deadline_us() reports "no deadline" (max).
    bool hedged_reads = false;
    /// Deadline = clamp(p99 × deadline_factor, min, max).
    double deadline_factor = 4.0;
    std::uint64_t min_deadline_us = 200;
    std::uint64_t max_deadline_us = 2'000'000;
    /// Deadlines stay at max until this many samples have been seen —
    /// a cold distribution's p99 is noise.
    std::uint64_t min_samples = 32;
    /// Consecutive deadline misses that trip a disk into suspect_slow.
    std::uint32_t slow_trip_misses = 8;
    /// While quarantined, every Nth read probes the disk directly
    /// instead of routing around it (0 = never probe: quarantine is
    /// permanent until reset).
    std::uint32_t probe_every = 16;
    /// Consecutive on-time probes that lift the quarantine.
    std::uint32_t recover_probes = 4;
};

enum class disk_pace : std::uint8_t {
    normal,
    suspect_slow,  ///< quarantined: reads route around it, writes land
};

struct disk_latency_stats {
    std::uint64_t samples = 0;
    std::uint64_t deadline_misses = 0;
    std::uint64_t slow_trips = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t hedged_reads = 0;
    std::uint64_t routed_reads = 0;
    std::uint64_t deadline_us = 0;  ///< current adaptive deadline
    disk_pace pace = disk_pace::normal;
};

class latency_monitor {
public:
    latency_monitor(std::uint32_t disks, const latency_config& cfg);

    [[nodiscard]] bool enabled() const noexcept { return cfg_.hedged_reads; }

    /// Feed one mediated read's virtual latency (µs). Returns true
    /// exactly once per quarantine episode: on the transition into
    /// suspect_slow. Also drives recovery — an on-time sample on a
    /// quarantined disk (a probe) counts toward un-quarantine.
    bool note_read(std::uint32_t disk, std::uint64_t latency_us);

    /// Current adaptive deadline for the disk in µs (max_deadline_us
    /// while the distribution is cold or the layer is disabled).
    [[nodiscard]] std::uint64_t deadline_us(std::uint32_t disk) const;

    [[nodiscard]] disk_pace pace(std::uint32_t disk) const;
    [[nodiscard]] bool quarantined(std::uint32_t disk) const {
        return pace(disk) == disk_pace::suspect_slow;
    }

    /// While quarantined, the read path calls this per routed read:
    /// returns true when this read should probe the disk directly
    /// (every probe_every-th call), false to route around via decode.
    /// Counts routed reads either way.
    [[nodiscard]] bool take_probe(std::uint32_t disk);

    /// The read path hedged against this disk (deadline outlived).
    void note_hedge(std::uint32_t disk);

    [[nodiscard]] disk_latency_stats stats(std::uint32_t disk) const;
    [[nodiscard]] std::uint32_t disk_count() const noexcept {
        return static_cast<std::uint32_t>(disks_.size());
    }

    /// Fresh hardware in this slot: clear the distribution, the miss
    /// streak, and any quarantine.
    void reset(std::uint32_t disk);

    /// Track one more disk (online growth).
    void add_disk();

    /// Mount-time restore of a persisted quarantine: enter suspect_slow
    /// without counting a trip (the trip was counted last boot).
    void force_quarantine(std::uint32_t disk);

    [[nodiscard]] const latency_config& config() const noexcept {
        return cfg_;
    }

private:
    struct per_disk {
        obs::latency_histogram hist;  // µs samples, power-of-two buckets
        std::atomic<std::uint64_t> samples{0};
        std::atomic<std::uint64_t> misses{0};
        std::atomic<std::uint32_t> miss_streak{0};
        std::atomic<std::uint64_t> trips{0};
        std::atomic<std::uint64_t> recoveries{0};
        std::atomic<std::uint64_t> hedges{0};
        std::atomic<std::uint64_t> routed{0};
        std::atomic<std::uint32_t> probe_tick{0};
        std::atomic<std::uint32_t> ok_probes{0};
        std::atomic<std::uint8_t> pace{
            static_cast<std::uint8_t>(disk_pace::normal)};
    };

    [[nodiscard]] std::uint64_t deadline_of(const per_disk& d) const;

    latency_config cfg_;
    // unique_ptr so the vector can grow (add_disk) without moving atomics.
    std::vector<std::unique_ptr<per_disk>> disks_;
};

}  // namespace liberation::raid
