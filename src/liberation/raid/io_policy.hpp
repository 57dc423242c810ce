// Retrying I/O policy: bounded retries with exponential backoff over a
// virtual clock.
//
// Real drives report a large class of errors that succeed on retry
// (recovered errors, command timeouts, transport glitches). md and every
// production array absorb those in the I/O path instead of surfacing them
// to the RAID layer; only errors that survive the retry budget become
// "hard" and feed the health monitor (health.hpp). Backoff runs on a
// virtual microsecond clock so simulations stay instant and deterministic
// while still recording how long a real array would have stalled.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "liberation/obs/obs.hpp"
#include "liberation/raid/vdisk.hpp"

namespace liberation::raid {

/// Monotonic virtual time in microseconds. Shared by every component of an
/// array (I/O backoff today; scrub pacing tomorrow). Thread-safe.
class virtual_clock {
public:
    [[nodiscard]] std::uint64_t now_us() const noexcept {
        return now_us_.load(std::memory_order_relaxed);
    }
    void advance(std::uint64_t us) noexcept {
        now_us_.fetch_add(us, std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> now_us_{0};
};

/// obs::now_fn adapter over a virtual_clock (`ctx` is the clock): lets an
/// observability hub time spans in deterministic virtual nanoseconds
/// (array_config::obs_virtual_time).
[[nodiscard]] inline std::uint64_t virtual_clock_now_ns(
    const void* ctx) noexcept {
    return static_cast<const virtual_clock*>(ctx)->now_us() * 1000;
}

struct io_policy_config {
    /// Retries *after* the first attempt; total attempts = 1 + max_retries.
    std::uint32_t max_retries = 3;
    /// Backoff before the first retry; doubles each further retry.
    std::uint64_t initial_backoff_us = 100;
    /// Backoff cap (exponential growth saturates here).
    std::uint64_t max_backoff_us = 10'000;
};

/// Snapshot of policy counters (thread-safe to collect). The policy is
/// the one place retry outcomes are counted: every disk op of an array
/// goes through it.
struct io_policy_stats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t retries = 0;            ///< extra attempts issued
    std::uint64_t transient_masked = 0;   ///< ops that failed then succeeded
    std::uint64_t retries_exhausted = 0;  ///< ops still transient after budget
    std::uint64_t backoff_us = 0;         ///< virtual time spent waiting
};

/// The policy's counters (see obs::counter_def). The two retry outcomes
/// keep their raid_* exposition names.
inline constexpr obs::counter_def<io_policy_stats> kIoPolicyCounters[] = {
    {"io_reads_total", "disk reads through the retry policy",
     &io_policy_stats::reads},
    {"io_writes_total", "disk writes through the retry policy",
     &io_policy_stats::writes},
    {"io_retries_total", "extra attempts issued (attempts)",
     &io_policy_stats::retries},
    {"raid_transient_errors_masked_total", "ops saved by retries",
     &io_policy_stats::transient_masked},
    {"raid_retries_exhausted_total", "ops transient after the full budget",
     &io_policy_stats::retries_exhausted},
    {"io_backoff_us_total", "virtual time spent in retry backoff (us)",
     &io_policy_stats::backoff_us},
};

/// Outcome of one policy-mediated operation: the final status plus how many
/// transient errors were absorbed along the way (the health monitor counts
/// them even when the op ultimately succeeded — md's corrected-error
/// accounting).
struct io_result {
    io_status status = io_status::ok;
    std::uint32_t transient_seen = 0;
    /// Virtual time this op consumed: injected fail-slow service latency
    /// of every attempt plus retry backoff, in µs. In the default mode
    /// the same amount was already charged to the virtual clock; in
    /// deferred mode (hedged reads) nothing was charged and the caller
    /// decides what the host-visible wait really was.
    std::uint64_t latency_us = 0;

    [[nodiscard]] bool ok() const noexcept { return status == io_status::ok; }
};

/// The retry funnel every disk read and write of an array goes through
/// (both direct element reads/writes and the aio engine's execution stage):
/// transient errors are retried up to `max_retries` times with
/// exponential backoff on the shared virtual clock; fail-stop and latent
/// errors are permanent by definition and never retried. Checksum
/// verification runs *after* this stage, so a mismatch is final — it is
/// a property of the bytes, not of the transfer. Thread-safe: one thread
/// drives the policy at a time (the caller, or a volume shard's
/// dispatcher), while a metrics scrape may read its counters from another
/// (counters are atomic, config is immutable).
///
/// Every mediated op is timed on the hub's clock into io_read_ns /
/// io_write_ns (backoff is charged to the virtual clock, so on a
/// virtual-time hub a retried op's latency *is* its backoff — the retry
/// tail shows up in p99), each retry emits an instant trace event when
/// tracing is on, and the counters live in the hub's registry. The hub
/// must outlive the policy; without one the policy owns a private hub.
class io_policy {
public:
    io_policy(const io_policy_config& cfg, virtual_clock& clock,
              obs::hub* hub = nullptr);

    /// One mediated read (write): retries absorbed, backoff and injected
    /// fail-slow service time charged to the virtual clock,
    /// `transient_seen` reported for health accounting even when the op
    /// ultimately succeeded.
    ///
    /// With `defer_time_charge` the op's virtual cost (service latency +
    /// backoff) is *measured* into `io_result::latency_us` but NOT
    /// charged to the clock: the hedged-read orchestrator issues the
    /// direct read and the reconstruction race this way, then charges
    /// only what the winner actually made the host wait.
    io_result read(vdisk& disk, std::size_t offset, std::span<std::byte> out,
                   bool defer_time_charge = false);
    io_result write(vdisk& disk, std::size_t offset,
                    std::span<const std::byte> in,
                    const write_landing& how = {},
                    bool defer_time_charge = false);
    /// read() without the copy: the same retries, charges and counters,
    /// and on ok `out` points at the bytes on the medium (vdisk::view).
    io_result view(vdisk& disk, std::size_t offset, std::size_t len,
                   const std::byte*& out, bool defer_time_charge = false);

    [[nodiscard]] io_policy_stats stats() const noexcept {
        return ctr_.snapshot();
    }
    [[nodiscard]] const io_policy_config& config() const noexcept {
        return cfg_;
    }

private:
    template <typename Op>
    io_result run(Op&& op, io_kind kind, bool defer_time_charge);

    io_policy_config cfg_;
    virtual_clock* clock_;
    std::unique_ptr<obs::hub> own_obs_;
    obs::hub& obs_;
    obs::latency_histogram& hist_read_;
    obs::latency_histogram& hist_write_;
    obs::counter_set<kIoPolicyCounters> ctr_;
};

}  // namespace liberation::raid
