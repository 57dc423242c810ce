// io_uring-style queue pair: submission ring in, completion ring out.
//
// Lifecycle of a request:
//   submit(io_desc)            — enqueue; may trigger a flush when the
//                                 owning disk's in-flight window fills
//   [flush]                    — pending requests are grouped per disk,
//                                 adjacent ones merged into larger
//                                 transfers, and executed through the
//                                 io_backend on the submitting thread,
//                                 in submission order
//   [completion stages]        — decorators run over each *original*
//                                 request's result at drain()
//                                 (e.g. checksum verification)
//   drain() / completions()    — io_cqe entries appear in submission
//                                 order, one per submitted request; a
//                                 view's entry points at its bytes on
//                                 the medium
//
// Failure isolation: when a merged transfer fails, it is split back into
// its fragments and each fragment re-driven individually (counted in
// aio_stats::split_retries), so an error localizes to the strip that
// actually failed instead of poisoning the whole merged extent.
//
// A queue_pair belongs to one array and is driven by whichever single
// thread runs that array's operation (the caller, or the volume's
// dispatcher thread for that shard); it takes no lock.
//
// Execution is allocation-free in steady state: fragments flow through
// member scratch vectors that are reused flush after flush (the simulated
// disks complete in nanoseconds, so per-request heap traffic would
// dominate the real I/O work being batched).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "liberation/aio/aio.hpp"
#include "liberation/aio/ring.hpp"
#include "liberation/obs/obs.hpp"

namespace liberation::aio {

/// A completion-stage decorator. Runs at drain() after the execution
/// stage, in registration order, each stage seeing the status left by
/// the previous one. Returning a different status rewrites the
/// request's completion (this is how verified reads layer CRC checking
/// over the retrying backend without the backend knowing).
using completion_stage =
    std::function<raid::io_status(const io_desc&, raid::io_status)>;

/// The engine's counters (see obs::counter_def). inflight_highwater is
/// not a counter: it is the aio_inflight_highwater gauge.
inline constexpr obs::counter_def<aio_stats> kAioCounters[] = {
    {"aio_submitted_total", "requests accepted into the ring",
     &aio_stats::submitted},
    {"aio_completed_total", "completions delivered", &aio_stats::completed},
    {"aio_batches_total", "transfers issued to the backend (transfers)",
     &aio_stats::batches},
    {"aio_merges_total", "reads absorbed into a neighbour",
     &aio_stats::merges},
    {"aio_split_retries_total", "merged transfers re-driven split",
     &aio_stats::split_retries},
};

class queue_pair {
public:
    queue_pair(io_backend& backend, std::uint32_t disks, const aio_config& cfg);
    ~queue_pair();

    queue_pair(const queue_pair&) = delete;
    queue_pair& operator=(const queue_pair&) = delete;

    /// Register a completion-stage decorator (see completion_stage).
    void add_completion_stage(completion_stage stage);

    /// Enqueue one request. Flushes the owning disk's window when it
    /// reaches the configured queue depth. Out-of-range disks complete
    /// immediately with io_status::out_of_range.
    void submit(const io_desc& d);

    /// Execute everything still pending, run completion stages, and
    /// sequence results. After drain() returns, completions() holds one
    /// io_cqe per submitted request not yet taken, in submission order.
    void drain();

    /// Completion entries accumulated since the last take/clear (valid
    /// after drain()).
    [[nodiscard]] const std::vector<io_cqe>& completions() const noexcept {
        return completions_;
    }

    /// Discard accumulated completions without copying them out (the
    /// allocation-free companion of take_completions(): the vector's
    /// storage is reused by the next drain).
    void clear_completions() noexcept { completions_.clear(); }

    /// Hand over and clear the accumulated completions.
    std::vector<io_cqe> take_completions();

    /// Relaxed snapshot of the engine counters, read from the registry
    /// that holds them (the registry's atomics let a metrics scrape on
    /// another thread read them while the engine runs).
    [[nodiscard]] aio_stats stats() const noexcept;
    [[nodiscard]] const aio_config& config() const noexcept { return cfg_; }

private:
    // One original request captured inside a batch.
    struct fragment {
        io_desc desc;
        std::uint64_t seq = 0;  // global submission order
        // Causal context captured at submit(), reinstalled around the
        // backend call — which runs at a later submit() or at drain(),
        // when the ambient context may have moved on — so retries and
        // nested events stay in the submitting host op's tree.
        obs::trace_context tctx{};
        raid::io_status status = raid::io_status::ok;
        // Stage timestamps on the hub's clock (0 without a hub). done_ts
        // is captured right after the backend call — not at drain — so
        // completion latency reflects real time-in-pipeline: at depth 8
        // the last request of a window waits behind seven transfers, at
        // depth 1 it never waits.
        std::uint64_t submit_ts = 0;
        std::uint64_t done_ts = 0;
    };
    // One transfer handed to the backend: a [first, first+count) range of
    // merged fragments inside the flush's flat fragment array.
    struct batch {
        io_desc merged;  // the (possibly coalesced) transfer
        std::size_t first = 0;
        std::size_t count = 0;
    };

    void flush_disk(std::uint32_t disk);
    /// Pop the disk's window into flush_frags_ (appending) and append the
    /// coalesced transfer ranges to flush_batches_.
    void build_batches(std::uint32_t disk);
    /// Execute one transfer over flush_frags_. Returns true when the
    /// merged transfer failed and was split back into per-fragment
    /// re-drives.
    bool execute_one(const batch& b);
    /// One backend call: execute() for a read or write, view() for a view
    /// (`view` receives its bytes on ok).
    raid::io_status run(const io_desc& d, const std::byte*& view);
    static void set_view(fragment& f, const std::byte* at) noexcept;

    io_backend& backend_;
    aio_config cfg_;
    /// The hub when aio_config::obs is null (see there).
    std::unique_ptr<obs::hub> own_obs_;
    obs::hub& obs_;
    obs::counter_set<kAioCounters> ctr_;
    obs::gauge& highwater_;
    obs::latency_histogram& hist_queue_wait_;
    obs::latency_histogram& hist_execute_;
    obs::latency_histogram& hist_complete_;
    std::vector<completion_stage> stages_;

    // Per-disk pending submissions (the in-flight windows).
    std::vector<ring<fragment>> pending_;
    std::uint64_t next_seq_ = 0;

    // Reused flush scratch (invalid between flushes).
    std::vector<fragment> flush_frags_;
    std::vector<batch> flush_batches_;

    // Executed fragments whose completions are not yet sequenced; drain()
    // sorts them back into submission order.
    std::vector<fragment> done_;
    std::vector<io_cqe> completions_;
};

}  // namespace liberation::aio
