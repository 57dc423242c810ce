// Core types of the async submission-queue I/O layer (io_uring-style).
//
// The aio subsystem sits between the array controller and the vdisk layer:
// callers describe disk I/O as submission-queue entries (`io_desc`), a
// `queue_pair` batches them per disk inside a configurable in-flight
// window, merges adjacent requests into one larger transfer, executes them
// through an `io_backend` (which owns retry/backoff and health accounting
// — the *execution-stage* policy), and reports per-request completions
// (`io_cqe`) after running *completion-stage* decorators such as checksum
// verification. Layering rule: aio may depend on the vdisk layer
// (io_status) and util, never on the array controller — the array plugs in
// via the io_backend interface.
#pragma once

#include <cstddef>
#include <cstdint>

#include "liberation/raid/vdisk.hpp"

namespace liberation::obs {
class hub;
}  // namespace liberation::obs

namespace liberation::aio {

/// `view` is a read that moves no bytes: it is decided like a read (the
/// same retries, faults and counters), and on completion its `data` points
/// at the requested bytes where they sit on the medium. Those bytes are the
/// medium's: read-only, and valid only within the op that submitted them.
enum class op_kind : std::uint8_t { read, write, view };

/// Request flags (io_desc::flags).
/// Run the checksum-verify completion stage on this read: bytes that
/// arrive intact but fail their stored CRC complete with
/// io_status::checksum_mismatch. Verification happens *after* the
/// execution stage, so transient errors are retried but a checksum
/// mismatch never is — re-reading rotten bytes cannot un-rot them.
inline constexpr std::uint32_t flag_verify = 1u << 0;

/// Submission-queue entry: one contiguous read or write on one disk.
/// For a read or write, `data` must stay valid until the request completes
/// (registered-buffer discipline: the stripe writer owns long-lived slot
/// buffers and reuses them window after window). A view leaves `data`
/// null; the engine sets it when the view completes ok.
struct io_desc {
    std::uint32_t disk = 0;
    op_kind kind = op_kind::read;
    std::size_t offset = 0;
    std::byte* data = nullptr;
    std::size_t len = 0;
    /// Opaque caller cookie, returned verbatim in the completion entry.
    std::uint64_t user_data = 0;
    std::uint32_t flags = 0;
    /// Writes only: per-block CRC32C values of `data` (one per integrity
    /// block), precomputed inside the traversal that produced the bytes —
    /// the integrity layer installs them instead of re-reading the buffer.
    /// Must stay valid until the request completes, like `data`. Null =
    /// the integrity layer checksums the buffer itself on completion.
    const std::uint32_t* crcs = nullptr;
};

/// Completion-queue entry: final status of one *submitted* request.
/// Merged requests complete at original-request granularity — a failed
/// merged transfer is split and re-driven per fragment, so one bad strip
/// fails only its own submission, not its neighbours in the batch.
struct io_cqe {
    std::uint64_t user_data = 0;
    raid::io_status status = raid::io_status::ok;
    std::uint32_t disk = 0;
    /// The request's bytes; for a view, where they sit on the medium
    /// (null unless the view completed ok).
    const std::byte* data = nullptr;
};

/// Tuning knobs of a queue_pair. A queue_pair always executes its
/// transfers on the thread that flushes them, in submission order.
struct aio_config {
    /// Per-disk in-flight window: submissions beyond this many pending
    /// requests on one disk force a flush. 1 executes each request as it
    /// is submitted. Adjacent read requests on one disk (contiguous both
    /// on the medium and in memory) are always coalesced into a single
    /// transfer, and so are views adjacent on the medium. Writes are never
    /// coalesced: failure simulation (the power-loss write budget) counts
    /// individual disk writes, and merging would change its granularity.
    std::size_t queue_depth = 8;
    /// Observability hub (must outlive the queue_pair): every request is
    /// timestamped on the hub's clock, the submit→execute→complete
    /// pipeline feeds three stage histograms (aio_queue_wait_ns,
    /// aio_execute_ns, aio_complete_ns) plus trace spans when tracing is
    /// enabled, and the engine counters live in the hub's registry — an
    /// engine rebuilt on the same hub continues them. Null = a private
    /// hub owned by the queue_pair.
    obs::hub* obs = nullptr;
};

/// Counter snapshot of a queue_pair (monotonic over the lifetime of the
/// registry that holds the counters — see queue_pair).
struct aio_stats {
    std::uint64_t submitted = 0;   ///< requests accepted into the ring
    std::uint64_t completed = 0;   ///< completions delivered
    std::uint64_t batches = 0;     ///< transfers issued to the backend
    std::uint64_t merges = 0;      ///< requests absorbed into a neighbour
    std::uint64_t split_retries = 0;  ///< merged transfers re-driven per fragment
    std::uint64_t inflight_highwater = 0;  ///< max pending on any one disk
};

/// Execution backend: where a submission actually lands. The array's
/// adapter routes reads/writes through its retrying io_policy and health
/// monitor, so every retry/backoff/trip decision stays where it always
/// was — the queue_pair only decides batching, order, and completion
/// semantics.
class io_backend {
public:
    virtual ~io_backend() = default;
    virtual raid::io_status execute(const io_desc& d) = 0;
    /// Execute a view (op_kind::view): decide it exactly as execute()
    /// decides a read of the same extent and, on ok, point `out` at the
    /// bytes where they sit. A backend with no addressable medium refuses
    /// views.
    virtual raid::io_status view(const io_desc& d, const std::byte*& out) {
        (void)d;
        (void)out;
        return raid::io_status::out_of_range;
    }
};

}  // namespace liberation::aio
