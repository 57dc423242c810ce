// Scale-out volume: one logical address space striped across N
// independent raid6_array shards.
//
// Placement is chunk-granular round-robin. The volume address space is
// cut into fixed chunks of `chunk_stripes` whole stripes worth of data
// bytes; chunk c lives on shard (c mod N) at local chunk (c div N):
//
//   chunk_bytes = chunk_stripes * stripe_data_size
//   chunk       = addr / chunk_bytes
//   shard       = chunk % shards
//   local addr  = (chunk / shards) * chunk_bytes + addr % chunk_bytes
//
// Consecutive chunks of one shard map to consecutive *local* chunks, so
// however many chunks a host extent spans, its footprint on each shard is
// one gapless local extent — every host op becomes at most one read or
// one write per shard, which keeps the shards' full-stripe and pipelined
// aio paths effective. The shard gets that extent as a piece list over
// the host buffer (raid::read_piece/write_piece): no byte is copied on
// the way down.
//
// Each shard is a complete raid6_array: its own io_policy, health and
// latency monitors, hot-spare pool, intent log, integrity regions,
// virtual clock, and obs hub. Faults are therefore shard-local: a
// double-failure degrades one shard's stripes while the other shards
// serve at full speed, and a background rebuild drains inside one shard
// only. The volume adds a thin dispatcher on top:
//
//   * a multi-shard op runs its last touched shard's leg on the calling
//     thread and hands every other leg to that shard's dispatcher (one
//     thread per shard, so per-shard op order equals host op order —
//     results stay deterministic), then barriers per host op. Hand-offs
//     poll a sequence word briefly before they sleep on it
//     (shard_dispatcher), so a busy stream of ops pays no thread
//     wake-up on its critical path. Inside a leg, the shard's aio queue
//     pair executes inline on the leg's thread;
//   * a volume-level obs hub rolls the shards up: volume_* counters and
//     histograms plus per-shard labeled series (shard="N").
//
// Persistence (volume/mount.hpp) gives every shard its own store
// directory and adds a CRC-protected volume manifest naming the shard
// set; see volume/manifest.hpp.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "liberation/obs/obs.hpp"
#include "liberation/raid/array.hpp"
#include "liberation/volume/manifest.hpp"

namespace liberation::volume {

struct volume_config {
    /// Number of raid6_array shards the address space stripes across.
    std::uint32_t shards = 1;
    /// Geometry and behaviour of every shard (identical by construction).
    raid::array_config shard{};
    /// Whole stripes of data per placement chunk. Must divide
    /// shard.stripes. 1 = finest interleave (best single-op fan-out).
    std::size_t chunk_stripes = 1;
    /// Fan multi-shard ops out: the caller runs one touched shard's leg
    /// and each shard's dispatcher thread runs the others. Off = shards
    /// are visited sequentially on the caller's thread (byte-identical
    /// results either way).
    bool threaded_dispatch = true;
    /// Must be 0 (validate_config refuses any other value): shards drive
    /// their aio queue pairs inline on the thread that runs their leg.
    /// Kept only because existing callers assign it.
    std::size_t io_workers_per_shard = 0;
};

/// Refuse (contract failure) a config no volume can be built from: a
/// shard count outside [1, persist::manifest_max_shards], a chunk that
/// does not divide the shard's stripes, or io_workers_per_shard != 0.
void validate_config(const volume_config& cfg);

/// Volume-level operation counters plus the sum of every shard's
/// array_stats. Snapshot semantics match raid::array_stats.
struct volume_stats {
    std::uint64_t reads = 0;            ///< host read ops
    std::uint64_t writes = 0;           ///< host write ops
    std::uint64_t failed_reads = 0;     ///< host reads refused by a shard
    std::uint64_t failed_writes = 0;    ///< host writes refused by a shard
    std::uint64_t chunks_routed = 0;    ///< placement chunks touched
    std::uint64_t multi_shard_ops = 0;  ///< host ops spanning > 1 shard
    /// Always 0: shards read and write the host buffer in place. Kept for
    /// readers of the stats struct.
    std::uint64_t staged_bytes = 0;
    raid::array_stats shard_total{};    ///< all shards summed
};

/// The volume hub's own counters (see obs::counter_def).
inline constexpr obs::counter_def<volume_stats> kVolumeCounters[] = {
    {"volume_reads_total", "host reads served by the volume",
     &volume_stats::reads},
    {"volume_writes_total", "host writes served by the volume",
     &volume_stats::writes},
    {"volume_failed_reads_total", "host reads a shard refused",
     &volume_stats::failed_reads},
    {"volume_failed_writes_total", "host writes a shard refused",
     &volume_stats::failed_writes},
    {"volume_chunks_routed_total", "placement chunks touched (chunks)",
     &volume_stats::chunks_routed},
    {"volume_multi_shard_ops_total", "host ops spanning > 1 shard",
     &volume_stats::multi_shard_ops},
};

/// How long a hand-off waiter polls before it sleeps. Cross-thread
/// wake-up latency on a shared 4-vCPU VM swings by period: a
/// condition-variable wake-up measured p90 11-13 us in some periods and
/// p90 280-457 us (p99 2.0-3.9 ms) in others, and every sleeping
/// hand-off of a multi-shard op paid it. At 250 us, seq_write reached
/// 3651 MB/s with op p90 413 us in a slow period; at 50 us only 1804
/// MB/s with p90 1257 us, and 2814 against 3683 MB/s in 4 alternating
/// pairs (EXPERIMENTS.md, "Cross-thread wake-up latency"). The idea is
/// KVM's halt-polling window (halt_poll_ns, 200 us by default).
inline constexpr std::chrono::microseconds kDispatchPollBudget{250};

/// One shard's dispatcher: a single thread that runs posted legs one at
/// a time, in post order. At most one leg is outstanding — post(), then
/// wait() before the next post(). Each side waits on a sequence word the
/// other bumps: it polls the word for kDispatchPollBudget, and only then
/// sleeps on it (atomic::wait, a futex). A thread that finds the word
/// already moved never sleeps, and a bump with nobody asleep makes no
/// system call.
class shard_dispatcher {
public:
    shard_dispatcher();
    /// Stops and joins the thread; the last posted leg must have been
    /// waited for.
    ~shard_dispatcher();

    shard_dispatcher(const shard_dispatcher&) = delete;
    shard_dispatcher& operator=(const shard_dispatcher&) = delete;

    /// Hand `leg` to the dispatcher thread.
    void post(std::function<void()> leg);
    /// Return once the posted leg has run; its writes are visible. An
    /// exception the leg threw is rethrown here.
    void wait();

private:
    void run();

    std::function<void()> leg_;
    std::exception_ptr error_;  ///< what leg_ threw, for wait()
    std::atomic<std::uint32_t> posted_{0};  ///< legs posted (+1 on stop)
    std::atomic<std::uint32_t> done_{0};    ///< legs finished
    std::atomic<bool> stop_{false};
    std::thread thread_;  ///< last: starts once the words exist
};

/// Where a volume byte lives.
struct extent_location {
    std::uint32_t shard = 0;
    std::size_t addr = 0;  ///< shard-local byte address
};

class volume {
public:
    /// Build an in-memory volume of cfg.shards fresh arrays.
    explicit volume(const volume_config& cfg);
    /// Adopt pre-built shards (the persistence mount path). `arrays`
    /// must all share the geometry cfg.shard describes.
    volume(const volume_config& cfg,
           std::vector<std::unique_ptr<raid::raid6_array>> arrays);
    ~volume();

    volume(const volume&) = delete;
    volume& operator=(const volume&) = delete;

    [[nodiscard]] std::uint32_t shard_count() const noexcept {
        return static_cast<std::uint32_t>(shards_.size());
    }
    [[nodiscard]] raid::raid6_array& shard(std::uint32_t s) {
        return *shards_[s];
    }
    [[nodiscard]] const raid::raid6_array& shard(std::uint32_t s) const {
        return *shards_[s];
    }
    /// Total data capacity: shards * per-shard capacity.
    [[nodiscard]] std::size_t capacity() const noexcept {
        return shards_.size() * shards_[0]->capacity();
    }
    [[nodiscard]] std::size_t chunk_bytes() const noexcept {
        return chunk_bytes_;
    }

    /// Map a volume byte address to (shard, shard-local address).
    [[nodiscard]] extent_location locate(std::size_t addr) const noexcept;

    /// Read [addr, addr+out.size()); false if any touched shard refused
    /// (more than two unavailable columns in one of its stripes).
    [[nodiscard]] bool read(std::size_t addr, std::span<std::byte> out);

    /// Write [addr, addr+in.size()); false if any touched shard refused.
    [[nodiscard]] bool write(std::size_t addr, std::span<const std::byte> in);

    [[nodiscard]] volume_stats stats() const;

    /// Volume-level metrics/tracing hub: the home of the volume_*
    /// counters. The per-shard labeled counter series
    /// (liberation_shard_*{shard="N"}) are links that read each shard's
    /// own counter at export; the per-shard gauges are sampled then.
    /// Shard hubs stay independently scrapable via shard(s).obs().
    [[nodiscard]] obs::hub& obs() noexcept { return obs_; }

    /// Turn span tracing on/off for the volume hub and every shard hub in
    /// one step, so a host op's causal tree is captured end to end.
    void set_tracing(bool on) noexcept;

    /// Merged Chrome trace across the volume tracer and all shard
    /// tracers: pid 1 is the volume ("volume" process), pid 1+s+1 is
    /// shard s (named shard="s"), with flow arrows joining each host
    /// op's volume spans to the shard/array/aio spans it caused.
    [[nodiscard]] std::string trace_json() const;

    [[nodiscard]] std::uint32_t failed_disk_count() const noexcept;
    [[nodiscard]] bool rebuild_active() const noexcept;
    /// Advance every shard's background rebuild by up to
    /// `max_stripes_per_shard`; returns total stripes processed.
    std::size_t service_background_rebuild(std::size_t max_stripes_per_shard);
    void drain_background_rebuilds();

    // ---- persistence (volume/mount.hpp) -------------------------------

    [[nodiscard]] bool persistent() const noexcept {
        return manifest_.has_value();
    }
    /// Adopt the on-disk manifest this volume was mounted from (called by
    /// create_volume/mount_volume; the manifest is persisted unclean).
    void attach_manifest(std::string dir, persist::manifest m, bool sync);
    [[nodiscard]] const persist::manifest* manifest() const noexcept {
        return manifest_ ? &*manifest_ : nullptr;
    }
    /// Clean shutdown: unmount every shard, then persist the manifest
    /// clean. False if any shard superblock or the manifest could not be
    /// written. No-op (true) for in-memory volumes.
    bool unmount();

private:
    /// One shard's gapless share of a host extent, in local address
    /// order: piece i's `len` bytes sit at host offset `host_off` and at
    /// shard-local address `local_off`, directly after piece i-1's.
    struct shard_plan {
        bool touched = false;
        struct piece {
            std::size_t host_off;
            std::size_t local_off;
            std::size_t len;
        };
        std::vector<piece> pieces;
        /// The pieces as the shard's piece list over the host buffer
        /// (filled by the shard's own dispatch leg).
        std::vector<raid::read_piece> reads;
        std::vector<raid::write_piece> writes;
    };

    void init_obs();
    /// Start one dispatcher per shard when fan-out is on.
    void init_dispatch(const volume_config& cfg);
    /// Cut [addr, addr+len) into per-shard gapless extents; returns the
    /// number of shards touched and counts chunks routed.
    std::uint32_t plan(std::size_t addr, std::size_t len);
    /// Run op(s) for every touched shard, fanned out when configured.
    bool dispatch(const std::function<bool(std::uint32_t)>& op);
    /// One fan-out leg: leg_op_(s) under its own volume.shard_dispatch
    /// span, on whichever thread runs it.
    bool run_leg(std::uint32_t s);

    std::size_t chunk_bytes_ = 0;
    bool threaded_ = false;

    std::vector<std::unique_ptr<raid::raid6_array>> shards_;
    // Declared after the arrays: the dispatcher threads are joined
    // before the shards they serve go away.
    std::vector<std::unique_ptr<shard_dispatcher>> dispatchers_;

    std::vector<shard_plan> plans_;       // reused per op
    std::vector<std::uint8_t> results_;   // per-shard op outcome
    // The op the current fan-out's legs run, and the host op's causal
    // context (thread_local does not cross a thread hop). Written before
    // the legs are posted.
    const std::function<bool(std::uint32_t)>* leg_op_ = nullptr;
    obs::trace_context leg_ctx_{};
    bool leg_tracing_ = false;

    obs::hub obs_;
    obs::counter_set<kVolumeCounters> ctr_{obs_.metrics()};
    obs::latency_histogram* read_ns_ = nullptr;
    obs::latency_histogram* write_ns_ = nullptr;

    std::optional<persist::manifest> manifest_;
    std::string manifest_dir_;
    bool manifest_sync_ = false;
};

}  // namespace liberation::volume
