// Virtual disk: a block device over a byte medium, with fault injection.
//
// The medium is an anonymous in-memory image, or — for a member of a
// persistent array — a shared mapping of the member file's data area
// (map_medium()), so every landed write is already in the file.
//
// Models the four failure modes the paper's RAID-6 motivation rests on
// (Section I): fail-stop disk loss, latent sector errors (unreadable on
// read — the "uncorrectable read error during recovery" case), silent
// corruption (reads succeed but return wrong bytes — exercised by the
// scrubber), and *transient* errors (an I/O fails once and succeeds on
// retry — the class real drives report as recovered/command-timeout
// events, absorbed by the retrying io_policy).
//
// Transient faults come in two flavours, both replayable:
//   * probabilistic — each read/write fails with a configured rate, drawn
//     from a per-disk seeded xoshiro256 stream;
//   * scheduled — "the Nth read (or write) from now fails", for
//     deterministic unit tests and chaos-campaign storms.
//
// A fifth, *fail-slow* mode models gray failure: the disk still answers
// correctly, but a seeded latency profile (constant, ramp, or
// intermittent stall) stamps a virtual service time onto every op. The
// disk never sleeps — it reports the cost through an out-parameter and
// the io_policy charges it to the array's virtual clock, so fail-slow
// campaigns stay instant and bit-for-bit replayable.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <span>

#include "liberation/util/aligned_buffer.hpp"
#include "liberation/util/mapped_region.hpp"
#include "liberation/util/rng.hpp"

namespace liberation::raid {

enum class io_status : std::uint8_t {
    ok,
    disk_failed,        ///< fail-stop: no I/O possible
    unreadable_sector,  ///< latent sector error inside the extent
    out_of_range,
    transient_error,    ///< failed now, a retry may succeed (io_policy)
    rebuilding,         ///< array-level: extent not yet rebuilt on a spare
    checksum_mismatch,  ///< array-level: bytes read fine but fail their CRC
};

/// Only transient errors are worth retrying: everything else is either
/// permanent (fail-stop, latent until rewritten) or a caller bug.
[[nodiscard]] constexpr bool is_retryable(io_status st) noexcept {
    return st == io_status::transient_error;
}

enum class io_kind : std::uint8_t { read, write };

/// Fail-slow injection profile: how long each operation *would* take on
/// the slow medium, in virtual microseconds. The three shapes cover the
/// gray-failure taxonomy: `constant` (a uniformly slow disk, e.g. a bad
/// cable), `ramp` (a disk degrading op by op, e.g. a dying head), and
/// `intermittent_stall` (mostly healthy with periodic multi-ms freezes,
/// e.g. firmware GC pauses — the shape that makes hedging pay).
struct latency_profile {
    enum class shape : std::uint8_t { none, constant, ramp, intermittent_stall };
    shape kind = shape::none;
    /// Baseline service time added to every op.
    std::uint64_t base_us = 0;
    /// Uniform jitter in [0, jitter_us) drawn from the seeded stream.
    std::uint64_t jitter_us = 0;
    /// `ramp`: extra latency accrued per op, capped at ramp_cap_us.
    std::uint64_t ramp_us_per_op = 0;
    std::uint64_t ramp_cap_us = 0;
    /// `intermittent_stall`: every stall_every-th op takes stall_us extra.
    std::uint64_t stall_us = 0;
    std::uint64_t stall_every = 0;

    [[nodiscard]] bool enabled() const noexcept { return kind != shape::none; }
};

/// How vdisk::write() lands its bytes on the medium (the bytes and the
/// counters are the same either way).
struct write_landing {
    /// Streaming (cache-bypassing) stores, fenced before write() returns.
    bool stream = false;
    /// Non-null: receives one CRC32C per `crc_block` bytes of what landed,
    /// computed inside the copy. Written only when the write lands.
    std::uint32_t* crcs = nullptr;
    std::size_t crc_block = 0;
};

/// Snapshot of a disk's I/O counters. Counters are atomic: the thread
/// running the array's I/O (the caller, or a volume shard's dispatcher)
/// updates them while another thread, such as a metrics scrape, reads
/// them.
struct disk_stats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t transient_read_errors = 0;
    std::uint64_t transient_write_errors = 0;
};

class vdisk {
public:
    /// Sector size only affects latent-error granularity. With
    /// `allocate` off the disk has no medium until map_medium() or
    /// allocate_medium() gives it one (persistent members are mapped, so
    /// an anonymous image would only be thrown away).
    vdisk(std::uint32_t id, std::size_t capacity, std::size_t sector_size = 4096,
          bool allocate = true);

    [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] bool online() const noexcept {
        return online_.load(std::memory_order_acquire);
    }
    [[nodiscard]] disk_stats stats() const noexcept {
        return {reads_.load(),      writes_.load(),
                bytes_read_.load(), bytes_written_.load(),
                transient_reads_.load(), transient_writes_.load()};
    }

    /// `service_us`, when non-null, receives the injected fail-slow
    /// service time of this attempt in virtual microseconds (0 when no
    /// profile is armed). Failed attempts are stamped too — a slow disk
    /// is slow whether or not the op ultimately succeeds.
    io_status read(std::size_t offset, std::span<std::byte> out,
                   std::uint64_t* service_us = nullptr);
    /// A read that moves no bytes. The op's status is decided exactly as
    /// read() decides it — online check, range check, fail-slow draw,
    /// transient draw, latent-sector check, counters, in that order (read()
    /// is view() plus one copy) — and on ok `out` points at the extent
    /// where it sits on the medium. A view lives only within the op that
    /// took it: it is read-only (every change to the medium goes through
    /// write()), and it shows whatever the medium holds later, so a write,
    /// replace() or unmap_medium() of the disk ends it.
    io_status view(std::size_t offset, std::size_t len, const std::byte*& out,
                   std::uint64_t* service_us = nullptr);
    io_status write(std::size_t offset, std::span<const std::byte> in,
                    std::uint64_t* service_us = nullptr,
                    const write_landing& how = {});

    // ---- medium (see raid/persist/) -----------------------------------

    /// Make `region` — a shared mapping of this member's backing file,
    /// exactly capacity() bytes — the medium. Its bytes become the disk's
    /// contents as they stand; the anonymous image, if any, is released.
    /// Every later mutation (writes, replace(), injected rot) lands in the
    /// file. Not while I/O is in flight.
    void map_medium(util::mapped_region region);
    /// Give up the mapping (e.g. to a spare taking over the slot). The
    /// disk is left with no medium and offline.
    [[nodiscard]] util::mapped_region unmap_medium();
    [[nodiscard]] bool mapped() const noexcept { return !map_.empty(); }
    /// Give a disk constructed without a medium a blank anonymous one
    /// (no-op when it already has a medium).
    void allocate_medium();

    /// Raw medium access, bypassing fault injection and counters: tests
    /// and benches peek at the medium without disturbing the fault
    /// streams.
    void peek(std::size_t offset, std::span<std::byte> out) const;

    // ---- fault injection ---------------------------------------------

    /// Fail-stop: all subsequent I/O returns disk_failed. Atomic — the
    /// disk's state may be read or changed from a thread other than the
    /// one running its I/O (HedgedRace storms a disk from a second thread
    /// until the reader's health monitor fails it).
    void fail() noexcept { online_.store(false, std::memory_order_release); }

    /// Swap in a fresh blank disk (same geometry) — contents zeroed,
    /// latent errors cleared, transient fault config and latency profile
    /// cleared (they belonged to the old hardware), back online.
    void replace();

    /// Mark the sectors covering [offset, offset+len) as unreadable.
    void inject_latent_error(std::size_t offset, std::size_t len);

    /// Clear a latent error (e.g. after the block is rewritten). Writes do
    /// this automatically for fully covered sectors.
    void clear_latent_errors() { bad_sectors_.clear(); }

    /// Silently flip random bits in [offset, offset+len): reads still
    /// succeed. Returns the number of bytes altered (>= 1).
    std::size_t inject_silent_corruption(std::size_t offset, std::size_t len,
                                         util::xoshiro256& rng);

    [[nodiscard]] std::size_t latent_error_count() const noexcept {
        return bad_sectors_.size();
    }

    // ---- transient fault injection -----------------------------------

    /// Arm probabilistic transient errors: each read (write) fails with
    /// `read_rate` (`write_rate`) probability, drawn from a xoshiro256
    /// stream seeded with `seed` so campaigns replay bit-for-bit.
    /// Rates of 0 disable the respective kind.
    void set_transient_fault_rates(double read_rate, double write_rate,
                                   std::uint64_t seed);

    /// Deterministic schedule: the (`ops_from_now`)-th next operation of
    /// `kind` fails with transient_error (0 = the very next one). Each
    /// scheduled fault fires exactly once.
    void schedule_transient_fault(io_kind kind, std::uint64_t ops_from_now);

    /// Disarm all transient fault injection (rates and schedules).
    void clear_transient_faults();

    // ---- fail-slow injection -----------------------------------------

    /// Arm a fail-slow latency profile. Jitter draws come from a
    /// dedicated xoshiro256 stream seeded with `seed`, separate from the
    /// transient-fault stream so arming latency never perturbs an
    /// existing fault replay. Replaces any previous profile; the op
    /// counter restarts (a fresh profile describes a fresh pathology).
    void set_latency_profile(const latency_profile& profile,
                             std::uint64_t seed);

    /// Disarm fail-slow injection (the disk is fast again).
    void clear_latency_profile();

    [[nodiscard]] bool latency_profile_armed() const noexcept {
        return latency_armed_.load(std::memory_order_relaxed);
    }

private:
    [[nodiscard]] bool extent_ok(std::size_t offset, std::size_t len) const noexcept {
        return medium_ != nullptr && offset + len <= capacity_ &&
               offset + len >= offset;
    }
    [[nodiscard]] bool extent_readable(std::size_t offset, std::size_t len) const;

    /// Advance the per-kind op counter and decide whether this operation
    /// suffers an injected transient error.
    [[nodiscard]] bool take_transient_fault(io_kind kind);

    /// Advance the latency op counter and compute this op's injected
    /// service time in virtual µs (0 when no profile is armed).
    [[nodiscard]] std::uint64_t take_service_latency();

    std::uint32_t id_;
    std::size_t sector_size_;
    std::size_t capacity_;
    /// The medium: anon_'s image or map_'s mapping (null: none).
    std::byte* medium_ = nullptr;
    util::aligned_buffer anon_;
    util::mapped_region map_;
    std::map<std::size_t, bool> bad_sectors_;  // sector index -> latent error
    std::atomic<bool> online_{true};
    std::atomic<std::uint64_t> reads_{0};
    std::atomic<std::uint64_t> writes_{0};
    std::atomic<std::uint64_t> bytes_read_{0};
    std::atomic<std::uint64_t> bytes_written_{0};
    std::atomic<std::uint64_t> transient_reads_{0};
    std::atomic<std::uint64_t> transient_writes_{0};

    // Transient-fault state. Guarded by fault_mutex_ because faults may be
    // armed from another thread while the array's thread draws from
    // fault_rng_ (the HedgedRace tests storm a disk mid-read-stream); the
    // armed flag keeps the unfaulted hot path lock-free.
    std::atomic<bool> faults_armed_{false};
    mutable std::mutex fault_mutex_;
    double read_rate_ = 0.0;
    double write_rate_ = 0.0;
    std::optional<util::xoshiro256> fault_rng_;
    std::uint64_t read_ops_ = 0;
    std::uint64_t write_ops_ = 0;
    std::set<std::uint64_t> scheduled_read_faults_;
    std::set<std::uint64_t> scheduled_write_faults_;

    // Fail-slow state. Shares fault_mutex_ (both are cold paths once the
    // armed flags say "off"); its own RNG + op counter so arming latency
    // never shifts the transient-fault replay stream.
    std::atomic<bool> latency_armed_{false};
    latency_profile latency_;
    std::optional<util::xoshiro256> latency_rng_;
    std::uint64_t latency_ops_ = 0;
};

}  // namespace liberation::raid
