// Per-disk health monitor: md-style error accounting with a trip threshold.
//
// md kicks a disk out of an array when its error count crosses
// max_read_errors (default 20 "corrected" read errors) or on the first
// failed write. We mirror that: transient errors masked by the io_policy
// still count (a disk that needs constant retries is dying), hard read
// errors (latent sectors, exhausted retries) count more, and arrays that
// enable the write criterion trip on the first hard write error — a write
// that never reached the medium would otherwise turn into silent
// corruption the moment the stale column is read back.
//
// Counters are atomic: the array's thread records I/O outcomes while a
// metrics scrape may read them from another. The trip transition is
// reported exactly once (compare-exchange), so the array promotes at most
// one spare per failure.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "liberation/raid/vdisk.hpp"

namespace liberation::raid {

/// All thresholds default to 0 = disabled: tripping is opt-in, because a
/// threshold also changes the semantics of deliberate fault injection (a
/// latent-error test would see its disk kicked). Arrays that want md-like
/// behaviour set e.g. {.max_read_errors = 20, .max_write_errors = 1}.
struct health_config {
    /// Transient errors tolerated (even when masked by retries) before the
    /// disk is considered too flaky to trust. 0 disables the criterion.
    std::uint64_t max_transient_errors = 0;
    /// Hard read failures (latent sectors, retry-exhausted reads) before
    /// tripping. 0 disables.
    std::uint64_t max_read_errors = 0;
    /// Hard write failures before tripping. 1 = first lost write trips
    /// (md semantics) so a stale column never masquerades as data.
    /// 0 disables.
    std::uint64_t max_write_errors = 0;
};

enum class disk_health : std::uint8_t {
    healthy,
    suspect,  ///< accumulating errors, above half a threshold
    tripped,  ///< crossed a threshold; the array fails + replaces it
};

struct disk_health_stats {
    std::uint64_t transient_errors = 0;
    std::uint64_t hard_read_errors = 0;
    std::uint64_t hard_write_errors = 0;
    disk_health state = disk_health::healthy;
};

class health_monitor {
public:
    health_monitor(std::uint32_t disks, const health_config& cfg);

    /// Record the outcome of one policy-mediated I/O: `transient_seen`
    /// transient errors were absorbed, `final` is what the caller got.
    /// Returns true exactly once per disk life: on the transition into
    /// `tripped`. The caller is then responsible for failing the disk.
    bool record(std::uint32_t disk, io_kind kind, io_status final_status,
                std::uint32_t transient_seen);

    /// Hard errors: a latent sector or an exhausted retry budget.
    /// Fail-stop and out-of-range are not the medium's fault.
    [[nodiscard]] static constexpr bool is_hard_error(io_status s) noexcept {
        return s == io_status::unreadable_sector ||
               s == io_status::transient_error;
    }

    [[nodiscard]] disk_health state(std::uint32_t disk) const;
    [[nodiscard]] disk_health_stats stats(std::uint32_t disk) const;
    [[nodiscard]] std::uint32_t disk_count() const noexcept {
        return static_cast<std::uint32_t>(disks_.size());
    }

    /// Fresh hardware in this slot (spare promotion / manual replace):
    /// zero the counters and return to healthy.
    void reset(std::uint32_t disk);

    /// Track one more disk (online growth).
    void add_disk();

    [[nodiscard]] const health_config& config() const noexcept { return cfg_; }

private:
    struct counters {
        std::atomic<std::uint64_t> transient{0};
        std::atomic<std::uint64_t> hard_read{0};
        std::atomic<std::uint64_t> hard_write{0};
        std::atomic<std::uint8_t> state{
            static_cast<std::uint8_t>(disk_health::healthy)};
    };

    [[nodiscard]] bool over_threshold(const counters& c) const;

    health_config cfg_;
    // unique_ptr so the vector can grow (add_disk) without moving atomics.
    std::vector<std::unique_ptr<counters>> disks_;
};

}  // namespace liberation::raid
