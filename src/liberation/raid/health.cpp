#include "liberation/raid/health.hpp"

#include "liberation/util/assert.hpp"

namespace liberation::raid {

health_monitor::health_monitor(std::uint32_t disks, const health_config& cfg)
    : cfg_(cfg) {
    disks_.reserve(disks);
    for (std::uint32_t d = 0; d < disks; ++d) add_disk();
}

void health_monitor::add_disk() {
    disks_.push_back(std::make_unique<counters>());
}

bool health_monitor::over_threshold(const counters& c) const {
    return (cfg_.max_transient_errors != 0 &&
            c.transient.load(std::memory_order_relaxed) >=
                cfg_.max_transient_errors) ||
           (cfg_.max_read_errors != 0 &&
            c.hard_read.load(std::memory_order_relaxed) >=
                cfg_.max_read_errors) ||
           (cfg_.max_write_errors != 0 &&
            c.hard_write.load(std::memory_order_relaxed) >=
                cfg_.max_write_errors);
}

bool health_monitor::record(std::uint32_t disk, io_kind kind,
                            io_status final_status,
                            std::uint32_t transient_seen) {
    LIBERATION_EXPECTS(disk < disks_.size());
    counters& c = *disks_[disk];
    if (transient_seen > 0) {
        c.transient.fetch_add(transient_seen, std::memory_order_relaxed);
    }
    if (is_hard_error(final_status)) {
        (kind == io_kind::read ? c.hard_read : c.hard_write)
            .fetch_add(1, std::memory_order_relaxed);
    }

    if (!over_threshold(c)) {
        // Mark suspect once errors pass half of any enabled threshold.
        const bool suspicious =
            (cfg_.max_transient_errors != 0 &&
             c.transient.load(std::memory_order_relaxed) * 2 >=
                 cfg_.max_transient_errors) ||
            (cfg_.max_read_errors != 0 &&
             c.hard_read.load(std::memory_order_relaxed) * 2 >=
                 cfg_.max_read_errors) ||
            (cfg_.max_write_errors != 0 &&
             c.hard_write.load(std::memory_order_relaxed) * 2 >=
                 cfg_.max_write_errors);
        if (suspicious) {
            auto expected = static_cast<std::uint8_t>(disk_health::healthy);
            c.state.compare_exchange_strong(
                expected, static_cast<std::uint8_t>(disk_health::suspect),
                std::memory_order_relaxed);
        }
        return false;
    }
    // Threshold crossed: report the transition exactly once.
    auto prev = c.state.exchange(
        static_cast<std::uint8_t>(disk_health::tripped),
        std::memory_order_acq_rel);
    return prev != static_cast<std::uint8_t>(disk_health::tripped);
}

disk_health health_monitor::state(std::uint32_t disk) const {
    LIBERATION_EXPECTS(disk < disks_.size());
    return static_cast<disk_health>(
        disks_[disk]->state.load(std::memory_order_acquire));
}

disk_health_stats health_monitor::stats(std::uint32_t disk) const {
    LIBERATION_EXPECTS(disk < disks_.size());
    const counters& c = *disks_[disk];
    return {c.transient.load(std::memory_order_relaxed),
            c.hard_read.load(std::memory_order_relaxed),
            c.hard_write.load(std::memory_order_relaxed), state(disk)};
}

void health_monitor::reset(std::uint32_t disk) {
    LIBERATION_EXPECTS(disk < disks_.size());
    counters& c = *disks_[disk];
    c.transient.store(0, std::memory_order_relaxed);
    c.hard_read.store(0, std::memory_order_relaxed);
    c.hard_write.store(0, std::memory_order_relaxed);
    c.state.store(static_cast<std::uint8_t>(disk_health::healthy),
                  std::memory_order_release);
}

}  // namespace liberation::raid
