#include "liberation/raid/vdisk.hpp"

#include <cstring>

#include "liberation/util/assert.hpp"
#include "liberation/xorops/xorops.hpp"

namespace liberation::raid {

vdisk::vdisk(std::uint32_t id, std::size_t capacity, std::size_t sector_size,
             bool allocate)
    : id_(id), sector_size_(sector_size), capacity_(capacity) {
    LIBERATION_EXPECTS(capacity > 0 && sector_size > 0);
    if (allocate) allocate_medium();
}

void vdisk::allocate_medium() {
    if (medium_ != nullptr) return;
    anon_ = util::aligned_buffer(capacity_);
    medium_ = anon_.data();
}

void vdisk::map_medium(util::mapped_region region) {
    LIBERATION_EXPECTS(!region.empty() && region.size() == capacity_);
    map_ = std::move(region);
    medium_ = map_.data();
    anon_ = util::aligned_buffer();
}

util::mapped_region vdisk::unmap_medium() {
    fail();
    medium_ = nullptr;
    return std::move(map_);
}

bool vdisk::extent_readable(std::size_t offset, std::size_t len) const {
    if (bad_sectors_.empty()) return true;
    const std::size_t first = offset / sector_size_;
    const std::size_t last = (offset + len - 1) / sector_size_;
    auto it = bad_sectors_.lower_bound(first);
    return it == bad_sectors_.end() || it->first > last;
}

bool vdisk::take_transient_fault(io_kind kind) {
    if (!faults_armed_.load(std::memory_order_relaxed)) return false;
    std::lock_guard<std::mutex> lock(fault_mutex_);
    const bool is_read = kind == io_kind::read;
    std::uint64_t& ops = is_read ? read_ops_ : write_ops_;
    auto& schedule = is_read ? scheduled_read_faults_ : scheduled_write_faults_;
    const double rate = is_read ? read_rate_ : write_rate_;

    const std::uint64_t op = ops++;
    if (auto it = schedule.find(op); it != schedule.end()) {
        schedule.erase(it);
        return true;
    }
    if (rate > 0.0 && fault_rng_ && fault_rng_->next_double() < rate) {
        return true;
    }
    return false;
}

void vdisk::set_transient_fault_rates(double read_rate, double write_rate,
                                      std::uint64_t seed) {
    LIBERATION_EXPECTS(read_rate >= 0.0 && read_rate <= 1.0 &&
                       write_rate >= 0.0 && write_rate <= 1.0);
    std::lock_guard<std::mutex> lock(fault_mutex_);
    read_rate_ = read_rate;
    write_rate_ = write_rate;
    fault_rng_.emplace(seed);
    faults_armed_.store(true, std::memory_order_relaxed);
}

void vdisk::schedule_transient_fault(io_kind kind, std::uint64_t ops_from_now) {
    std::lock_guard<std::mutex> lock(fault_mutex_);
    if (kind == io_kind::read) {
        scheduled_read_faults_.insert(read_ops_ + ops_from_now);
    } else {
        scheduled_write_faults_.insert(write_ops_ + ops_from_now);
    }
    faults_armed_.store(true, std::memory_order_relaxed);
}

void vdisk::clear_transient_faults() {
    std::lock_guard<std::mutex> lock(fault_mutex_);
    read_rate_ = 0.0;
    write_rate_ = 0.0;
    fault_rng_.reset();
    scheduled_read_faults_.clear();
    scheduled_write_faults_.clear();
    faults_armed_.store(false, std::memory_order_relaxed);
}

std::uint64_t vdisk::take_service_latency() {
    if (!latency_armed_.load(std::memory_order_relaxed)) return 0;
    std::lock_guard<std::mutex> lock(fault_mutex_);
    if (!latency_.enabled()) return 0;
    const std::uint64_t op = latency_ops_++;
    std::uint64_t us = latency_.base_us;
    if (latency_.jitter_us > 0 && latency_rng_) {
        us += latency_rng_->next_below(latency_.jitter_us);
    }
    switch (latency_.kind) {
        case latency_profile::shape::ramp: {
            std::uint64_t ramp = latency_.ramp_us_per_op * op;
            if (latency_.ramp_cap_us > 0 && ramp > latency_.ramp_cap_us) {
                ramp = latency_.ramp_cap_us;
            }
            us += ramp;
            break;
        }
        case latency_profile::shape::intermittent_stall:
            if (latency_.stall_every > 0 &&
                (op + 1) % latency_.stall_every == 0) {
                us += latency_.stall_us;
            }
            break;
        case latency_profile::shape::constant:
        case latency_profile::shape::none:
            break;
    }
    return us;
}

void vdisk::set_latency_profile(const latency_profile& profile,
                                std::uint64_t seed) {
    std::lock_guard<std::mutex> lock(fault_mutex_);
    latency_ = profile;
    latency_rng_.emplace(seed);
    latency_ops_ = 0;
    latency_armed_.store(profile.enabled(), std::memory_order_relaxed);
}

void vdisk::clear_latency_profile() {
    std::lock_guard<std::mutex> lock(fault_mutex_);
    latency_ = latency_profile{};
    latency_rng_.reset();
    latency_ops_ = 0;
    latency_armed_.store(false, std::memory_order_relaxed);
}

io_status vdisk::read(std::size_t offset, std::span<std::byte> out,
                      std::uint64_t* service_us) {
    const std::byte* at = nullptr;
    const io_status st = view(offset, out.size(), at, service_us);
    if (st == io_status::ok) std::memcpy(out.data(), at, out.size());
    return st;
}

io_status vdisk::view(std::size_t offset, std::size_t len,
                      const std::byte*& out, std::uint64_t* service_us) {
    if (service_us != nullptr) *service_us = 0;
    if (!online()) return io_status::disk_failed;
    if (!extent_ok(offset, len)) return io_status::out_of_range;
    // Taken whether or not the caller wants the number: the latency
    // stream must advance identically on every path touching the medium.
    const std::uint64_t svc = take_service_latency();
    if (service_us != nullptr) *service_us = svc;
    if (take_transient_fault(io_kind::read)) {
        transient_reads_.fetch_add(1, std::memory_order_relaxed);
        return io_status::transient_error;
    }
    if (!extent_readable(offset, len)) {
        return io_status::unreadable_sector;
    }
    out = medium_ + offset;
    reads_.fetch_add(1, std::memory_order_relaxed);
    bytes_read_.fetch_add(len, std::memory_order_relaxed);
    return io_status::ok;
}

io_status vdisk::write(std::size_t offset, std::span<const std::byte> in,
                       std::uint64_t* service_us, const write_landing& how) {
    if (service_us != nullptr) *service_us = 0;
    if (!online()) return io_status::disk_failed;
    if (!extent_ok(offset, in.size())) return io_status::out_of_range;
    const std::uint64_t svc = take_service_latency();
    if (service_us != nullptr) *service_us = svc;
    if (take_transient_fault(io_kind::write)) {
        transient_writes_.fetch_add(1, std::memory_order_relaxed);
        return io_status::transient_error;  // nothing hit the medium
    }
    if (how.crcs != nullptr) {
        xorops::land_crc32c_blocks(medium_ + offset, in.data(), in.size(),
                                   how.stream, how.crc_block, how.crcs);
    } else {
        xorops::land(medium_ + offset, in.data(), in.size(), how.stream);
    }
    // A rewrite heals fully covered latent sectors (like a real remap).
    if (!bad_sectors_.empty() && !in.empty()) {
        const std::size_t first_full = (offset + sector_size_ - 1) / sector_size_;
        const std::size_t end_full = (offset + in.size()) / sector_size_;
        for (std::size_t sec = first_full; sec < end_full;) {
            auto it = bad_sectors_.lower_bound(sec);
            if (it == bad_sectors_.end() || it->first >= end_full) break;
            sec = it->first + 1;
            bad_sectors_.erase(it);
        }
    }
    writes_.fetch_add(1, std::memory_order_relaxed);
    bytes_written_.fetch_add(in.size(), std::memory_order_relaxed);
    return io_status::ok;
}

void vdisk::replace() {
    LIBERATION_EXPECTS(medium_ != nullptr);
    // A mapped medium zeroes the slot's backing file with it, so a remount
    // cannot resurrect the dead disk's stale bytes.
    std::memset(medium_, 0, capacity_);
    bad_sectors_.clear();
    clear_transient_faults();
    clear_latency_profile();  // fresh hardware is fast hardware
    online_.store(true, std::memory_order_release);
}

void vdisk::peek(std::size_t offset, std::span<std::byte> out) const {
    LIBERATION_EXPECTS(extent_ok(offset, out.size()));
    std::memcpy(out.data(), medium_ + offset, out.size());
}

void vdisk::inject_latent_error(std::size_t offset, std::size_t len) {
    LIBERATION_EXPECTS(extent_ok(offset, len) && len > 0);
    const std::size_t first = offset / sector_size_;
    const std::size_t last = (offset + len - 1) / sector_size_;
    for (std::size_t s = first; s <= last; ++s) bad_sectors_[s] = true;
}

std::size_t vdisk::inject_silent_corruption(std::size_t offset, std::size_t len,
                                            util::xoshiro256& rng) {
    LIBERATION_EXPECTS(extent_ok(offset, len) && len > 0);
    // Flip 1..8 random bytes in the extent; guarantee a real change.
    const std::size_t flips = 1 + rng.next_below(8);
    for (std::size_t f = 0; f < flips; ++f) {
        const std::size_t pos = offset + rng.next_below(len);
        std::byte flip{0};
        while (flip == std::byte{0}) {
            flip = static_cast<std::byte>(rng.next() & 0xff);
        }
        medium_[pos] ^= flip;
    }
    // Rot lives on the medium, so on a mapped one it persists like any
    // other bytes.
    return flips;
}

}  // namespace liberation::raid
