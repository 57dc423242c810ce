#include "liberation/volume/volume.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "liberation/raid/io_policy.hpp"
#include "liberation/util/assert.hpp"

namespace liberation::volume {

namespace {

/// The volume hub's per-shard counter series (shard="N"): each links the
/// shard's own counter of the same array_stats field (read live at
/// export, never copied).
constexpr obs::counter_def<raid::array_stats> kShardSeries[] = {
    {"shard_full_stripe_writes_total", "full-stripe writes per shard",
     &raid::array_stats::full_stripe_writes},
    {"shard_small_writes_total", "read-modify-write small writes per shard",
     &raid::array_stats::small_writes},
    {"shard_degraded_stripe_reads_total",
     "degraded full-stripe decodes per shard",
     &raid::array_stats::degraded_stripe_reads},
    {"shard_checksum_mismatches_total",
     "checksum-failing blocks per shard (blocks)",
     &raid::array_stats::checksum_mismatches},
    {"shard_spares_promoted_total", "hot spares promoted per shard",
     &raid::array_stats::spares_promoted},
    {"shard_rebuilds_completed_total",
     "background rebuild members per shard (members)",
     &raid::array_stats::rebuilds_completed},
};

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/// Wait until `word` no longer holds `seen` and return its new value
/// (acquire): poll for kDispatchPollBudget, then sleep on the word.
std::uint32_t await_change(const std::atomic<std::uint32_t>& word,
                           std::uint32_t seen) {
    std::uint32_t v = word.load(std::memory_order_acquire);
    if (v != seen) return v;
    const auto deadline =
        std::chrono::steady_clock::now() + kDispatchPollBudget;
    do {
        for (int i = 0; i < 32; ++i) {
            cpu_relax();
            v = word.load(std::memory_order_acquire);
            if (v != seen) return v;
        }
    } while (std::chrono::steady_clock::now() < deadline);
    for (;;) {
        word.wait(seen, std::memory_order_acquire);
        v = word.load(std::memory_order_acquire);
        if (v != seen) return v;
    }
}

}  // namespace

void validate_config(const volume_config& cfg) {
    LIBERATION_EXPECTS(cfg.shards >= 1);
    LIBERATION_EXPECTS(cfg.shards <= persist::manifest_max_shards);
    LIBERATION_EXPECTS(cfg.chunk_stripes >= 1);
    LIBERATION_EXPECTS(cfg.shard.stripes % cfg.chunk_stripes == 0);
    LIBERATION_EXPECTS(cfg.io_workers_per_shard == 0);
}

shard_dispatcher::shard_dispatcher() : thread_([this] { run(); }) {}

shard_dispatcher::~shard_dispatcher() {
    stop_.store(true, std::memory_order_relaxed);
    posted_.fetch_add(1, std::memory_order_release);
    posted_.notify_one();
    thread_.join();
}

void shard_dispatcher::post(std::function<void()> leg) {
    leg_ = std::move(leg);
    posted_.fetch_add(1, std::memory_order_release);
    posted_.notify_one();
}

void shard_dispatcher::wait() {
    const std::uint32_t target = posted_.load(std::memory_order_relaxed);
    std::uint32_t d = done_.load(std::memory_order_acquire);
    while (d != target) d = await_change(done_, d);
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void shard_dispatcher::run() {
    std::uint32_t seen = 0;
    for (;;) {
        seen = await_change(posted_, seen);
        if (stop_.load(std::memory_order_relaxed)) return;
        try {
            leg_();
        } catch (...) {
            error_ = std::current_exception();
        }
        done_.store(seen, std::memory_order_release);
        done_.notify_one();
    }
}

volume::volume(const volume_config& cfg) {
    validate_config(cfg);
    shards_.reserve(cfg.shards);
    for (std::uint32_t s = 0; s < cfg.shards; ++s) {
        shards_.push_back(std::make_unique<raid::raid6_array>(cfg.shard));
    }
    init_dispatch(cfg);
    chunk_bytes_ = cfg.chunk_stripes * shards_[0]->map().stripe_data_size();
    plans_.resize(cfg.shards);
    results_.resize(cfg.shards);
    if (cfg.shard.obs_virtual_time) {
        obs_.set_clock(raid::virtual_clock_now_ns, &shards_[0]->clock());
    }
    init_obs();
}

volume::volume(const volume_config& cfg,
               std::vector<std::unique_ptr<raid::raid6_array>> arrays) {
    validate_config(cfg);
    LIBERATION_EXPECTS(arrays.size() == cfg.shards);
    for (const auto& a : arrays) {
        LIBERATION_EXPECTS(a != nullptr);
        LIBERATION_EXPECTS(a->capacity() == arrays.front()->capacity());
        LIBERATION_EXPECTS(a->map().stripe_data_size() ==
                           arrays.front()->map().stripe_data_size());
    }
    shards_ = std::move(arrays);
    init_dispatch(cfg);
    chunk_bytes_ = cfg.chunk_stripes * shards_[0]->map().stripe_data_size();
    plans_.resize(cfg.shards);
    results_.resize(cfg.shards);
    if (cfg.shard.obs_virtual_time) {
        obs_.set_clock(raid::virtual_clock_now_ns, &shards_[0]->clock());
    }
    init_obs();
}

volume::~volume() = default;

void volume::init_dispatch(const volume_config& cfg) {
    threaded_ = cfg.threaded_dispatch && cfg.shards > 1;
    if (!threaded_) return;
    dispatchers_.reserve(cfg.shards);
    for (std::uint32_t s = 0; s < cfg.shards; ++s) {
        dispatchers_.push_back(std::make_unique<shard_dispatcher>());
    }
}

void volume::init_obs() {
    obs::registry& reg = obs_.metrics();
    read_ns_ = &reg.get_histogram("volume_read_ns",
                                  "volume host read latency (ns)");
    write_ns_ = &reg.get_histogram("volume_write_ns",
                                   "volume host write latency (ns)");
    for (std::uint32_t s = 0; s < shard_count(); ++s) {
        const std::string label = "shard=\"" + std::to_string(s) + "\"";
        obs::registry& shard_reg = shards_[s]->obs().metrics();
        for (const auto& series : kShardSeries) {
            const char* source =
                obs::def_of(raid::kArrayCounters, series.field).name;
            reg.link_counter(series.name, label, shard_reg.get_counter(source),
                             series.help);
        }
    }
    // Gauges of foreground shard state, sampled at export.
    obs_.add_collector([this] {
        obs::registry& r = obs_.metrics();
        for (std::uint32_t s = 0; s < shard_count(); ++s) {
            const std::string label = "shard=\"" + std::to_string(s) + "\"";
            r.get_labeled_gauge("shard_failed_disks", label,
                                "disks currently failed per shard")
                .set(static_cast<std::int64_t>(
                    shards_[s]->failed_disk_count()));
            r.get_labeled_gauge("shard_rebuild_stripes_remaining", label,
                                "background rebuild backlog per shard")
                .set(static_cast<std::int64_t>(
                    shards_[s]->rebuild_stripes_remaining()));
        }
    });
}

void volume::set_tracing(bool on) noexcept {
    obs_.trace().enable(on);
    for (auto& sh : shards_) sh->obs().trace().enable(on);
}

std::string volume::trace_json() const {
    std::vector<obs::trace_part> parts;
    parts.reserve(shards_.size() + 1);
    parts.push_back({"volume", &obs_.trace()});
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
        parts.push_back({"shard=\"" + std::to_string(s) + "\"",
                         &shards_[s]->obs().trace()});
    }
    return obs::merged_trace_json(parts);
}

extent_location volume::locate(std::size_t addr) const noexcept {
    const std::size_t chunk = addr / chunk_bytes_;
    const std::size_t in_chunk = addr % chunk_bytes_;
    extent_location loc;
    loc.shard = static_cast<std::uint32_t>(chunk % shards_.size());
    loc.addr = (chunk / shards_.size()) * chunk_bytes_ + in_chunk;
    return loc;
}

std::uint32_t volume::plan(std::size_t addr, std::size_t len) {
    const std::size_t n = shards_.size();
    for (shard_plan& p : plans_) {
        p.touched = false;
        p.pieces.clear();
    }
    std::uint32_t touched = 0;
    std::uint64_t chunks = 0;
    std::size_t pos = addr;
    std::size_t remaining = len;
    while (remaining > 0) {
        const std::size_t chunk = pos / chunk_bytes_;
        const std::size_t in_chunk = pos % chunk_bytes_;
        const std::size_t take = std::min(remaining, chunk_bytes_ - in_chunk);
        const auto s = static_cast<std::uint32_t>(chunk % n);
        const std::size_t local = (chunk / n) * chunk_bytes_ + in_chunk;
        const std::size_t host_off = pos - addr;
        shard_plan& p = plans_[s];
        if (!p.touched) {
            p.touched = true;
            p.pieces.push_back({host_off, local, take});
            ++touched;
        } else if (p.pieces.back().host_off + p.pieces.back().len ==
                   host_off) {
            // Consecutive chunks of the same shard with a contiguous host
            // range (the shards == 1 case) extend the piece in place.
            p.pieces.back().len += take;
        } else {
            p.pieces.push_back({host_off, local, take});
        }
        pos += take;
        remaining -= take;
        ++chunks;
    }
    ctr_.at<&volume_stats::chunks_routed>().inc(chunks);
    return touched;
}

bool volume::dispatch(const std::function<bool(std::uint32_t)>& op) {
    const auto n = static_cast<std::uint32_t>(shards_.size());
    std::uint32_t touched = 0;
    std::uint32_t last = 0;
    for (std::uint32_t s = 0; s < n; ++s) {
        if (!plans_[s].touched) continue;
        ++touched;
        last = s;
    }
    bool ok = true;
    if (!threaded_ || touched < 2) {
        for (std::uint32_t s = 0; s < n; ++s) {
            if (plans_[s].touched) ok = op(s) && ok;
        }
        return ok;
    }
    leg_op_ = &op;
    leg_ctx_ = obs::current_trace();
    leg_tracing_ = obs_.trace().enabled() && leg_ctx_.trace_id != 0;
    // Every touched shard but the last goes to its dispatcher; the last
    // runs here, so the caller works instead of sleeping while the
    // others run.
    for (std::uint32_t s = 0; s < last; ++s) {
        if (!plans_[s].touched) continue;
        dispatchers_[s]->post([this, s] { results_[s] = run_leg(s) ? 1 : 0; });
    }
    // Every posted leg is waited for, even when a leg throws: the legs
    // use `op`, which lives only as long as this call, and the next op
    // reuses the plans.
    std::exception_ptr error;
    try {
        ok = run_leg(last);
    } catch (...) {
        error = std::current_exception();
    }
    for (std::uint32_t s = 0; s < last; ++s) {
        if (!plans_[s].touched) continue;
        try {
            dispatchers_[s]->wait();
        } catch (...) {
            if (!error) error = std::current_exception();
        }
        ok = ok && results_[s] != 0;
    }
    if (error) std::rethrow_exception(error);
    return ok;
}

bool volume::run_leg(std::uint32_t s) {
    // Every leg gets its own volume.shard_dispatch span under the host
    // op, and everything the shard records lands under that leg; the
    // context is installed explicitly, as it does not follow the thread
    // hop.
    const std::uint64_t leg_span = leg_tracing_ ? obs::next_span_id() : 0;
    obs::trace_scope scope(
        leg_tracing_ ? obs::trace_context{leg_ctx_.trace_id, leg_span}
                     : leg_ctx_);
    const std::uint64_t t0 = leg_tracing_ ? obs_.now_ns() : 0;
    const bool r = (*leg_op_)(s);
    if (leg_tracing_) {
        const std::uint64_t t1 = obs_.now_ns();
        obs_.trace().record_ex("volume.shard_dispatch", "volume", t0,
                               t1 >= t0 ? t1 - t0 : 0, leg_ctx_, leg_span);
    }
    return r;
}

bool volume::read(std::size_t addr, std::span<std::byte> out) {
    LIBERATION_EXPECTS(addr + out.size() <= capacity());
    obs::timed_span span(obs_, read_ns_, "volume_read", "volume");
    ctr_.at<&volume_stats::reads>().inc();
    if (out.empty()) return true;
    const std::uint32_t touched = plan(addr, out.size());
    if (touched > 1) {
        ctr_.at<&volume_stats::multi_shard_ops>().inc();
    }
    const bool ok = dispatch([&](std::uint32_t s) {
        shard_plan& p = plans_[s];
        p.reads.clear();
        for (const shard_plan::piece& pc : p.pieces) {
            p.reads.push_back({pc.local_off, out.subspan(pc.host_off, pc.len)});
        }
        return shards_[s]->read(p.reads);
    });
    if (!ok) ctr_.at<&volume_stats::failed_reads>().inc();
    return ok;
}

bool volume::write(std::size_t addr, std::span<const std::byte> in) {
    LIBERATION_EXPECTS(addr + in.size() <= capacity());
    obs::timed_span span(obs_, write_ns_, "volume_write", "volume");
    ctr_.at<&volume_stats::writes>().inc();
    if (in.empty()) return true;
    const std::uint32_t touched = plan(addr, in.size());
    if (touched > 1) {
        ctr_.at<&volume_stats::multi_shard_ops>().inc();
    }
    const bool ok = dispatch([&](std::uint32_t s) {
        shard_plan& p = plans_[s];
        p.writes.clear();
        for (const shard_plan::piece& pc : p.pieces) {
            p.writes.push_back({pc.local_off, in.subspan(pc.host_off, pc.len)});
        }
        return shards_[s]->write(p.writes);
    });
    if (!ok) ctr_.at<&volume_stats::failed_writes>().inc();
    return ok;
}

volume_stats volume::stats() const {
    volume_stats vs = ctr_.snapshot();
    for (const auto& sh : shards_) {
        obs::accumulate(raid::kArrayCounters, vs.shard_total, sh->stats());
    }
    return vs;
}

std::uint32_t volume::failed_disk_count() const noexcept {
    std::uint32_t n = 0;
    for (const auto& sh : shards_) n += sh->failed_disk_count();
    return n;
}

bool volume::rebuild_active() const noexcept {
    for (const auto& sh : shards_) {
        if (sh->rebuild_active()) return true;
    }
    return false;
}

std::size_t volume::service_background_rebuild(
    std::size_t max_stripes_per_shard) {
    std::size_t total = 0;
    for (auto& sh : shards_) {
        total += sh->service_background_rebuild(max_stripes_per_shard);
    }
    return total;
}

void volume::drain_background_rebuilds() {
    for (auto& sh : shards_) sh->drain_background_rebuild();
}

void volume::attach_manifest(std::string dir, persist::manifest m,
                             bool sync) {
    manifest_dir_ = std::move(dir);
    manifest_ = std::move(m);
    manifest_sync_ = sync;
}

bool volume::unmount() {
    if (!manifest_) return true;
    bool ok = true;
    for (auto& sh : shards_) ok = sh->unmount() && ok;
    manifest_->clean = true;
    ok = persist::persist_manifest(manifest_dir_, *manifest_, manifest_sync_)
         && ok;
    manifest_.reset();
    return ok;
}

}  // namespace liberation::volume
