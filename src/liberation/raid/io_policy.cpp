#include "liberation/raid/io_policy.hpp"

#include <algorithm>

namespace liberation::raid {

io_policy::io_policy(const io_policy_config& cfg, virtual_clock& clock,
                     obs::hub* hub)
    : cfg_(cfg),
      clock_(&clock),
      own_obs_(hub == nullptr ? std::make_unique<obs::hub>() : nullptr),
      obs_(hub != nullptr ? *hub : *own_obs_),
      hist_read_(obs_.metrics().get_histogram(
          "io_read_ns", "disk read latency through the retry policy")),
      hist_write_(obs_.metrics().get_histogram(
          "io_write_ns", "disk write latency through the retry policy")),
      ctr_(obs_.metrics()) {}

template <typename Op>
io_result io_policy::run(Op&& op, io_kind kind, bool defer_time_charge) {
    if (kind == io_kind::read) {
        ctr_.inc<&io_policy_stats::reads>();
    } else {
        ctr_.inc<&io_policy_stats::writes>();
    }
    const std::uint64_t begin = obs_.now_ns();

    io_result result;
    std::uint64_t backoff = cfg_.initial_backoff_us;
    for (std::uint32_t attempt = 0;; ++attempt) {
        std::uint64_t service_us = 0;
        result.status = op(&service_us);
        // Injected fail-slow service time: charged to the virtual clock
        // like backoff (a real array would be waiting on the platter),
        // unless the caller is racing this op and will charge only the
        // winner's cost itself.
        if (service_us > 0) {
            result.latency_us += service_us;
            if (!defer_time_charge) clock_->advance(service_us);
        }
        if (!is_retryable(result.status)) break;
        ++result.transient_seen;
        if (attempt >= cfg_.max_retries) {
            ctr_.inc<&io_policy_stats::retries_exhausted>();
            break;
        }
        if (obs_.trace().enabled()) {
            obs_.trace().record(
                kind == io_kind::read ? "io.retry.read" : "io.retry.write",
                "io", obs_.now_ns(), 0);
        }
        // Exponential backoff on the virtual clock: a real array would
        // stall here; the simulation just records the stall.
        result.latency_us += backoff;
        if (!defer_time_charge) clock_->advance(backoff);
        ctr_.inc<&io_policy_stats::backoff_us>(backoff);
        backoff = std::min(backoff * 2, cfg_.max_backoff_us);
        ctr_.inc<&io_policy_stats::retries>();
    }
    if (result.ok() && result.transient_seen > 0) {
        ctr_.inc<&io_policy_stats::transient_masked>();
    }
    const std::uint64_t end = obs_.now_ns();
    (kind == io_kind::read ? hist_read_ : hist_write_)
        .record(end >= begin ? end - begin : 0);
    return result;
}

io_result io_policy::read(vdisk& disk, std::size_t offset,
                          std::span<std::byte> out, bool defer_time_charge) {
    return run([&](std::uint64_t* svc) { return disk.read(offset, out, svc); },
               io_kind::read, defer_time_charge);
}

io_result io_policy::view(vdisk& disk, std::size_t offset, std::size_t len,
                          const std::byte*& out, bool defer_time_charge) {
    return run(
        [&](std::uint64_t* svc) { return disk.view(offset, len, out, svc); },
        io_kind::read, defer_time_charge);
}

io_result io_policy::write(vdisk& disk, std::size_t offset,
                           std::span<const std::byte> in,
                           const write_landing& how, bool defer_time_charge) {
    return run(
        [&](std::uint64_t* svc) { return disk.write(offset, in, svc, how); },
        io_kind::write, defer_time_charge);
}

}  // namespace liberation::raid
