#include "liberation/aio/queue_pair.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace liberation::aio {

queue_pair::queue_pair(io_backend& backend, std::uint32_t disks,
                       const aio_config& cfg)
    : backend_(backend),
      cfg_(cfg),
      own_obs_(cfg.obs == nullptr ? std::make_unique<obs::hub>() : nullptr),
      obs_(cfg.obs != nullptr ? *cfg.obs : *own_obs_),
      ctr_(obs_.metrics()),
      highwater_(obs_.metrics().get_gauge(
          "aio_inflight_highwater", "max pending on any one disk (requests)")),
      hist_queue_wait_(obs_.metrics().get_histogram(
          "aio_queue_wait_ns", "submit-to-execute wait in the ring")),
      hist_execute_(obs_.metrics().get_histogram(
          "aio_execute_ns", "backend transfer execution latency")),
      hist_complete_(obs_.metrics().get_histogram(
          "aio_complete_ns", "submit-to-completion request latency")) {
    if (cfg_.queue_depth == 0) cfg_.queue_depth = 1;
    pending_.reserve(disks);
    for (std::uint32_t d = 0; d < disks; ++d)
        pending_.emplace_back(cfg_.queue_depth);
}

aio_stats queue_pair::stats() const noexcept {
    aio_stats s = ctr_.snapshot();
    s.inflight_highwater = static_cast<std::uint64_t>(highwater_.value());
    return s;
}

queue_pair::~queue_pair() { drain(); }

void queue_pair::add_completion_stage(completion_stage stage) {
    stages_.push_back(std::move(stage));
}

void queue_pair::submit(const io_desc& d) {
    ctr_.inc<&aio_stats::submitted>();
    fragment f;
    f.desc = d;
    f.seq = next_seq_++;
    f.tctx = obs::current_trace();
    f.submit_ts = obs_.now_ns();
    if (d.disk >= pending_.size()) {
        // No window to queue in: complete immediately, sequenced at drain.
        f.status = raid::io_status::out_of_range;
        f.done_ts = f.submit_ts;
        done_.push_back(f);
        return;
    }
    ring<fragment>& window = pending_[d.disk];
    window.push(f);
    highwater_.set_max(static_cast<std::int64_t>(window.size()));
    if (window.full()) flush_disk(d.disk);
}

void queue_pair::build_batches(std::uint32_t disk) {
    std::vector<fragment>& frags = flush_frags_;
    std::vector<batch>& batches = flush_batches_;
    ring<fragment>& window = pending_[disk];
    while (!window.empty()) {
        const std::size_t idx = frags.size();
        frags.push_back(window.pop());
        const fragment& f = frags.back();
        if (!batches.empty()) {
            // Coalesce only when the new request continues the previous
            // transfer on the medium and — for a read — in memory: then one
            // backend call covers the whole extent and per-request results
            // are still recovered by fragment offsets. A view has no memory
            // of its own: its bytes are the medium's, so the medium decides.
            batch& prev = batches.back();
            if (prev.first + prev.count == idx &&
                prev.merged.kind == f.desc.kind &&
                f.desc.kind != op_kind::write &&
                prev.merged.offset + prev.merged.len == f.desc.offset &&
                (f.desc.kind == op_kind::view ||
                 prev.merged.data + prev.merged.len == f.desc.data)) {
                prev.merged.len += f.desc.len;
                ++prev.count;
                ctr_.inc<&aio_stats::merges>();
                continue;
            }
        }
        batch b;
        b.merged = f.desc;
        b.first = idx;
        b.count = 1;
        batches.push_back(b);
    }
}

void queue_pair::flush_disk(std::uint32_t disk) {
    if (pending_[disk].empty()) return;
    // Execute in submission order on the calling thread, reusing the
    // flush scratch vectors (steady-state allocation-free).
    flush_frags_.clear();
    flush_batches_.clear();
    build_batches(disk);
    for (const batch& b : flush_batches_) {
        ctr_.inc<&aio_stats::batches>();
        if (execute_one(b)) {
            ctr_.inc<&aio_stats::split_retries>();
        }
    }
    done_.insert(done_.end(), flush_frags_.begin(), flush_frags_.end());
}

raid::io_status queue_pair::run(const io_desc& d, const std::byte*& view) {
    if (d.kind == op_kind::view) return backend_.view(d, view);
    return backend_.execute(d);
}

void queue_pair::set_view(fragment& f, const std::byte* at) noexcept {
    // The desc carries the view to the completion stages and the CQE; the
    // bytes stay the medium's, read-only (see op_kind::view).
    f.desc.data = const_cast<std::byte*>(at);
}

bool queue_pair::execute_one(const batch& b) {
    fragment* const first = flush_frags_.data() + b.first;
    const std::uint64_t start = obs_.now_ns();
    for (std::size_t i = 0; i < b.count; ++i) {
        hist_queue_wait_.record(
            start >= first[i].submit_ts ? start - first[i].submit_ts : 0);
    }
    // The execute span becomes the ambient parent around the backend call:
    // anything the backend emits — io_policy retry instants above all —
    // lands under it in the submitting host op's causal tree. A merged
    // batch inherits its first fragment's context; the fragments
    // coalesced behind it share the same host op in every real caller.
    const bool tracing = obs_.trace().enabled();
    const obs::trace_context parent = first->tctx;
    const std::uint64_t exec_span =
        tracing && parent.trace_id != 0 ? obs::next_span_id() : 0;
    obs::trace_scope scope(exec_span != 0
                               ? obs::trace_context{parent.trace_id, exec_span}
                               : obs::current_trace());
    const std::byte* at = nullptr;
    const raid::io_status merged_status = run(b.merged, at);
    std::uint64_t done = obs_.now_ns();
    hist_execute_.record(done >= start ? done - start : 0);
    if (merged_status == raid::io_status::ok || b.count == 1) {
        if (tracing) {
            obs_.trace().record_ex("aio.execute", "aio", start,
                                        done >= start ? done - start : 0,
                                        parent, exec_span);
        }
        for (std::size_t i = 0; i < b.count; ++i) {
            first[i].status = merged_status;
            first[i].done_ts = done;
            if (at != nullptr) {
                set_view(first[i],
                         at + (first[i].desc.offset - b.merged.offset));
            }
        }
        return false;
    }
    // A coalesced transfer failed: split and re-drive each original
    // request so the failure lands only on the fragments that deserve it
    // (e.g. one latent sector inside an otherwise healthy extent, or the
    // masked strips of a rebuilding disk).
    for (std::size_t i = 0; i < b.count; ++i) {
        at = nullptr;
        first[i].status = run(first[i].desc, at);
        first[i].done_ts = obs_.now_ns();
        if (at != nullptr) set_view(first[i], at);
    }
    done = obs_.now_ns();
    if (tracing) {
        obs_.trace().record_ex("aio.execute", "aio", start,
                                    done >= start ? done - start : 0, parent,
                                    exec_span);
    }
    return true;
}

void queue_pair::drain() {
    for (std::uint32_t d = 0; d < pending_.size(); ++d) flush_disk(d);

    // Recover global submission order across disks, run completion-stage
    // decorators on this (the draining) thread, and emit CQEs. done_ is
    // reused as scratch for the next cycle.
    std::sort(done_.begin(), done_.end(),
              [](const fragment& a, const fragment& b) { return a.seq < b.seq; });
    const bool tracing = obs_.trace().enabled();
    for (const fragment& f : done_) {
        raid::io_status s = f.status;
        for (const completion_stage& stage : stages_) s = stage(f.desc, s);
        ctr_.inc<&aio_stats::completed>();
        hist_complete_.record(
            f.done_ts >= f.submit_ts ? f.done_ts - f.submit_ts : 0);
        if (tracing) {
            // Leaf event under the submitting span: completion latency of
            // this fragment inside its host op's tree.
            obs_.trace().record_ex(
                "aio.complete", "aio", f.submit_ts,
                f.done_ts >= f.submit_ts ? f.done_ts - f.submit_ts : 0,
                f.tctx, 0);
        }
        completions_.push_back({f.desc.user_data, s, f.desc.disk, f.desc.data});
    }
    done_.clear();
}

std::vector<io_cqe> queue_pair::take_completions() {
    std::vector<io_cqe> out;
    out.swap(completions_);
    return out;
}

}  // namespace liberation::aio
