// Observability hub: one registry + one tracer + one time source, owned
// per instrumented component (each raid6_array has its own, so two arrays
// in one process never mix their latency distributions).
//
// Time source: real runs read the steady clock; tests and simulations
// plug in the array's virtual microsecond clock (raid::virtual_clock via
// set_clock) so every latency a histogram sees is deterministic — retry backoff charges the virtual
// clock, so a retried op's span *is* its backoff. The source is a
// function pointer + context read with relaxed atomics: swapping clocks
// is rare, reading them is wait-free.
//
// Counters live in the registry itself (see metrics.hpp: counter tables),
// so an export reads them where the hot paths increment them. Collectors
// remain for gauges sampled from foreground state (e.g. the volume's
// per-shard failed-disk count): they run right before export.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "liberation/obs/metrics.hpp"
#include "liberation/obs/trace.hpp"

namespace liberation::obs {

/// Time source: returns nanoseconds from an arbitrary epoch. Must be
/// thread-safe; `ctx` is the source's state (null for the steady clock).
using now_fn = std::uint64_t (*)(const void* ctx);

[[nodiscard]] std::uint64_t steady_now_ns(const void* /*ctx*/) noexcept;

class hub {
public:
    /// Links the tracer's monotonic ring-wrap count into the registry as
    /// obs_spans_dropped_total: a postmortem reading the exposition can
    /// tell "no events" from "the trace ring wrapped".
    hub() {
        registry_.link_counter("obs_spans_dropped_total", "",
                               tracer_.dropped_total(),
                               "trace spans overwritten by ring wrap");
    }
    hub(const hub&) = delete;
    hub& operator=(const hub&) = delete;

    [[nodiscard]] registry& metrics() noexcept { return registry_; }
    [[nodiscard]] const registry& metrics() const noexcept {
        return registry_;
    }
    [[nodiscard]] tracer& trace() noexcept { return tracer_; }
    [[nodiscard]] const tracer& trace() const noexcept { return tracer_; }

    /// Swap the time source (defaults to the steady clock). `ctx` must
    /// outlive the hub.
    void set_clock(now_fn fn, const void* ctx) noexcept {
        clock_ctx_.store(ctx, std::memory_order_relaxed);
        clock_fn_.store(fn, std::memory_order_release);
    }

    [[nodiscard]] std::uint64_t now_ns() const noexcept {
        const now_fn fn = clock_fn_.load(std::memory_order_acquire);
        return fn(clock_ctx_.load(std::memory_order_relaxed));
    }

    /// Register a pre-export hook that samples gauges (see file comment).
    /// Runs inside metrics_text().
    void add_collector(std::function<void()> fn) {
        std::lock_guard lock(collectors_mutex_);
        collectors_.push_back(std::move(fn));
    }

    /// Run collectors, then render the Prometheus-style exposition.
    [[nodiscard]] std::string metrics_text(
        const std::string& prefix = "liberation_") {
        {
            std::lock_guard lock(collectors_mutex_);
            for (const auto& fn : collectors_) fn();
        }
        return registry_.metrics_text(prefix);
    }

    /// Snapshot every histogram (for structured consumers that don't
    /// want to parse the text form).
    [[nodiscard]] std::vector<
        std::pair<std::string, latency_histogram::snapshot_t>>
    histogram_snapshots() const {
        return registry_.histogram_snapshots();
    }

    [[nodiscard]] std::string trace_json() const {
        return tracer_.trace_json();
    }

private:
    registry registry_;
    tracer tracer_;
    std::atomic<now_fn> clock_fn_{&steady_now_ns};
    std::atomic<const void*> clock_ctx_{nullptr};
    std::mutex collectors_mutex_;
    std::vector<std::function<void()>> collectors_;
};

/// One hub's contribution to a merged exposition: `labels` (a literal
/// Prometheus label body such as `shard="2"`, or empty) is added to
/// every sample line of the part.
struct metrics_part {
    std::string labels;
    hub* h = nullptr;
};

/// Run each part's collectors and render one exposition: every family's
/// HELP/TYPE header appears once, followed by the samples of every part
/// that has it (in part order); families appear in first-seen order.
/// The metrics counterpart of merged_trace_json().
[[nodiscard]] std::string merged_metrics_text(
    const std::vector<metrics_part>& parts,
    const std::string& prefix = "liberation_");

/// RAII span: times [construction, destruction) on the hub's clock,
/// records the duration into `hist` (when non-null), and emits a Chrome
/// trace event when tracing is enabled. `name`/`cat` must be string
/// literals (the tracer stores the pointers).
///
/// Causal context: with tracing on, construction allocates a span id,
/// roots a fresh trace when the thread has no ambient one (this is how a
/// host op entering the volume or array starts its tree), and installs
/// itself as the thread's current parent — every span, instant, or
/// flight-recorder event nested inside reports this span as its parent.
/// Destruction restores the previous context, records the event with its
/// ids, and notes the trace id as the histogram's tail exemplar.
class timed_span {
public:
    timed_span(hub& h, latency_histogram* hist, const char* name,
               const char* cat = "raid") noexcept
        : hub_(&h), hist_(hist), name_(name), cat_(cat) {
        begin_ = h.now_ns();
        if (h.trace().enabled()) {
            parent_ = current_trace();
            self_.trace_id = parent_.trace_id != 0 ? parent_.trace_id
                                                   : next_trace_id();
            self_.span_id = next_span_id();
            set_current_trace(self_);
        }
    }

    timed_span(const timed_span&) = delete;
    timed_span& operator=(const timed_span&) = delete;

    ~timed_span() {
        const std::uint64_t end = hub_->now_ns();
        const std::uint64_t dur = end >= begin_ ? end - begin_ : 0;
        if (hist_ != nullptr) {
            hist_->record(dur);
            hist_->note_exemplar(dur, self_.trace_id);
        }
        if (self_.trace_id != 0) {
            set_current_trace(parent_);
            // The record's context names *this span's* tree and its parent
            // span: a root (no ambient tree at construction) still belongs
            // to the tree it created, with parent span 0.
            hub_->trace().record_ex(name_, cat_, begin_, dur,
                                    trace_context{self_.trace_id,
                                                  parent_.span_id},
                                    self_.span_id);
        } else if (hub_->trace().enabled()) {
            hub_->trace().record(name_, cat_, begin_, dur);
        }
    }

private:
    hub* hub_;
    latency_histogram* hist_;
    const char* name_;
    const char* cat_;
    std::uint64_t begin_ = 0;
    trace_context parent_{};
    trace_context self_{};
};

}  // namespace liberation::obs
