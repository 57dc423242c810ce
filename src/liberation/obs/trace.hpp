// Span tracer: begin/end events recorded into bounded per-thread ring
// buffers, flushed on demand into one globally time-ordered trace.
//
// Recording is two timestamp reads plus a ring store under a per-shard
// mutex that only the owning thread ever contends (threads are mapped to
// shards by a registration counter, so concurrent recorders hit disjoint
// shards in steady state). Each ring is bounded: once full, the oldest
// events are overwritten — a long run keeps the freshest window instead
// of growing without bound. Overwrites are counted (dropped(), since the
// last clear(); dropped_total(), monotonic) and surfaced both as the
// liberation_obs_spans_dropped_total counter and as a metadata record in
// the exported trace, so a postmortem can tell a quiet system from a
// wrapped ring.
//
// Causal context: every span carries a (trace_id, span_id, parent_id)
// triple. A host op roots a trace at its entry point (the volume or
// array timed_span allocates a fresh trace_id when none is ambient) and
// the ids ride a thread-local — across a thread hop (a shard
// dispatcher) the handoff is explicit via trace_scope. The ids are
// process-wide, so one causal tree can span several tracers (the volume
// hub's and every shard array's); merged_trace_json() joins them and
// renders parent links as Chrome flow events, giving one connected tree
// per host op in chrome://tracing / Perfetto.
//
// Tracing is off by default (enabled() is one relaxed load) so the hot
// paths pay a single predictable branch when nobody is looking. The
// export format is the Chrome trace_event JSON array-of-complete-events
// ("ph":"X") that chrome://tracing and Perfetto load directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "liberation/obs/metrics.hpp"

namespace liberation::obs {

/// One completed span (or instant event when dur_ns == 0).
struct trace_event {
    const char* name = "";  ///< static string (callers pass literals)
    const char* cat = "";   ///< static category string
    std::uint64_t ts_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint32_t tid = 0;
    std::uint64_t trace_id = 0;   ///< 0 = not part of a causal tree
    std::uint64_t span_id = 0;    ///< 0 = leaf instant (cannot be a parent)
    std::uint64_t parent_id = 0;  ///< 0 = root of its tree
};

/// The ambient causal position of a thread: the tree it is working for
/// and the span that any nested work should report as its parent.
struct trace_context {
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
};

/// Thread-local ambient context. Spans read it to find their parent;
/// cross-thread handoff (a shard dispatcher's leg) captures it on the
/// submitting thread and reinstalls it with trace_scope.
[[nodiscard]] trace_context current_trace() noexcept;
void set_current_trace(trace_context ctx) noexcept;

/// Fresh process-wide ids (never 0). Cheap relaxed fetch_add.
[[nodiscard]] std::uint64_t next_trace_id() noexcept;
[[nodiscard]] std::uint64_t next_span_id() noexcept;

/// RAII: install `ctx` as this thread's ambient context, restore the
/// previous one on destruction. Used at every thread hop.
class trace_scope {
public:
    explicit trace_scope(trace_context ctx) noexcept : prev_(current_trace()) {
        set_current_trace(ctx);
    }
    trace_scope(const trace_scope&) = delete;
    trace_scope& operator=(const trace_scope&) = delete;
    ~trace_scope() { set_current_trace(prev_); }

private:
    trace_context prev_;
};

class tracer {
public:
    /// `ring_capacity` bounds each per-thread ring (events, not bytes).
    explicit tracer(std::size_t ring_capacity = 8192)
        : capacity_(ring_capacity == 0 ? 1 : ring_capacity) {}

    tracer(const tracer&) = delete;
    tracer& operator=(const tracer&) = delete;

    void enable(bool on = true) noexcept {
        enabled_.store(on, std::memory_order_relaxed);
    }
    [[nodiscard]] bool enabled() const noexcept {
        return enabled_.load(std::memory_order_relaxed);
    }

    /// Record one completed span with the thread's ambient context as its
    /// parent. Callers are expected to gate on enabled() themselves
    /// (timed_span does); record() stores unconditionally so flushes and
    /// tests can inject events directly.
    void record(const char* name, const char* cat, std::uint64_t ts_ns,
                std::uint64_t dur_ns);

    /// Record with an explicit causal position: `parent` names the tree
    /// and parent span, `span_id` is this event's own id (0 for leaf
    /// instants). timed_span and the aio execute path use this because
    /// their own span must not be its own parent.
    void record_ex(const char* name, const char* cat, std::uint64_t ts_ns,
                   std::uint64_t dur_ns, trace_context parent,
                   std::uint64_t span_id);

    /// Flush every per-thread ring into one trace ordered by ts_ns.
    [[nodiscard]] std::vector<trace_event> ordered() const;

    /// Chrome trace_event JSON ({"traceEvents":[...]}; ts/dur in
    /// microseconds with ns remainder folded in as fractions). Parent
    /// links render as flow events; a wrapped ring adds an
    /// obs.spans_dropped metadata instant.
    [[nodiscard]] std::string trace_json() const;

    /// Events currently buffered across all rings (<= capacity * shards).
    [[nodiscard]] std::size_t size() const;

    /// Events overwritten by ring wrap since construction/clear().
    [[nodiscard]] std::uint64_t dropped() const;
    /// Events overwritten since construction; clear() does not reset it
    /// (the hub links it as obs_spans_dropped_total).
    [[nodiscard]] const counter& dropped_total() const noexcept {
        return dropped_total_;
    }

    void clear();

private:
    static constexpr std::size_t kShards = 16;
    struct shard {
        mutable std::mutex mutex;
        std::vector<trace_event> ring;  ///< grows to capacity_, then wraps
        std::size_t next = 0;           ///< overwrite cursor once full
        std::uint64_t dropped = 0;      ///< events overwritten so far
    };

    shard& my_shard() const;

    std::size_t capacity_;
    std::atomic<bool> enabled_{false};
    mutable shard shards_[kShards];
    counter dropped_total_;
};

/// One tracer's contribution to a merged trace: `process_name` becomes
/// the Chrome process label ("volume", "shard=\"2\"", ...).
struct trace_part {
    std::string process_name;
    const tracer* t = nullptr;
};

/// Interleave several tracers into one Chrome trace: part i renders as
/// pid i+1 with a process_name metadata record, events merge by
/// timestamp, and parent links are joined *across* parts (a shard span
/// whose parent lives in the volume tracer still connects). An empty
/// process_name suppresses the metadata record (the single-tracer form).
[[nodiscard]] std::string merged_trace_json(
    const std::vector<trace_part>& parts);

}  // namespace liberation::obs
