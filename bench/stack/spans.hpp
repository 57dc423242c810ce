// Span analysis for the traced run. After every traced host op the bench
// drains the volume hub's and each shard hub's tracer (tracer::ordered(),
// then clear(), so no ring wraps across ops) and hands the events here,
// together with its own span around the op. Each op's spans become
// per-layer samples: durations, and self time = a span's duration minus
// the part of it that its child spans cover.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "liberation/obs/trace.hpp"

namespace bench_stack {

/// A drained event and the trace lane it came from: 0 = the bench's own
/// spans, 1 = the volume hub, 2 + s = shard s.
struct lane_event {
    liberation::obs::trace_event e;
    std::uint32_t lane = 0;
};

/// Per-layer span samples, in nanoseconds.
struct span_samples {
    std::vector<std::uint64_t> volume_self;     ///< volume_read / volume_write
    std::vector<std::uint64_t> dispatch_wait;   ///< op start -> first shard leg
    std::vector<std::uint64_t> raid_read, raid_read_self;
    std::vector<std::uint64_t> raid_write_small, raid_write_small_self;
    std::vector<std::uint64_t> raid_write_full, raid_write_full_self;
    std::vector<std::uint64_t> rebuild_window;  ///< rebuild.window
    std::vector<std::uint64_t> aio_execute;     ///< aio.execute
};

class span_recorder {
public:
    /// `lane_names[i]` labels lane i in the Chrome trace. `archive_cap`
    /// bounds the events kept for it; samples are taken from every op
    /// regardless.
    span_recorder(std::vector<std::string> lane_names, std::size_t archive_cap);

    /// Fold the spans of one traced host op.
    void add_op(const std::vector<lane_event>& events);

    [[nodiscard]] const span_samples& samples() const noexcept {
        return samples_;
    }
    [[nodiscard]] std::size_t archived() const noexcept { return archived_; }

    /// Write the archived events as one Chrome trace (obs::merged_trace_json:
    /// one process per lane, causal links as flow events). False when the
    /// file cannot be written.
    [[nodiscard]] bool write_chrome_json(const std::string& path) const;

private:
    std::vector<std::string> names_;
    /// One archive tracer per lane. Recorded from the bench thread only,
    /// so each holds at most `cap_` events in one ring and never wraps.
    std::vector<std::unique_ptr<liberation::obs::tracer>> lanes_;
    std::size_t cap_;
    std::size_t archived_ = 0;
    span_samples samples_;
};

}  // namespace bench_stack
