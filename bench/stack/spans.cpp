#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace bench_stack {

namespace {

using liberation::obs::trace_event;

/// Length of [lo, hi) covered by the union of the children's intervals.
std::uint64_t covered_ns(std::uint64_t lo, std::uint64_t hi,
                         const std::vector<const trace_event*>& kids) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    iv.reserve(kids.size());
    for (const trace_event* k : kids) {
        const std::uint64_t a = std::max(lo, k->ts_ns);
        const std::uint64_t b = std::min(hi, k->ts_ns + k->dur_ns);
        if (a < b) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t total = 0;
    std::uint64_t cur_lo = 0;
    std::uint64_t cur_hi = 0;
    for (const auto& [a, b] : iv) {
        if (a > cur_hi) {
            total += cur_hi - cur_lo;
            cur_lo = a;
            cur_hi = b;
        } else {
            cur_hi = std::max(cur_hi, b);
        }
    }
    return total + (cur_hi - cur_lo);
}

}  // namespace

span_recorder::span_recorder(std::vector<std::string> lane_names,
                             std::size_t archive_cap)
    : names_(std::move(lane_names)), cap_(archive_cap) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
        lanes_.push_back(std::make_unique<liberation::obs::tracer>(archive_cap));
    }
}

void span_recorder::add_op(const std::vector<lane_event>& events) {
    // Children that did work inside their parent's interval. aio.complete
    // is a submit-to-completion latency record, not work, and instants
    // (retries) have no extent.
    std::unordered_map<std::uint64_t, std::vector<const trace_event*>> kids;
    for (const lane_event& le : events) {
        const trace_event& e = le.e;
        if (e.parent_id == 0 || e.dur_ns == 0) continue;
        if (std::string_view(e.name) == "aio.complete") continue;
        kids[e.parent_id].push_back(&e);
    }
    static const std::vector<const trace_event*> none;
    const auto children = [&](const trace_event& e)
        -> const std::vector<const trace_event*>& {
        const auto it = kids.find(e.span_id);
        return it == kids.end() ? none : it->second;
    };
    const auto self_ns = [&](const trace_event& e) {
        return e.dur_ns - covered_ns(e.ts_ns, e.ts_ns + e.dur_ns, children(e));
    };

    for (const lane_event& le : events) {
        const trace_event& e = le.e;
        if (e.span_id == 0) continue;
        const std::string_view name(e.name);
        if (name == "volume_read" || name == "volume_write") {
            samples_.volume_self.push_back(self_ns(e));
            std::uint64_t first_leg = 0;
            for (const trace_event* k : children(e)) {
                if (std::string_view(k->name) != "volume.shard_dispatch") continue;
                if (first_leg == 0 || k->ts_ns < first_leg) first_leg = k->ts_ns;
            }
            if (first_leg != 0) {
                samples_.dispatch_wait.push_back(
                    first_leg >= e.ts_ns ? first_leg - e.ts_ns : 0);
            }
        } else if (name == "raid.read") {
            samples_.raid_read.push_back(e.dur_ns);
            samples_.raid_read_self.push_back(self_ns(e));
        } else if (name == "raid.write_small") {
            samples_.raid_write_small.push_back(e.dur_ns);
            samples_.raid_write_small_self.push_back(self_ns(e));
        } else if (name == "raid.write_full_stripes" ||
                   name == "raid.write_full_stripe") {
            samples_.raid_write_full.push_back(e.dur_ns);
            samples_.raid_write_full_self.push_back(self_ns(e));
        } else if (name == "rebuild.window") {
            samples_.rebuild_window.push_back(e.dur_ns);
        } else if (name == "aio.execute") {
            samples_.aio_execute.push_back(e.dur_ns);
        }
    }

    for (const lane_event& le : events) {
        if (archived_ == cap_) break;
        const trace_event& e = le.e;
        lanes_[le.lane]->record_ex(e.name, e.cat, e.ts_ns, e.dur_ns,
                                   {e.trace_id, e.parent_id}, e.span_id);
        ++archived_;
    }
}

bool span_recorder::write_chrome_json(const std::string& path) const {
    std::vector<liberation::obs::trace_part> parts;
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
        parts.push_back({names_[i], lanes_[i].get()});
    }
    const std::string json = liberation::obs::merged_trace_json(parts);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const bool written = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    return std::fclose(f) == 0 && written;
}

}  // namespace bench_stack
