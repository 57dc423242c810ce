#include "liberation/obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace liberation::obs {

namespace {

/// Process-wide small integer per thread: stable tids for the trace and
/// the shard mapping (shared across tracer instances — a thread keeps one
/// identity no matter which array's tracer it records into).
std::uint32_t this_thread_id() {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

thread_local trace_context t_current{};

std::atomic<std::uint64_t> g_next_trace{1};
std::atomic<std::uint64_t> g_next_span{1};

}  // namespace

trace_context current_trace() noexcept { return t_current; }

void set_current_trace(trace_context ctx) noexcept { t_current = ctx; }

std::uint64_t next_trace_id() noexcept {
    return g_next_trace.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t next_span_id() noexcept {
    return g_next_span.fetch_add(1, std::memory_order_relaxed);
}

tracer::shard& tracer::my_shard() const {
    return shards_[this_thread_id() % kShards];
}

void tracer::record(const char* name, const char* cat, std::uint64_t ts_ns,
                    std::uint64_t dur_ns) {
    record_ex(name, cat, ts_ns, dur_ns, t_current, 0);
}

void tracer::record_ex(const char* name, const char* cat, std::uint64_t ts_ns,
                       std::uint64_t dur_ns, trace_context parent,
                       std::uint64_t span_id) {
    trace_event ev{name,     cat,             ts_ns,   dur_ns,
                   this_thread_id(), parent.trace_id, span_id, parent.span_id};
    shard& s = my_shard();
    std::lock_guard lock(s.mutex);
    if (s.ring.size() < capacity_) {
        s.ring.push_back(ev);
        return;
    }
    // Bounded: overwrite the oldest event (freshest-window semantics).
    s.ring[s.next] = ev;
    s.next = (s.next + 1) % capacity_;
    ++s.dropped;
    dropped_total_.inc();
}

std::vector<trace_event> tracer::ordered() const {
    std::vector<trace_event> out;
    for (const shard& s : shards_) {
        std::lock_guard lock(s.mutex);
        out.insert(out.end(), s.ring.begin(), s.ring.end());
    }
    std::sort(out.begin(), out.end(),
              [](const trace_event& a, const trace_event& b) {
                  return a.ts_ns < b.ts_ns;
              });
    return out;
}

std::string tracer::trace_json() const {
    return merged_trace_json({trace_part{std::string(), this}});
}

std::size_t tracer::size() const {
    std::size_t n = 0;
    for (const shard& s : shards_) {
        std::lock_guard lock(s.mutex);
        n += s.ring.size();
    }
    return n;
}

std::uint64_t tracer::dropped() const {
    std::uint64_t n = 0;
    for (const shard& s : shards_) {
        std::lock_guard lock(s.mutex);
        n += s.dropped;
    }
    return n;
}

void tracer::clear() {
    for (shard& s : shards_) {
        std::lock_guard lock(s.mutex);
        s.ring.clear();
        s.next = 0;
        s.dropped = 0;
    }
}

namespace {

/// A merged event remembers which part (pid) it came from.
struct placed_event {
    trace_event e;
    std::uint32_t pid;
};

/// Process names may carry label-style quoting (shard="3"); span/cat
/// names are compile-time literals and never need this.
std::string json_escape(const std::string& s) {
    std::string r;
    r.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\') r += '\\';
        r += c;
    }
    return r;
}

}  // namespace

std::string merged_trace_json(const std::vector<trace_part>& parts) {
    std::string out = "{\"traceEvents\":[";
    char buf[384];
    bool first = true;
    const auto emit = [&out, &first](const char* s) {
        if (!first) out += ',';
        first = false;
        out += s;
    };

    // Process metadata + ring-wrap disclosure, one record per part.
    std::vector<placed_event> events;
    for (std::size_t p = 0; p < parts.size(); ++p) {
        const auto pid = static_cast<std::uint32_t>(p + 1);
        if (!parts[p].process_name.empty()) {
            std::snprintf(buf, sizeof buf,
                          "{\"name\":\"process_name\",\"ph\":\"M\","
                          "\"pid\":%u,\"tid\":0,\"args\":{\"name\":\"%s\"}}",
                          pid, json_escape(parts[p].process_name).c_str());
            emit(buf);
        }
        if (parts[p].t == nullptr) continue;
        if (const std::uint64_t dropped = parts[p].t->dropped();
            dropped != 0) {
            // The ring wrapped: this trace is the freshest window, not the
            // whole run. Postmortem readers check for this record.
            std::snprintf(buf, sizeof buf,
                          "{\"name\":\"obs.spans_dropped\",\"cat\":\"obs\","
                          "\"ph\":\"I\",\"s\":\"p\",\"ts\":0.000,\"pid\":%u,"
                          "\"tid\":0,\"args\":{\"dropped\":%llu}}",
                          pid, static_cast<unsigned long long>(dropped));
            emit(buf);
        }
        for (const trace_event& e : parts[p].t->ordered()) {
            events.push_back({e, pid});
        }
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const placed_event& a, const placed_event& b) {
                         return a.e.ts_ns < b.e.ts_ns;
                     });

    // Spans by id, so parent links can be joined across parts.
    std::unordered_map<std::uint64_t, const placed_event*> by_span;
    for (const placed_event& pe : events) {
        if (pe.e.span_id != 0) by_span.emplace(pe.e.span_id, &pe);
    }

    for (const placed_event& pe : events) {
        const trace_event& e = pe.e;
        // Chrome's ts/dur unit is microseconds; keep ns as fractions so
        // the sub-microsecond simulated I/O stays visible.
        int n = std::snprintf(
            buf, sizeof buf,
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
            "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%u,\"tid\":%u",
            e.name, e.cat, static_cast<double>(e.ts_ns) / 1e3,
            static_cast<double>(e.dur_ns) / 1e3, pe.pid, e.tid);
        if (e.trace_id != 0 && n > 0 &&
            static_cast<std::size_t>(n) < sizeof buf) {
            n += std::snprintf(
                buf + n, sizeof buf - static_cast<std::size_t>(n),
                ",\"args\":{\"trace\":\"%llu\",\"span\":\"%llu\","
                "\"parent\":\"%llu\"}",
                static_cast<unsigned long long>(e.trace_id),
                static_cast<unsigned long long>(e.span_id),
                static_cast<unsigned long long>(e.parent_id));
        }
        if (n > 0 && static_cast<std::size_t>(n) + 1 < sizeof buf) {
            buf[n] = '}';
            buf[n + 1] = '\0';
        }
        emit(buf);
    }

    // Parent links as flow events: a step ("s") on the parent's track
    // bound ("f") to the child, so chrome://tracing draws the causal tree
    // across pids/tids. Flow ids must be unique per edge; the child's
    // span id is, and leaf instants borrow from a disjoint range.
    std::uint64_t leaf_flow = ~std::uint64_t{0};
    for (const placed_event& pe : events) {
        const trace_event& e = pe.e;
        if (e.parent_id == 0) continue;
        const auto it = by_span.find(e.parent_id);
        if (it == by_span.end()) continue;  // parent fell off its ring
        const placed_event& par = *it->second;
        const std::uint64_t id = e.span_id != 0 ? e.span_id : leaf_flow--;
        // The step must sit inside the parent slice for the viewer to
        // attach it: clamp the child's start into the parent interval.
        const std::uint64_t s_ts =
            std::clamp(e.ts_ns, par.e.ts_ns, par.e.ts_ns + par.e.dur_ns);
        std::snprintf(buf, sizeof buf,
                      "{\"name\":\"causal\",\"cat\":\"obs\",\"ph\":\"s\","
                      "\"id\":%llu,\"ts\":%.3f,\"pid\":%u,\"tid\":%u}",
                      static_cast<unsigned long long>(id),
                      static_cast<double>(s_ts) / 1e3, par.pid, par.e.tid);
        emit(buf);
        std::snprintf(buf, sizeof buf,
                      "{\"name\":\"causal\",\"cat\":\"obs\",\"ph\":\"f\","
                      "\"bp\":\"e\",\"id\":%llu,\"ts\":%.3f,\"pid\":%u,"
                      "\"tid\":%u}",
                      static_cast<unsigned long long>(id),
                      static_cast<double>(e.ts_ns) / 1e3, pe.pid, e.tid);
        emit(buf);
    }

    out += "]}";
    return out;
}

}  // namespace liberation::obs
