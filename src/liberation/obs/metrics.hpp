// Lock-cheap metrics registry: named monotonic counters, gauges, and
// fixed-bucket power-of-two latency histograms.
//
// Hot paths hold references obtained once from the registry (registration
// takes a mutex, updates are relaxed atomics on stable storage), so
// recording a sample costs one clock read plus a handful of relaxed
// atomic adds — cheap enough to leave on in production builds.
//
// The registry is the only storage of every layer counter: each counting
// layer declares its counters once, in a table of counter_def rows (name,
// help, typed stats field), resolves a counter_set of handles from its
// owner's registry, increments those on the hot paths, and renders its
// typed *_stats struct as a view over them (counter_set::snapshot).
//
// Export is Prometheus-style text exposition (registry::metrics_text):
// counters and gauges as single samples, histograms as summary families
// with p50/p95/p99 quantile labels plus _sum/_count and a _max gauge.
// Quantiles are bucket upper bounds (values bucketed by floor(log2(ns))),
// so a reported p99 of 16384 means "99% of samples completed in under
// 16.4 us" — coarse, but stable, allocation-free, and mergeable.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <map>
#include <stdexcept>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace liberation::obs {

/// Monotonic counter. inc() from any thread; it returns the value before
/// the add.
class counter {
public:
    std::uint64_t inc(std::uint64_t n = 1) noexcept {
        return v_.fetch_add(n, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t value() const noexcept {
        return v_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time gauge (signed: deltas may go negative).
class gauge {
public:
    void set(std::int64_t v) noexcept {
        v_.store(v, std::memory_order_relaxed);
    }
    void add(std::int64_t n) noexcept {
        v_.fetch_add(n, std::memory_order_relaxed);
    }
    /// Raise to `v` if it is larger (a high-water mark).
    void set_max(std::int64_t v) noexcept {
        std::int64_t prev = v_.load(std::memory_order_relaxed);
        while (v > prev &&
               !v_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
        }
    }
    [[nodiscard]] std::int64_t value() const noexcept {
        return v_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket latency histogram: bucket i counts samples v (nanoseconds)
/// with floor(log2(v)) == i, i.e. v in [2^i, 2^(i+1)); samples of 0 land
/// in bucket 0. 64 buckets cover every uint64 value, so record() never
/// clips. All updates are relaxed atomics — recording is wait-free and
/// safe from any thread; snapshots are racy-but-coherent-enough in the
/// same sense as array_stats (each bucket individually exact, the set
/// possibly mid-update).
class latency_histogram {
public:
    static constexpr std::size_t kBuckets = 64;

    void record(std::uint64_t value_ns) noexcept {
        buckets_[bucket_of(value_ns)].fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(value_ns, std::memory_order_relaxed);
        std::uint64_t prev = max_.load(std::memory_order_relaxed);
        while (value_ns > prev &&
               !max_.compare_exchange_weak(prev, value_ns,
                                           std::memory_order_relaxed)) {
        }
    }

    /// floor(log2(v)) clamped to [0, kBuckets); 0 maps to bucket 0.
    [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) noexcept {
        if (v <= 1) return 0;
        std::size_t b = 0;
        while (v >>= 1) ++b;
        return b < kBuckets ? b : kBuckets - 1;
    }

    /// Upper bound (exclusive) of bucket i in nanoseconds — the value
    /// quantiles report.
    [[nodiscard]] static std::uint64_t bucket_upper(std::size_t i) noexcept {
        return i + 1 >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << (i + 1));
    }

    struct snapshot_t {
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        std::uint64_t max = 0;
        std::uint64_t p50 = 0;
        std::uint64_t p95 = 0;
        std::uint64_t p99 = 0;
        std::array<std::uint64_t, kBuckets> buckets{};

        /// Smallest bucket upper bound covering at least q of the samples.
        [[nodiscard]] std::uint64_t quantile(double q) const noexcept {
            if (count == 0) return 0;
            const auto want = static_cast<std::uint64_t>(
                q * static_cast<double>(count) + 0.5);
            std::uint64_t cum = 0;
            for (std::size_t i = 0; i < kBuckets; ++i) {
                cum += buckets[i];
                if (cum >= want && cum != 0) return bucket_upper(i);
            }
            return bucket_upper(kBuckets - 1);
        }
    };

    /// Best-effort exemplar: remember the trace id of the largest sample
    /// seen, so a histogram's tail quantile links to the causal tree that
    /// produced it. Value and id are separate relaxed atomics — racing
    /// writers may briefly pair one's value with the other's id, which is
    /// acceptable for a debugging pointer (both belong to *some* slow op).
    void note_exemplar(std::uint64_t value_ns,
                       std::uint64_t trace_id) noexcept {
        if (trace_id != 0 &&
            value_ns >= ex_value_.load(std::memory_order_relaxed)) {
            ex_value_.store(value_ns, std::memory_order_relaxed);
            ex_trace_.store(trace_id, std::memory_order_relaxed);
        }
    }
    [[nodiscard]] std::uint64_t exemplar_value() const noexcept {
        return ex_value_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t exemplar_trace() const noexcept {
        return ex_trace_.load(std::memory_order_relaxed);
    }

    /// Zero every bucket, the sum, and the max. NOT a consistent cut:
    /// samples recorded concurrently may survive or be lost per-field.
    /// Meant for "this slot holds new hardware" resets (the latency
    /// monitor), where the old distribution is meaningless anyway —
    /// never for registry-exported histograms, whose counters must stay
    /// monotonic for scrapers.
    void clear() noexcept {
        for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
        sum_.store(0, std::memory_order_relaxed);
        max_.store(0, std::memory_order_relaxed);
        ex_value_.store(0, std::memory_order_relaxed);
        ex_trace_.store(0, std::memory_order_relaxed);
    }

    [[nodiscard]] snapshot_t snapshot() const noexcept {
        snapshot_t s;
        for (std::size_t i = 0; i < kBuckets; ++i) {
            s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
            s.count += s.buckets[i];
        }
        s.sum = sum_.load(std::memory_order_relaxed);
        s.max = max_.load(std::memory_order_relaxed);
        s.p50 = s.quantile(0.50);
        s.p95 = s.quantile(0.95);
        s.p99 = s.quantile(0.99);
        return s;
    }

private:
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> max_{0};
    std::atomic<std::uint64_t> ex_value_{0};
    std::atomic<std::uint64_t> ex_trace_{0};
};

/// Named metric store. get_*() registers on first use and returns a
/// reference that stays valid for the registry's lifetime (metrics are
/// heap nodes; the map only holds pointers), so hot paths resolve names
/// once and never touch the mutex again. Calling get_* with a name that
/// exists as a different metric kind throws std::logic_error.
class registry {
public:
    counter& get_counter(const std::string& name, std::string help = "");
    gauge& get_gauge(const std::string& name, std::string help = "");
    latency_histogram& get_histogram(const std::string& name,
                                     std::string help = "");

    /// Labeled series: one sample line `family{labels} value` in the
    /// exposition, with the `# HELP`/`# TYPE` header emitted once per
    /// family. `labels` is the literal Prometheus label body, e.g.
    /// `disk="3"` — the caller formats it (and owns its validity).
    /// Series of one family are registered independently and rendered
    /// contiguously (map order); help is taken from the first series.
    counter& get_labeled_counter(const std::string& family,
                                 const std::string& labels,
                                 std::string help = "");
    gauge& get_labeled_gauge(const std::string& family,
                             const std::string& labels,
                             std::string help = "");

    /// Non-owning counter entry: the exposition reads `source` live as
    /// `family{labels}` (`family` alone when `labels` is empty) without
    /// copying it. `source` must outlive the registry. A link is a kind
    /// of its own: get_counter() on its name throws std::logic_error.
    void link_counter(const std::string& family, const std::string& labels,
                      const counter& source, std::string help = "");

    /// Prometheus-style text exposition of every registered metric, each
    /// family prefixed with `prefix` (default "liberation_"). Safe to call
    /// concurrently with metric updates (relaxed snapshot semantics).
    [[nodiscard]] std::string metrics_text(
        const std::string& prefix = "liberation_") const;

    /// Name → snapshot of every registered histogram, in name order.
    [[nodiscard]] std::vector<
        std::pair<std::string, latency_histogram::snapshot_t>>
    histogram_snapshots() const;

private:
    enum class kind { counter_k, link_k, gauge_k, histogram_k };
    struct entry {
        kind k;
        std::string help;
        /// Labeled series only: the family name and the label body. The
        /// map key is family + "{" + labels + "}", which keeps every
        /// series of a family contiguous in map order ('{' sorts after
        /// every identifier character).
        std::string family;
        std::string labels;
        std::unique_ptr<counter> c;
        std::unique_ptr<gauge> g;
        std::unique_ptr<latency_histogram> h;
        const counter* link = nullptr;

        [[nodiscard]] std::uint64_t count() const noexcept {
            return k == kind::link_k ? link->value() : c->value();
        }
    };

    entry& get_entry(const std::string& name, kind k, std::string help);
    /// `link` is the source of a link_k entry (null for the other kinds).
    entry& get_entry_impl(const std::string& name, const std::string& family,
                          const std::string& labels, kind k,
                          std::string help, const counter* link = nullptr);
    entry& get_labeled_entry(const std::string& family,
                             const std::string& labels, kind k,
                             std::string help, const counter* link = nullptr);

    mutable std::mutex mutex_;
    std::map<std::string, entry> metrics_;
};

/// One row of a layer's counter table: the registry name (a `_total`
/// family), its help text (which states the unit when it is not
/// "events"), and the field of the layer's typed stats struct that the
/// counter fills. Rows start with the quoted name on their own line:
/// tools/doc_check reads the names from there and requires each to be
/// documented in docs/STATS.md.
template <typename Stats>
struct counter_def {
    using stats_type = Stats;
    const char* name;
    const char* help;
    std::uint64_t Stats::*field;
};

/// The row of `table` that fills `field` (a compile error when used in a
/// constant expression and the field has no row).
template <typename Stats, std::size_t N>
constexpr const counter_def<Stats>& def_of(
    const counter_def<Stats> (&table)[N], std::uint64_t Stats::*field) {
    for (const counter_def<Stats>& d : table) {
        if (d.field == field) return d;
    }
    throw std::logic_error("obs::def_of: field has no counter row");
}

/// Add every counter field of `add` into `into` (roll-ups across shards
/// and across process generations).
template <typename Stats, std::size_t N>
void accumulate(const counter_def<Stats> (&table)[N], Stats& into,
                const Stats& add) noexcept {
    for (const counter_def<Stats>& d : table) into.*d.field += add.*d.field;
}

/// Handles to the counters of one table, resolved once from a registry
/// (optionally as one labeled series per row, e.g. `disk="3"`). The
/// registry owns the counters, so a set rebuilt over the same registry
/// continues the same series. at<&Stats::field>() is a compile-time row
/// lookup; snapshot() is the typed view: one relaxed load per row.
template <const auto& Table>
class counter_set {
public:
    using def_type = std::remove_cvref_t<decltype(Table[0])>;
    using stats_type = typename def_type::stats_type;

    explicit counter_set(registry& r, const std::string& labels = "") {
        for (std::size_t i = 0; i < kRows; ++i) {
            c_[i] = labels.empty()
                        ? &r.get_counter(Table[i].name, Table[i].help)
                        : &r.get_labeled_counter(Table[i].name, labels,
                                                 Table[i].help);
        }
    }

    template <auto Field>
    [[nodiscard]] counter& at() const noexcept {
        constexpr std::size_t i = &def_of(Table, Field) - std::begin(Table);
        return *c_[i];
    }
    template <auto Field>
    void inc(std::uint64_t n = 1) const noexcept {
        at<Field>().inc(n);
    }

    [[nodiscard]] stats_type snapshot() const noexcept {
        stats_type s{};
        for (std::size_t i = 0; i < kRows; ++i) {
            s.*Table[i].field = c_[i]->value();
        }
        return s;
    }

private:
    static constexpr std::size_t kRows = std::size(Table);
    std::array<counter*, kRows> c_{};
};

}  // namespace liberation::obs
