// Observability layer: histogram bucket math and quantiles, registry
// kind/reference semantics, the Prometheus text exposition and Chrome
// trace JSON golden formats, tracer ring bounding, and the deterministic
// virtual-clock latency contracts — retry backoff surfaces in the
// io_read_ns tail, and submission-queue depth changes the aio completion
// spans while execute spans stay put.
//
// The snapshot-under-concurrency hammers are the TSan targets
// (ctest under the `tsan` preset): exporters snapshot while writers
// mutate, which must stay a data-race-free protocol.
//
// The deep-telemetry additions live here too: the causal-tree acceptance
// test (one host read through a 2-shard volume with a retry renders as
// one connected parent chain in the merged trace), ring-wrap disclosure,
// the flight recorder's wait-free ring, exact SLO window math on the
// virtual clock, the scrape endpoint, and postmortem bundles.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "liberation/aio/queue_pair.hpp"
#include "liberation/obs/flight_recorder.hpp"
#include "liberation/obs/obs.hpp"
#include "liberation/obs/postmortem.hpp"
#include "liberation/obs/serve.hpp"
#include "liberation/obs/slo.hpp"
#include "liberation/raid/array.hpp"
#include "liberation/raid/io_policy.hpp"
#include "liberation/util/rng.hpp"
#include "liberation/volume/volume.hpp"

namespace {

using namespace liberation;

// ---- histogram -------------------------------------------------------

TEST(ObsHistogram, BucketMath) {
    using h = obs::latency_histogram;
    EXPECT_EQ(h::bucket_of(0), 0u);
    EXPECT_EQ(h::bucket_of(1), 0u);
    EXPECT_EQ(h::bucket_of(2), 1u);
    EXPECT_EQ(h::bucket_of(3), 1u);
    EXPECT_EQ(h::bucket_of(4), 2u);
    EXPECT_EQ(h::bucket_of(1023), 9u);
    EXPECT_EQ(h::bucket_of(1024), 10u);
    EXPECT_EQ(h::bucket_of(~std::uint64_t{0}), h::kBuckets - 1);
    // bucket_upper is the exclusive top: every value lands strictly below
    // its bucket's reported quantile value.
    for (const std::uint64_t v : {1u, 2u, 100u, 4096u, 1000000u}) {
        EXPECT_LT(v, h::bucket_upper(h::bucket_of(v)));
        EXPECT_GE(v, std::uint64_t{1} << h::bucket_of(v));
    }
    EXPECT_EQ(h::bucket_upper(h::kBuckets - 1), ~std::uint64_t{0});
}

TEST(ObsHistogram, RecordAndQuantiles) {
    obs::latency_histogram h;
    // 89 fast samples, 9 medium, 2 slow: p50 in the fast bucket, p95 in
    // the medium one, p99 covering the slow tail (quantiles report the
    // smallest bucket upper bound covering at least round(q*count)
    // samples, so the tail must hold more than 1% to move p99).
    for (int i = 0; i < 89; ++i) h.record(100);     // bucket 6, upper 128
    for (int i = 0; i < 9; ++i) h.record(10'000);   // bucket 13, upper 16384
    h.record(1'000'000);                            // bucket 19, upper 2^20
    h.record(1'000'000);
    const auto s = h.snapshot();
    EXPECT_EQ(s.count, 100u);
    EXPECT_EQ(s.sum, 89u * 100 + 9u * 10'000 + 2u * 1'000'000);
    EXPECT_EQ(s.max, 1'000'000u);
    EXPECT_EQ(s.p50, 128u);
    EXPECT_EQ(s.p95, 16'384u);
    EXPECT_EQ(s.p99, std::uint64_t{1} << 20);
    EXPECT_EQ(s.quantile(1.0), std::uint64_t{1} << 20);
}

TEST(ObsHistogram, EmptySnapshotIsZero) {
    const auto s = obs::latency_histogram{}.snapshot();
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.p50, 0u);
    EXPECT_EQ(s.p99, 0u);
    EXPECT_EQ(s.max, 0u);
}

// ---- registry --------------------------------------------------------

TEST(ObsRegistry, StableReferencesAndKindMismatch) {
    obs::registry r;
    obs::counter& c1 = r.get_counter("ops_total", "ops");
    obs::counter& c2 = r.get_counter("ops_total");
    EXPECT_EQ(&c1, &c2);  // same heap node on re-registration
    c1.inc(3);
    EXPECT_EQ(c2.value(), 3u);
    EXPECT_THROW((void)r.get_gauge("ops_total"), std::logic_error);
    EXPECT_THROW((void)r.get_histogram("ops_total"), std::logic_error);
}

TEST(ObsRegistry, MetricsTextGoldenFormat) {
    obs::registry r;
    r.get_gauge("depth").set(-2);
    obs::latency_histogram& h = r.get_histogram("lat_ns", "op latency");
    h.record(100);
    h.record(100);
    r.get_counter("ops_total", "ops completed").inc(7);
    // Families render in name order with the export prefix; histograms as
    // summaries with quantile labels plus _sum/_count and a _max gauge.
    const std::string expect =
        "# TYPE liberation_depth gauge\n"
        "liberation_depth -2\n"
        "# HELP liberation_lat_ns op latency\n"
        "# TYPE liberation_lat_ns summary\n"
        "liberation_lat_ns{quantile=\"0.5\"} 128\n"
        "liberation_lat_ns{quantile=\"0.95\"} 128\n"
        "liberation_lat_ns{quantile=\"0.99\"} 128\n"
        "liberation_lat_ns_sum 200\n"
        "liberation_lat_ns_count 2\n"
        "# TYPE liberation_lat_ns_max gauge\n"
        "liberation_lat_ns_max 100\n"
        "# HELP liberation_ops_total ops completed\n"
        "# TYPE liberation_ops_total counter\n"
        "liberation_ops_total 7\n";
    EXPECT_EQ(r.metrics_text(), expect);
}

TEST(ObsHub, CollectorRunsBeforeExport) {
    obs::hub h;
    std::atomic<std::int64_t> source{41};
    h.add_collector([&] {
        h.metrics().get_gauge("sampled")
            .set(source.load(std::memory_order_relaxed));
    });
    source.store(42);
    const std::string text = h.metrics_text();
    EXPECT_NE(text.find("liberation_sampled 42\n"), std::string::npos);
}

TEST(ObsHub, MergedMetricsDeclareEachFamilyOnce) {
    obs::hub top;
    obs::hub s0;
    obs::hub s1;
    top.metrics().get_counter("ops_total", "ops").inc(3);
    s0.metrics().get_counter("ops_total", "ops").inc(1);
    s1.metrics().get_labeled_counter("disk_errors_total", "disk=\"2\"", "errs")
        .inc(5);
    s1.metrics().get_histogram("read_ns", "reads").record(100);
    const std::string text = obs::merged_metrics_text(
        {{"", &top}, {"shard=\"0\"", &s0}, {"shard=\"1\"", &s1}});

    const auto count = [&text](const std::string& what) {
        std::size_t n = 0;
        for (std::size_t p = text.find(what); p != std::string::npos;
             p = text.find(what, p + 1)) {
            ++n;
        }
        return n;
    };
    // One header per family, however many hubs carry it.
    EXPECT_EQ(count("# TYPE liberation_ops_total counter\n"), 1u);
    EXPECT_EQ(count("# HELP liberation_ops_total ops\n"), 1u);
    EXPECT_EQ(count("# TYPE liberation_obs_spans_dropped_total counter\n"), 1u);
    // The unlabelled part keeps its samples; shard parts gain shard="s",
    // in front of any labels the series already had.
    EXPECT_NE(text.find("liberation_ops_total 3\n"), std::string::npos);
    EXPECT_NE(text.find("liberation_ops_total{shard=\"0\"} 1\n"),
              std::string::npos);
    EXPECT_NE(
        text.find("liberation_disk_errors_total{shard=\"1\",disk=\"2\"} 5\n"),
        std::string::npos);
    EXPECT_NE(text.find("liberation_read_ns{shard=\"1\",quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(text.find("liberation_read_ns_count{shard=\"1\"} 1\n"),
              std::string::npos);
    // Samples follow their family's header.
    EXPECT_LT(text.find("# TYPE liberation_ops_total counter\n"),
              text.find("liberation_ops_total{shard=\"0\"} 1\n"));
}

// ---- exported series set --------------------------------------------

/// "family type" of every `# TYPE` line of an exposition, in order.
std::vector<std::string> exposed_families(const std::string& text) {
    const std::string tag = "# TYPE liberation_";
    std::vector<std::string> out;
    for (std::size_t pos = text.find(tag); pos != std::string::npos;
         pos = text.find(tag, pos + 1)) {
        const std::size_t begin = pos + tag.size();
        out.push_back(text.substr(begin, text.find('\n', begin) - begin));
    }
    return out;
}

// The family set a scraper sees is an interface: this pins it for an
// array hub and a 2-shard volume hub, so a counter can neither vanish
// from the exposition nor appear in it unnoticed.
TEST(ObsSeries, ArrayAndVolumeHubFamiliesArePinned) {
    raid::raid6_array a(raid::array_config{});
    const std::vector<std::string> array_families = {
        "aio_batches_total counter",
        "aio_complete_ns summary",
        "aio_complete_ns_max gauge",
        "aio_completed_total counter",
        "aio_execute_ns summary",
        "aio_execute_ns_max gauge",
        "aio_inflight_highwater gauge",
        "aio_merges_total counter",
        "aio_queue_wait_ns summary",
        "aio_queue_wait_ns_max gauge",
        "aio_split_retries_total counter",
        "aio_submitted_total counter",
        "disk_deadline_misses_total counter",
        "disk_hard_errors_total counter",
        "disk_hedged_reads_total counter",
        "disk_slow_trips_total counter",
        "disk_transient_errors_total counter",
        "io_backoff_us_total counter",
        "io_read_ns summary",
        "io_read_ns_max gauge",
        "io_reads_total counter",
        "io_retries_total counter",
        "io_write_ns summary",
        "io_write_ns_max gauge",
        "io_writes_total counter",
        "obs_spans_dropped_total counter",
        "raid_checksum_metadata_repaired_total counter",
        "raid_checksum_mismatches_total counter",
        "raid_corrupt_columns_healed_total counter",
        "raid_deadline_exceeded_total counter",
        "raid_degraded_element_reads_total counter",
        "raid_degraded_stripe_reads_total counter",
        "raid_disks_tripped_total counter",
        "raid_failed_disks gauge",
        "raid_full_stripe_writes_total counter",
        "raid_hedge_delay_ns summary",
        "raid_hedge_delay_ns_max gauge",
        "raid_hedge_wins_total counter",
        "raid_hedged_reads_total counter",
        "raid_intent_log_entries gauge",
        "raid_intent_replayed_total counter",
        "raid_media_errors_recovered_total counter",
        "raid_mount_ns summary",
        "raid_mount_ns_max gauge",
        "raid_parity_elements_updated_total counter",
        "raid_read_ns summary",
        "raid_read_ns_max gauge",
        "raid_reads_self_healed_total counter",
        "raid_reads_unrecoverable_total counter",
        "raid_rebuild_sessions_stalled_total counter",
        "raid_rebuild_stripes_failed_total counter",
        "raid_rebuild_stripes_remaining gauge",
        "raid_rebuild_window_ns summary",
        "raid_rebuild_window_ns_max gauge",
        "raid_rebuilds_completed_total counter",
        "raid_retries_exhausted_total counter",
        "raid_scrub_bytes_crosscheck_total counter",
        "raid_scrub_bytes_single_pass_total counter",
        "raid_scrub_stripe_ns summary",
        "raid_scrub_stripe_ns_max gauge",
        "raid_slow_recoveries_total counter",
        "raid_slow_routed_reads_total counter",
        "raid_slow_trips_total counter",
        "raid_small_writes_total counter",
        "raid_spares_available gauge",
        "raid_spares_promoted_total counter",
        "raid_stale_disks_kicked_total counter",
        "raid_transient_errors_masked_total counter",
        "raid_write_full_stripe_ns summary",
        "raid_write_full_stripe_ns_max gauge",
        "raid_write_small_ns summary",
        "raid_write_small_ns_max gauge",
        "raid_writes_rejected_log_full_total counter",
    };
    EXPECT_EQ(exposed_families(a.obs().metrics_text()), array_families);

    volume::volume_config vc;
    vc.shards = 2;
    volume::volume v(vc);
    const std::vector<std::string> volume_families = {
        "obs_spans_dropped_total counter",
        "shard_checksum_mismatches_total counter",
        "shard_degraded_stripe_reads_total counter",
        "shard_failed_disks gauge",
        "shard_full_stripe_writes_total counter",
        "shard_rebuild_stripes_remaining gauge",
        "shard_rebuilds_completed_total counter",
        "shard_small_writes_total counter",
        "shard_spares_promoted_total counter",
        "volume_chunks_routed_total counter",
        "volume_failed_reads_total counter",
        "volume_failed_writes_total counter",
        "volume_multi_shard_ops_total counter",
        "volume_read_ns summary",
        "volume_read_ns_max gauge",
        "volume_reads_total counter",
        "volume_write_ns summary",
        "volume_write_ns_max gauge",
        "volume_writes_total counter",
    };
    const std::string text = v.obs().metrics_text();
    EXPECT_EQ(exposed_families(text), volume_families);
    // Every per-shard counter family has one series per shard.
    for (const char* series :
         {"liberation_shard_full_stripe_writes_total{shard=\"0\"} 0\n",
          "liberation_shard_full_stripe_writes_total{shard=\"1\"} 0\n"}) {
        EXPECT_NE(text.find(series), std::string::npos) << series;
    }
}

TEST(ObsRegistry, LinkedCounterIsReadLiveAndReadOnly) {
    obs::registry source;
    obs::counter& c = source.get_counter("ops_total", "ops");
    obs::registry r;
    r.link_counter("part_ops_total", "part=\"0\"", c, "ops per part");
    c.inc(5);
    const std::string text = r.metrics_text();
    EXPECT_NE(text.find("liberation_part_ops_total{part=\"0\"} 5\n"),
              std::string::npos);
    EXPECT_THROW((void)r.get_labeled_counter("part_ops_total", "part=\"0\""),
                 std::logic_error);
}

// ---- tracer ----------------------------------------------------------

TEST(ObsTracer, BoundedRingKeepsFreshestAndOrders) {
    obs::tracer t(4);
    t.enable();
    // 10 events through a 4-slot ring: only the last 4 survive, ordered.
    for (std::uint64_t i = 0; i < 10; ++i) t.record("e", "t", 100 - i, 1);
    EXPECT_EQ(t.size(), 4u);
    const auto events = t.ordered();
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 1; i < events.size(); ++i) {
        EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
    }
    // Timestamps descended 100..91, so the freshest four are ts 91..94.
    EXPECT_EQ(events.front().ts_ns, 91u);
    EXPECT_EQ(events.back().ts_ns, 94u);
    t.clear();
    EXPECT_EQ(t.size(), 0u);
}

TEST(ObsTracer, TraceJsonGoldenFormat) {
    obs::tracer t;
    t.record("raid.write", "raid", 1500, 2250);
    const std::string json = t.trace_json();
    // Chrome trace_event complete-events: ts/dur in microseconds with the
    // nanosecond remainder as fractions. (The tid is this thread's
    // process-wide registration number, so only everything up to it is
    // golden-comparable.)
    const std::string prefix =
        "{\"traceEvents\":[{\"name\":\"raid.write\",\"cat\":\"raid\","
        "\"ph\":\"X\",\"ts\":1.500,\"dur\":2.250,\"pid\":1,\"tid\":";
    ASSERT_GE(json.size(), prefix.size());
    EXPECT_EQ(json.substr(0, prefix.size()), prefix);
    EXPECT_EQ(json.substr(json.size() - 3), "}]}");
}

// ---- virtual-clock spans --------------------------------------------

TEST(ObsSpan, VirtualClockSpanIsExact) {
    raid::virtual_clock clock;
    obs::hub h;
    h.set_clock(&raid::virtual_clock_now_ns, &clock);
    obs::latency_histogram& hist = h.metrics().get_histogram("span_ns");
    {
        obs::timed_span span(h, &hist, "test.span");
        clock.advance(123);  // microseconds
    }
    const auto s = hist.snapshot();
    EXPECT_EQ(s.count, 1u);
    EXPECT_EQ(s.sum, 123'000u);
    EXPECT_EQ(s.max, 123'000u);
}

// Retry backoff is the only thing that advances an array's virtual clock,
// so on a virtual-time hub a mediated read's span IS its backoff: the
// distribution is exactly "zero for clean reads, the exponential-backoff
// schedule for retried ones", and the retry tail surfaces in p99 while
// p50 stays in the zero bucket. The histogram's total must equal the
// policy's own backoff accounting converted to nanoseconds.
TEST(ObsArray, RetryBackoffVisibleInReadTail) {
    raid::array_config cfg;
    cfg.k = 4;
    cfg.element_size = 512;
    cfg.stripes = 8;
    cfg.sector_size = 512;
    cfg.io_queue_depth = 1;
    cfg.obs_virtual_time = true;
    raid::raid6_array a(cfg);

    std::vector<std::byte> image(a.capacity());
    util::xoshiro256 rng(7);
    rng.fill(image);
    ASSERT_TRUE(a.write(0, image));  // clean fill: no faults armed yet

    for (std::uint32_t d = 0; d < a.disk_count(); ++d) {
        a.disk(d).set_transient_fault_rates(0.3, 0.0, 1000 + d);
    }
    std::vector<std::byte> buf(a.map().stripe_data_size());
    for (int i = 0; i < 200; ++i) {
        const std::size_t addr =
            rng.next_below(a.capacity() - buf.size() + 1);
        ASSERT_TRUE(a.read(addr, buf));
    }

    const raid::io_policy_stats io = a.io_stats();
    ASSERT_GT(io.retries, 0u);
    const auto hists = a.obs().histogram_snapshots();
    const obs::latency_histogram::snapshot_t* read_hist = nullptr;
    for (const auto& [name, snap] : hists) {
        if (name == "io_read_ns") read_hist = &snap;
    }
    ASSERT_NE(read_hist, nullptr);
    EXPECT_GT(read_hist->count, 0u);
    // Every nanosecond in the read histogram is backoff, and all backoff
    // was charged by reads (write fault rate is zero after the fill).
    EXPECT_EQ(read_hist->sum, io.backoff_us * 1000);
    // Most mediated reads never retried: the median sits in the zero
    // bucket. The first retry waits initial_backoff_us = 100us, so the
    // tail quantile must report at least that bucket's upper bound.
    EXPECT_LE(read_hist->p50, 2u);
    EXPECT_GE(read_hist->p99, obs::latency_histogram::bucket_upper(
                                  obs::latency_histogram::bucket_of(100'000)));
    EXPECT_GE(read_hist->max, 100'000u);
}

// ---- aio stage latencies --------------------------------------------

// Backend that charges a fixed virtual service time per transfer.
class metered_backend : public aio::io_backend {
public:
    metered_backend(raid::virtual_clock& clock, std::uint64_t us)
        : clock_(clock), us_(us) {}
    raid::io_status execute(const aio::io_desc&) override {
        clock_.advance(us_);
        return raid::io_status::ok;
    }

private:
    raid::virtual_clock& clock_;
    std::uint64_t us_;
};

// Submit-to-completion latency depends on the in-flight window while
// execute latency does not: at depth 1 every request runs the moment it
// is submitted, at depth 8 the last request of a window waits behind
// seven 10us transfers. Deterministic on the virtual clock.
TEST(ObsAio, QueueDepthShapesCompletionSpans) {
    const auto run = [](std::size_t depth) {
        raid::virtual_clock clock;
        obs::hub hub;
        hub.set_clock(&raid::virtual_clock_now_ns, &clock);
        metered_backend backend(clock, 10);  // 10us per transfer
        aio::aio_config cfg;
        cfg.queue_depth = depth;
        cfg.obs = &hub;
        aio::queue_pair qp(backend, /*disks=*/1, cfg);
        std::byte block[16] = {};
        for (int i = 0; i < 8; ++i) {
            aio::io_desc d;
            d.disk = 0;
            d.kind = aio::op_kind::write;  // writes never coalesce
            d.offset = static_cast<std::size_t>(i) * sizeof block;
            d.data = block;
            d.len = sizeof block;
            qp.submit(d);
        }
        qp.drain();
        obs::latency_histogram::snapshot_t complete{}, execute{};
        for (const auto& [name, snap] : hub.histogram_snapshots()) {
            if (name == "aio_complete_ns") complete = snap;
            if (name == "aio_execute_ns") execute = snap;
        }
        return std::pair{complete, execute};
    };

    const auto [complete1, execute1] = run(1);
    const auto [complete8, execute8] = run(8);
    ASSERT_EQ(complete1.count, 8u);
    ASSERT_EQ(complete8.count, 8u);
    // Execute cost is 10us per transfer regardless of depth.
    EXPECT_EQ(execute1.max, 10'000u);
    EXPECT_EQ(execute8.max, 10'000u);
    // Depth 1: completion == its own transfer. Depth 8: the window's last
    // request completes after all eight transfers.
    EXPECT_EQ(complete1.max, 10'000u);
    EXPECT_EQ(complete8.max, 80'000u);
    EXPECT_EQ(complete8.sum, (10 + 20 + 30 + 40 + 50 + 60 + 70 + 80) * 1000u);
    EXPECT_GT(complete8.p50, complete1.p50);
}

// ---- snapshot coherence under concurrency (TSan target) -------------

// One thread mutates an array (writes, reads, a failure + rebuild) while
// another continuously snapshots every exporter surface. The contract
// (docs/STATS.md): individually-exact relaxed counters, no torn values,
// no data races — TSan proves the last part when run under the `tsan`
// preset.
TEST(ObsConcurrency, SnapshotWhileMutatingHammer) {
    raid::array_config cfg;
    cfg.k = 4;
    cfg.element_size = 512;
    cfg.stripes = 16;
    cfg.sector_size = 512;
    cfg.hot_spares = 1;
    raid::raid6_array a(cfg);
    std::vector<std::byte> image(a.capacity());
    util::xoshiro256 rng(11);
    rng.fill(image);
    ASSERT_TRUE(a.write(0, image));

    std::atomic<bool> stop{false};
    std::thread sampler([&] {
        std::uint64_t last_writes = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            const raid::array_stats s = a.stats();
            // Each counter is individually monotonic across snapshots.
            EXPECT_GE(s.full_stripe_writes, last_writes);
            last_writes = s.full_stripe_writes;
            const std::string text = a.obs().metrics_text();
            EXPECT_NE(text.find("liberation_raid_full_stripe_writes_total"),
                      std::string::npos);
            (void)a.obs().histogram_snapshots();
        }
    });

    std::vector<std::byte> buf(a.map().stripe_data_size());
    for (int i = 0; i < 400; ++i) {
        const std::size_t addr =
            rng.next_below(a.capacity() - buf.size() + 1);
        if (i % 3 == 0) {
            rng.fill(buf);
            ASSERT_TRUE(a.write(addr, buf));
        } else {
            ASSERT_TRUE(a.read(addr, buf));
        }
        if (i == 200) a.fail_disk(2);  // spare promotion + rebuild traffic
    }
    a.drain_background_rebuild();
    stop.store(true);
    sampler.join();

    // The sampler saw live values; the final snapshot must reconcile.
    const raid::array_stats end = a.stats();
    EXPECT_GE(end.spares_promoted, 1u);
    EXPECT_GE(end.rebuilds_completed, 1u);
}

// ---- causal trace context -------------------------------------------

// One exported span with its (trace, span, parent) args, pulled out of
// the fixed snprintf rendering — no JSON library needed.
struct parsed_span {
    std::string name;
    std::uint64_t trace = 0;
    std::uint64_t span = 0;
    std::uint64_t parent = 0;
    bool has_ctx = false;
};

std::vector<parsed_span> parse_ctx_spans(const std::string& json) {
    std::vector<parsed_span> out;
    std::size_t pos = 0;
    while ((pos = json.find("{\"name\":\"", pos)) != std::string::npos) {
        const std::size_t name_begin = pos + 9;
        const std::size_t name_end = json.find('"', name_begin);
        std::size_t next = json.find("{\"name\":\"", name_begin);
        if (next == std::string::npos) next = json.size();
        parsed_span s;
        s.name = json.substr(name_begin, name_end - name_begin);
        const std::string chunk = json.substr(pos, next - pos);
        const std::size_t a = chunk.find("\"args\":{\"trace\":\"");
        if (a != std::string::npos &&
            chunk.find("\"ph\":\"X\"") != std::string::npos) {
            s.has_ctx = true;
            s.trace = std::strtoull(chunk.c_str() + a + 17, nullptr, 10);
            const std::size_t sp = chunk.find("\"span\":\"", a);
            s.span = std::strtoull(chunk.c_str() + sp + 8, nullptr, 10);
            const std::size_t pa = chunk.find("\"parent\":\"", a);
            s.parent = std::strtoull(chunk.c_str() + pa + 10, nullptr, 10);
        }
        out.push_back(std::move(s));
        pos = next;
    }
    return out;
}

// The acceptance contract for the deep-telemetry layer: a host read
// through a 2-shard volume whose degraded shard retries inside an aio
// fragment must render as ONE connected causal tree in the merged trace
// — io.retry.read up through aio.execute, the array read span, the
// dispatcher leg, to a volume_read root with parent 0, all sharing the
// retry's trace id.
TEST(ObsTrace, CausalTreeConnectsVolumeReadToAioRetry) {
    volume::volume_config vcfg;
    vcfg.shards = 2;
    vcfg.shard.k = 4;
    vcfg.shard.element_size = 512;
    vcfg.shard.stripes = 8;
    vcfg.shard.sector_size = 512;
    vcfg.shard.hot_spares = 0;  // stay degraded: no spare to promote
    vcfg.shard.io_queue_depth = 4;
    vcfg.shard.obs_virtual_time = true;
    vcfg.chunk_stripes = 1;
    vcfg.threaded_dispatch = true;
    volume::volume v(vcfg);

    std::vector<std::byte> image(v.capacity());
    util::xoshiro256 rng(21);
    rng.fill(image);
    ASSERT_TRUE(v.write(0, image));

    v.set_tracing(true);
    // Shard 0 degraded plus transient read faults on the survivors:
    // every read of it reconstructs through the aio engine and soon
    // retries inside a fragment.
    v.shard(0).fail_disk(1);
    for (std::uint32_t d = 0; d < v.shard(0).disk_count(); ++d) {
        v.shard(0).disk(d).set_transient_fault_rates(0.15, 0.0, 500 + d);
    }

    // Two chunks = both shards: the host op fans out on the dispatcher
    // threads, so the tree crosses a thread hop on its way down.
    std::vector<std::byte> buf(2 * v.chunk_bytes());
    for (int i = 0; i < 300 && v.shard(0).io_stats().retries == 0; ++i) {
        (void)v.read(0, buf);
    }
    ASSERT_GT(v.shard(0).io_stats().retries, 0u);

    const std::string json = v.trace_json();
    const std::vector<parsed_span> spans = parse_ctx_spans(json);
    std::unordered_map<std::uint64_t, const parsed_span*> by_span;
    for (const parsed_span& s : spans) {
        if (s.has_ctx && s.span != 0) by_span.emplace(s.span, &s);
    }

    bool found = false;
    for (const parsed_span& s : spans) {
        if (!s.has_ctx || s.name != "io.retry.read") continue;
        bool saw_aio = false;
        bool saw_raid = false;
        bool saw_dispatch = false;
        const parsed_span* cur = &s;
        std::string root_name;
        for (int hops = 0; hops < 32 && cur->parent != 0; ++hops) {
            const auto it = by_span.find(cur->parent);
            if (it == by_span.end()) break;
            EXPECT_EQ(it->second->trace, s.trace);  // one tree end to end
            cur = it->second;
            if (cur->name == "aio.execute") saw_aio = true;
            if (cur->name.rfind("raid.", 0) == 0) saw_raid = true;
            if (cur->name == "volume.shard_dispatch") saw_dispatch = true;
            root_name = cur->name;
        }
        if (saw_aio && saw_raid && saw_dispatch && cur->parent == 0 &&
            root_name == "volume_read") {
            found = true;
            break;
        }
    }
    EXPECT_TRUE(found);
    // The merged export names both processes.
    EXPECT_NE(json.find("\\\"0\\\""), std::string::npos);
    EXPECT_NE(json.find("volume"), std::string::npos);
}

// ---- ring-wrap disclosure -------------------------------------------

TEST(ObsTracer, RingWrapDisclosedInTraceAndCounter) {
    obs::hub h;
    h.trace().enable();
    // One thread = one ring of the default 8192 slots: 9000 records wrap
    // it by exactly 808.
    for (std::uint64_t i = 0; i < 9000; ++i) {
        h.trace().record("e", "t", i, 1);
    }
    EXPECT_EQ(h.trace().dropped(), 808u);
    const std::string json = h.trace().trace_json();
    EXPECT_NE(json.find("obs.spans_dropped"), std::string::npos);
    EXPECT_NE(json.find("\"dropped\":808"), std::string::npos);
    const std::string text = h.metrics_text();
    EXPECT_NE(text.find("liberation_obs_spans_dropped_total 808"),
              std::string::npos);
    // clear() empties the rings; the exported counter stays monotonic.
    h.trace().clear();
    EXPECT_EQ(h.trace().dropped(), 0u);
    EXPECT_NE(h.metrics_text().find("liberation_obs_spans_dropped_total 808"),
              std::string::npos);
}

// ---- flight recorder ------------------------------------------------

TEST(ObsFlightRecorder, WrapKeepsNewestInOrder) {
    auto& fr = obs::flight_recorder::instance();
    fr.reset();
    const std::uint64_t n = obs::flight_recorder::kCapacity + 100;
    for (std::uint64_t i = 0; i < n; ++i) {
        fr.record(obs::fr_kind::intent_mark, i, 7, i);
    }
    EXPECT_EQ(fr.total(), n);
    EXPECT_EQ(fr.dropped(), 100u);
    const std::vector<obs::fr_record> snap = fr.snapshot();
    ASSERT_EQ(snap.size(), obs::flight_recorder::kCapacity);
    // The oldest 100 fell off; what's left is gapless and ordered.
    EXPECT_EQ(snap.front().ts_ns, 100u);
    EXPECT_EQ(snap.back().ts_ns, n - 1);
    for (std::size_t i = 1; i < snap.size(); ++i) {
        EXPECT_EQ(snap[i].ts_ns, snap[i - 1].ts_ns + 1);
    }
    EXPECT_EQ(snap.front().a, 7u);
    EXPECT_EQ(snap.front().kind, obs::fr_kind::intent_mark);
    EXPECT_NE(fr.text().find("intent_mark"), std::string::npos);
    fr.reset();
    EXPECT_EQ(fr.total(), 0u);
}

TEST(ObsFlightRecorder, CapturesAmbientTraceId) {
    auto& fr = obs::flight_recorder::instance();
    fr.reset();
    {
        obs::trace_scope scope(obs::trace_context{777, 9});
        fr.record(obs::fr_kind::disk_tripped, 1, 2);
    }
    fr.record(obs::fr_kind::disk_tripped, 2, 3);
    const auto snap = fr.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].trace_id, 777u);
    EXPECT_EQ(snap[1].trace_id, 0u);
    fr.reset();
}

// ---- SLO window math ------------------------------------------------

TEST(ObsSlo, WindowMathExactOnVirtualClock) {
    raid::virtual_clock clock;
    obs::hub h;
    h.set_clock(&raid::virtual_clock_now_ns, &clock);
    obs::latency_histogram& lat = h.metrics().get_histogram("read_ns");
    obs::counter& errs = h.metrics().get_counter("errs_total");
    obs::counter& ops = h.metrics().get_counter("ops_total");

    std::vector<obs::slo_objective> objs(2);
    objs[0].name = "read_p99";
    objs[0].kind = obs::slo_objective::kind_t::latency_quantile;
    objs[0].source = "read_ns";
    objs[0].threshold_ns = 1024;  // buckets through upper 1024 are good
    objs[0].budget = 0.25;
    objs[1].name = "err_rate";
    objs[1].kind = obs::slo_objective::kind_t::event_ratio;
    objs[1].source = "errs_total";
    objs[1].denominator = "ops_total";
    objs[1].budget = 0.0;  // any error pages

    obs::slo_engine slo(h, objs, /*window_ns=*/1'000'000);
    ops.inc(10);
    slo.evaluate();  // first frame is the baseline: nothing can violate
    EXPECT_TRUE(slo.all_ok());
    EXPECT_FALSE(slo.ever_violated());

    // 3 good + 1 bad = bad fraction exactly at the 0.25 budget: burn
    // rate 1.0 is *at* budget, not over it.
    for (int i = 0; i < 3; ++i) lat.record(100);
    lat.record(10'000);
    ops.inc(10);
    clock.advance(100);  // microseconds
    const auto& s2 = slo.evaluate();
    EXPECT_EQ(s2[0].window_total, 4u);
    EXPECT_EQ(s2[0].window_bad, 1u);
    EXPECT_DOUBLE_EQ(s2[0].burn_rate, 1.0);
    EXPECT_FALSE(s2[0].violated);
    EXPECT_EQ(s2[1].window_total, 10u);
    EXPECT_EQ(s2[1].window_bad, 0u);
    EXPECT_FALSE(slo.ever_violated());

    // One more bad sample tips it: 2/5 bad against a 0.25 budget burns
    // at 1.6; one error against a zero budget pages immediately.
    lat.record(10'000);
    errs.inc(1);
    ops.inc(10);
    clock.advance(100);
    const auto& s3 = slo.evaluate();
    EXPECT_EQ(s3[0].window_total, 5u);
    EXPECT_EQ(s3[0].window_bad, 2u);
    EXPECT_DOUBLE_EQ(s3[0].burn_rate, 0.4 / 0.25);
    EXPECT_TRUE(s3[0].violated);
    EXPECT_EQ(s3[1].window_bad, 1u);
    EXPECT_TRUE(s3[1].violated);
    EXPECT_TRUE(slo.ever_violated());
    EXPECT_FALSE(slo.all_ok());

    // Slide past the window with no new traffic: the burn clears but the
    // sticky verdict does not.
    clock.advance(2000);
    const auto& s4 = slo.evaluate();
    EXPECT_EQ(s4[0].window_total, 0u);
    EXPECT_FALSE(s4[0].violated);
    EXPECT_FALSE(s4[1].violated);
    EXPECT_TRUE(slo.all_ok());
    EXPECT_TRUE(slo.ever_violated());

    const std::string text = h.metrics_text();
    EXPECT_NE(
        text.find("liberation_slo_burn_rate_milli{objective=\"read_p99\"}"),
        std::string::npos);
    EXPECT_NE(text.find("liberation_slo_violated{objective=\"err_rate\"} 0"),
              std::string::npos);
    EXPECT_NE(slo.text().find("slo read_p99:"), std::string::npos);
}

// ---- multi-writer hammer (TSan target) ------------------------------

// Four threads append to the flight recorder and the tracer while the
// main thread snapshots, renders, and exports everything. TSan (the
// `tsan` ctest preset) proves the wait-free ring protocol and the tracer
// flush stay race-free; release builds assert the structural invariants.
TEST(ObsConcurrency, FlightRecorderAndTracerHammer) {
    auto& fr = obs::flight_recorder::instance();
    fr.reset();
    obs::hub h;
    h.trace().enable();

    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < 4; ++w) {
        writers.emplace_back([&h, &fr, &stop, w] {
            std::uint64_t i = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                fr.record(obs::fr_kind::hedge_issued, ++i,
                          static_cast<std::uint32_t>(w));
                obs::timed_span span(h, nullptr, "hammer.span", "test");
                h.trace().record("hammer.leaf", "test", i, 0);
            }
        });
    }
    // Keep reading until the writers have wrapped the ring at least once,
    // so snapshots race live overwrites, not a quiet buffer.
    for (int r = 0;
         r < 100 || fr.total() <= obs::flight_recorder::kCapacity; ++r) {
        const auto snap = fr.snapshot();
        EXPECT_LE(snap.size(), obs::flight_recorder::kCapacity);
        for (const obs::fr_record& rec : snap) {
            EXPECT_EQ(rec.kind, obs::fr_kind::hedge_issued);
            EXPECT_LT(rec.a, 4u);
        }
        (void)fr.text();
        (void)h.trace().trace_json();
        (void)h.metrics_text();
    }
    stop.store(true);
    for (std::thread& t : writers) t.join();
    EXPECT_GT(fr.total(), 0u);
    fr.reset();
}

// ---- scrape endpoint ------------------------------------------------

std::string http_get(std::uint16_t port, const std::string& path) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return {};
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        return {};
    }
    const std::string req =
        "GET " + path + " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
    ssize_t off = 0;
    while (off < static_cast<ssize_t>(req.size())) {
        const ssize_t n = ::write(fd, req.data() + off, req.size() - off);
        if (n <= 0) break;
        off += n;
    }
    std::string resp;
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::read(fd, buf, sizeof buf)) > 0) {
        resp.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return resp;
}

TEST(ObsServe, RoutesAndBoundedServe) {
    obs::scrape_handlers handlers;
    handlers.metrics = [] {
        return std::string("# TYPE liberation_up gauge\nliberation_up 1\n");
    };
    handlers.trace = [] { return std::string("{\"traceEvents\":[]}"); };
    obs::scrape_server srv;
    ASSERT_TRUE(srv.listen(0, handlers));  // kernel-assigned port
    ASSERT_NE(srv.port(), 0);
    std::thread server([&srv] { EXPECT_EQ(srv.serve(4), 4u); });

    const std::string m = http_get(srv.port(), "/metrics");
    EXPECT_NE(m.find("200"), std::string::npos);
    EXPECT_NE(m.find("liberation_up 1"), std::string::npos);
    const std::string hz = http_get(srv.port(), "/healthz");
    EXPECT_NE(hz.find("ok"), std::string::npos);  // default handler
    const std::string tr = http_get(srv.port(), "/trace");
    EXPECT_NE(tr.find("traceEvents"), std::string::npos);
    const std::string nf = http_get(srv.port(), "/nope");
    EXPECT_NE(nf.find("404"), std::string::npos);
    server.join();  // serve() returned after exactly 4 connections
}

// ---- postmortem bundles ---------------------------------------------

TEST(ObsPostmortem, WriteBundleAndAutoTripPoint) {
    namespace fs = std::filesystem;
    const fs::path root = fs::temp_directory_path() / "liberation_obs_pm";
    fs::remove_all(root);
    auto& fr = obs::flight_recorder::instance();
    fr.reset();
    fr.record(obs::fr_kind::mount_refused, 5, 3, 1);

    obs::postmortem_bundle b;
    b.reason = "unit";
    b.metrics_text = "# snapshot\n";
    b.slo_text = "slo x: total=1 bad=0\n";
    const std::string dir =
        obs::write_postmortem((root / "manual").string(), b);
    ASSERT_FALSE(dir.empty());
    EXPECT_TRUE(fs::exists(fs::path(dir) / "MANIFEST.json"));
    EXPECT_TRUE(fs::exists(fs::path(dir) / "flight_recorder.log"));
    EXPECT_TRUE(fs::exists(fs::path(dir) / "metrics.prom"));
    EXPECT_TRUE(fs::exists(fs::path(dir) / "slo.txt"));
    // Empty sections are skipped and the manifest lists only real files.
    EXPECT_FALSE(fs::exists(fs::path(dir) / "trace.json"));
    EXPECT_FALSE(fs::exists(fs::path(dir) / "census.txt"));
    std::ifstream in(fs::path(dir) / "flight_recorder.log");
    const std::string log((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    EXPECT_NE(log.find("mount_refused"), std::string::npos);
    std::ifstream min(fs::path(dir) / "MANIFEST.json");
    const std::string manifest((std::istreambuf_iterator<char>(min)),
                               std::istreambuf_iterator<char>());
    EXPECT_NE(manifest.find("\"reason\":\"unit\""), std::string::npos);
    EXPECT_NE(manifest.find("slo.txt"), std::string::npos);
    EXPECT_EQ(manifest.find("trace.json"), std::string::npos);

    // The automatic trip point is env-gated: a no-op unless
    // LIBERATION_POSTMORTEM_DIR points somewhere.
    unsetenv("LIBERATION_POSTMORTEM_DIR");
    EXPECT_TRUE(obs::auto_postmortem("unit", nullptr).empty());
    setenv("LIBERATION_POSTMORTEM_DIR", (root / "auto").c_str(), 1);
    obs::hub h;
    const std::string adir = obs::auto_postmortem("unit", &h);
    ASSERT_FALSE(adir.empty());
    EXPECT_NE(adir.find("unit-"), std::string::npos);
    EXPECT_TRUE(fs::exists(fs::path(adir) / "MANIFEST.json"));
    // The hub filled the empty metrics section.
    EXPECT_TRUE(fs::exists(fs::path(adir) / "metrics.prom"));
    unsetenv("LIBERATION_POSTMORTEM_DIR");
    fr.reset();
    fs::remove_all(root);
}

}  // namespace
