// Volume scale-out bench: one fixed pool of stripes, split across 1, 2,
// 4, and 8 raid6_array shards behind the volume dispatcher.
//
// Wall-clock threading numbers on a small shared host (4 vCPUs for the
// recorded baselines) would measure the scheduler and its neighbours,
// not the design, and would not gate reliably. Instead every disk
// of every shard is armed with a *constant* latency profile (jitter = 0)
// and the bench reports modeled GB/s in virtual time: each shard advances
// its own virtual clock by the device time its I/O would have cost, and a
// phase that fans out across shards completes when its slowest shard does
// — the phase time is max over shards of that shard's clock delta, which
// is exactly the wall time an N-spindle-group deployment would see.
// Because the total stripe pool is fixed (each shard holds TOTAL/N
// stripes), the N-shard rows show the scale-out win: N queue pairs, N
// rebuild pipelines, and N scrub scanners draining one workload
// concurrently. Virtual totals are order-independent sums, so the numbers
// are byte-deterministic however the shards' dispatcher threads
// interleave — safe for tight bench_compare gating.
//
// Sections: full-volume write, rebuild (one failed disk per shard,
// background pipeline), and scrub. Rows are keyed by shard count with
// modeled GB/s and the speedup over the 1-shard row.
//
// Usage: bench_volume_scaling [--json] [--check]
//   --check  exit non-zero unless the 4-shard write speedup is >= 1.6x
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "liberation/raid/scrubber.hpp"
#include "liberation/volume/volume.hpp"

namespace {

using namespace liberation::volume;
namespace raid = liberation::raid;
namespace util = liberation::util;

constexpr std::uint32_t kData = 8;          // k data columns per shard
constexpr std::size_t kElem = 4096;
constexpr std::size_t kTotalStripes = 32;   // pool split across the shards
constexpr std::uint64_t kDiskUs = 200;      // constant device service time
constexpr std::uint64_t kProfileSeed = 0x5ca1'ab1eULL;

struct phase_gbps {
    double write = 0;
    double rebuild = 0;
    double scrub = 0;
};

/// Virtual-clock reading of every shard, for phase deltas.
std::vector<std::uint64_t> clocks_us(volume& vol) {
    std::vector<std::uint64_t> t(vol.shard_count());
    for (std::uint32_t s = 0; s < vol.shard_count(); ++s) {
        t[s] = vol.shard(s).clock().now_us();
    }
    return t;
}

/// Modeled phase seconds: the slowest shard's clock delta.
double phase_seconds(volume& vol,
                     const std::vector<std::uint64_t>& t0) {
    std::uint64_t worst = 0;
    for (std::uint32_t s = 0; s < vol.shard_count(); ++s) {
        worst = std::max(worst, vol.shard(s).clock().now_us() - t0[s]);
    }
    return static_cast<double>(worst) / 1e6;
}

phase_gbps run(std::uint32_t shards) {
    volume_config cfg;
    cfg.shards = shards;
    cfg.chunk_stripes = 1;
    cfg.threaded_dispatch = true;
    cfg.shard.k = kData;
    cfg.shard.element_size = kElem;
    cfg.shard.stripes = kTotalStripes / shards;
    cfg.shard.sector_size = kElem;
    cfg.shard.io_queue_depth = 8;
    cfg.shard.hot_spares = 1;  // rebuild target
    volume vol(cfg);

    // Every disk pays the same modeled device time per op; jitter = 0
    // keeps the virtual totals independent of thread interleaving.
    raid::latency_profile prof;
    prof.kind = raid::latency_profile::shape::constant;
    prof.base_us = kDiskUs;
    for (std::uint32_t s = 0; s < shards; ++s) {
        for (std::uint32_t d = 0; d < vol.shard(s).disk_count(); ++d) {
            vol.shard(s).disk(d).set_latency_profile(prof, kProfileSeed);
        }
    }

    util::xoshiro256 rng(bench::kSeed);
    std::vector<std::byte> image(vol.capacity());
    rng.fill(image);

    phase_gbps out;
    constexpr int kWritePasses = 2;
    {
        const auto t0 = clocks_us(vol);
        for (int pass = 0; pass < kWritePasses; ++pass) {
            if (!vol.write(0, image)) std::abort();
        }
        out.write = static_cast<double>(image.size()) * kWritePasses / 1e9 /
                    phase_seconds(vol, t0);
    }
    {
        const auto t0 = clocks_us(vol);
        std::uint64_t rebuilt_bytes = 0;
        for (std::uint32_t s = 0; s < shards; ++s) {
            vol.shard(s).fail_disk(s % vol.shard(s).disk_count());
            rebuilt_bytes += vol.shard(s).map().disk_capacity();
        }
        vol.drain_background_rebuilds();
        out.rebuild = static_cast<double>(rebuilt_bytes) / 1e9 /
                      phase_seconds(vol, t0);
    }
    {
        const auto t0 = clocks_us(vol);
        for (std::uint32_t s = 0; s < shards; ++s) {
            const raid::scrub_summary sum = scrub_array(vol.shard(s));
            if (sum.uncorrectable != 0) std::abort();
        }
        out.scrub = static_cast<double>(vol.capacity()) / 1e9 /
                    phase_seconds(vol, t0);
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0) check = true;
    }
    bench::reporter rep(argc, argv, "volume_scaling");
    rep.banner(
        "Volume scale-out: one fixed stripe pool across N shards\n"
        "(modeled GB/s in per-shard virtual time; constant " +
        std::to_string(kDiskUs) +
        " us device latency,\nqd 8; phase time = "
        "slowest shard's clock delta)\n");

    const std::vector<std::uint32_t> counts{1, 2, 4, 8};
    std::vector<phase_gbps> results;
    results.reserve(counts.size());
    for (const std::uint32_t n : counts) results.push_back(run(n));
    const phase_gbps& base = results.front();

    rep.section("full-volume write", "write");
    rep.header({"shards", "GBps", "speedup"});
    for (std::size_t i = 0; i < counts.size(); ++i) {
        rep.row(counts[i], {results[i].write, results[i].write / base.write});
    }
    rep.section("rebuild (one failed disk per shard)", "rebuild");
    rep.header({"shards", "GBps", "speedup"});
    for (std::size_t i = 0; i < counts.size(); ++i) {
        rep.row(counts[i],
                {results[i].rebuild, results[i].rebuild / base.rebuild});
    }
    rep.section("scrub", "scrub");
    rep.header({"shards", "GBps", "speedup"});
    for (std::size_t i = 0; i < counts.size(); ++i) {
        rep.row(counts[i], {results[i].scrub, results[i].scrub / base.scrub});
    }

    const double write_speedup_4 = results[2].write / base.write;
    rep.meta("write_speedup_4_shards", bench::reporter::num(write_speedup_4));
    rep.finish();
    if (check && write_speedup_4 < 1.6) {
        std::fprintf(stderr,
                     "FAIL: 4-shard write speedup %.2fx < 1.6x floor\n",
                     write_speedup_4);
        return 1;
    }
    if (check && !rep.json()) {
        std::printf("\n4-shard write speedup %.2fx >= 1.6x floor\n",
                    write_speedup_4);
    }
    return 0;
}
