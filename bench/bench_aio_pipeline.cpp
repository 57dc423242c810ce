// Async I/O pipeline bench: full-stripe write and rebuild throughput of
// the RAID-6 simulator at increasing submission-queue depth. Every depth
// runs the same stripe engines (aio stripe_writer / stripe_loader); the
// depth is their window. qd=1 is a window of one stripe: each request
// executes as it is submitted and no reads coalesce. Deeper windows
// batch all k+2 column I/Os of several stripes and coalesce adjacent
// reads per disk. Every depth reuses long-lived window buffers and skips
// reads of rebuild-target columns. Results are byte-identical across
// depths — the speedup column is what the window buys.
//
// Each section runs the geometry its path is sensitive to: full-stripe
// writes are bandwidth-bound, so large elements expose the zero-copy and
// buffer-reuse savings; rebuild reads are request-bound at small strips,
// where per-disk coalescing collapses a window of reads into one
// transfer. (The simulated disks complete in memcpy time, so request
// overhead is the "seek cost" of this model.)
//
// Usage: bench_aio_pipeline [--json]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "liberation/raid/array.hpp"
#include "liberation/raid/rebuild.hpp"
#include "liberation/util/timer.hpp"

namespace {

using namespace liberation;
using namespace liberation::raid;

array_config config(std::uint32_t k, std::size_t elem, std::size_t stripes,
                    std::size_t qd) {
    array_config cfg;
    cfg.k = k;
    cfg.element_size = elem;
    cfg.stripes = stripes;
    cfg.io_queue_depth = qd;
    return cfg;
}

std::vector<std::byte> host_image(std::size_t bytes) {
    std::vector<std::byte> v(bytes);
    util::xoshiro256 rng(bench::kSeed);
    rng.fill(v);
    return v;
}

// Best-of-three full-device rewrite rate (GB/s of host data). Every pass
// is all-full-stripe: the pipelined run detection covers the whole span.
// 8 KiB elements: a 64-byte multiple, so data columns go zero-copy.
constexpr std::uint32_t kWriteK = 8;
constexpr std::size_t kWriteElem = 8192;
constexpr std::size_t kWriteStripes = 64;

double write_gbps(std::size_t qd, const std::vector<std::byte>& image) {
    raid6_array a(config(kWriteK, kWriteElem, kWriteStripes, qd));
    if (!a.write(0, image)) std::abort();  // warm-up + page-in
    double best = 0.0;
    for (int trial = 0; trial < 3; ++trial) {
        std::uint64_t iters = 0;
        util::stopwatch timer;
        do {
            if (!a.write(0, image)) std::abort();
            ++iters;
        } while (timer.seconds() < 0.15);
        best = std::max(best, util::throughput_gbps(iters * image.size(),
                                                    timer.seconds()));
    }
    return best;
}

// Best-of-five single-disk rebuild rate (GB/s of reconstructed bytes).
// Small strips: the request-bound regime where read coalescing pays.
constexpr std::uint32_t kRebuildK = 4;
constexpr std::size_t kRebuildElem = 128;
constexpr std::size_t kRebuildStripes = 512;

// Render every populated latency histogram of `h` as one JSON object
// (name → count/p50/p95/p99/max in ns) for the reporter's meta header.
std::string histograms_json(obs::hub& h) {
    std::string out = "{";
    bool first = true;
    for (const auto& [name, snap] : h.histogram_snapshots()) {
        if (snap.count == 0) continue;
        if (!first) out += ',';
        first = false;
        out += '"' + name + "\":{\"count\":" + std::to_string(snap.count) +
               ",\"p50_ns\":" + std::to_string(snap.p50) +
               ",\"p95_ns\":" + std::to_string(snap.p95) +
               ",\"p99_ns\":" + std::to_string(snap.p99) +
               ",\"max_ns\":" + std::to_string(snap.max) + '}';
    }
    out += '}';
    return out;
}

double rebuild_gbps(std::size_t qd, const std::vector<std::byte>& image) {
    raid6_array a(config(kRebuildK, kRebuildElem, kRebuildStripes, qd));
    if (!a.write(0, image)) std::abort();
    double best = 0.0;
    for (int trial = 0; trial < 5; ++trial) {
        a.fail_disk(1);
        a.replace_disk(1);
        const std::uint32_t disks[] = {1};
        const rebuild_result res = rebuild_disks(a, disks);
        if (!res.success) std::abort();
        best = std::max(best, res.throughput_gbps());
    }
    return best;
}

}  // namespace

int main(int argc, char** argv) {
    bench::reporter rep(argc, argv, "aio_pipeline");
    rep.banner("Async I/O pipeline: throughput vs submission-queue depth "
               "(speedup vs qd=1)\n");

    const std::size_t depths[] = {1, 8, 16};

    {
        char title[128];
        std::snprintf(title, sizeof title,
                      "full-stripe write, k=%u elem=%zu (GB/s)", kWriteK,
                      kWriteElem);
        rep.section(title, "full_stripe_write");
        rep.header({"qd", "GBps", "speedup"});
        const raid6_array probe(config(kWriteK, kWriteElem, kWriteStripes, 1));
        const std::vector<std::byte> image = host_image(probe.capacity());
        double base = 0.0;
        for (const std::size_t qd : depths) {
            const double gbps = write_gbps(qd, image);
            if (qd == 1) base = gbps;
            rep.row(static_cast<std::uint32_t>(qd), {gbps, gbps / base});
        }
    }
    {
        char title[128];
        std::snprintf(title, sizeof title,
                      "single-disk rebuild, k=%u elem=%zu (GB/s)", kRebuildK,
                      kRebuildElem);
        rep.section(title, "rebuild");
        rep.header({"qd", "GBps", "speedup"});
        const raid6_array probe(
            config(kRebuildK, kRebuildElem, kRebuildStripes, 1));
        const std::vector<std::byte> image = host_image(probe.capacity());
        double base = 0.0;
        for (const std::size_t qd : depths) {
            const double gbps = rebuild_gbps(qd, image);
            if (qd == 1) base = gbps;
            rep.row(static_cast<std::uint32_t>(qd), {gbps, gbps / base});
        }
    }

    // Stamp one observability sample into the JSON header: the latency
    // histograms of a qd=8 full-device rewrite, so a recorded bench run
    // carries the stage distributions that produced its numbers.
    if (rep.json()) {
        raid6_array a(config(kWriteK, kWriteElem, kWriteStripes, 8));
        const std::vector<std::byte> image = host_image(a.capacity());
        if (!a.write(0, image) || !a.write(0, image)) std::abort();
        rep.meta("obs_histograms", histograms_json(a.obs()));
    }
    return 0;
}
