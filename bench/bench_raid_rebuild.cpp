// Array-level bench: rebuild and degraded-read throughput on the RAID-6
// simulator. Translates the decoding-throughput advantage (Figs. 12-13)
// into the operational metric storage operators actually feel.
//
// Every array holds ~192 MiB of raw media (stripes chosen per k), more
// than a 105 MiB last-level cache, so a rebuild streams its survivors
// from memory rather than from cache. Each k runs twice: at io_queue_depth
// 1 (a loader window of one stripe, computed on the calling thread) and
// at the default window, whose stripes are verified and decoded in
// parallel on the loader's shared helpers. `--json` emits one
// {"bench":"raid_rebuild",...} object (sections qd1 / qd8, key k, GB/s).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "liberation/raid/array.hpp"
#include "liberation/raid/rebuild.hpp"
#include "liberation/raid/scrubber.hpp"
#include "liberation/util/primes.hpp"

namespace {

using namespace liberation;
using namespace liberation::raid;

constexpr std::size_t kMediaBytes = std::size_t{192} << 20;

array_config config(std::uint32_t k, std::size_t qd) {
    array_config cfg;
    cfg.k = k;
    cfg.element_size = 4096;
    cfg.io_queue_depth = qd;
    // Raw bytes per stripe: n strips of p elements.
    const std::size_t p = util::next_odd_prime(k);
    cfg.stripes = kMediaBytes / ((k + 2) * p * cfg.element_size);
    return cfg;
}

constexpr std::size_t kChunk = std::size_t{1} << 20;

void fill(raid6_array& a) {
    util::xoshiro256 rng(bench::kSeed);
    std::vector<std::byte> chunk(kChunk);
    for (std::size_t off = 0; off < a.capacity();) {
        const std::size_t n = std::min(chunk.size(), a.capacity() - off);
        rng.fill({chunk.data(), n});
        if (!a.write(off, {chunk.data(), n})) std::abort();
        off += n;
    }
}

struct rates {
    double one_disk, two_disk, degraded, scrub;
};

rates measure(std::uint32_t k, std::size_t qd) {
    raid6_array a(config(k, qd));
    fill(a);
    rates r{};

    // Single-disk rebuild.
    const rebuild_result r1 = fail_replace_rebuild(a, 1);
    // Double-disk rebuild.
    a.fail_disk(0);
    a.fail_disk(2);
    a.replace_disk(0);
    a.replace_disk(2);
    const std::uint32_t two[] = {0, 2};
    const rebuild_result r2 = rebuild_disks(a, two);
    if (!r1.success || !r2.success) {
        std::printf("rebuild FAILED (k=%u, qd=%zu)\n", k, qd);
        std::exit(1);
    }
    r.one_disk = r1.throughput_gbps();
    r.two_disk = r2.throughput_gbps();

    // Degraded read rate, in 1 MiB host reads.
    a.fail_disk(1);
    std::vector<std::byte> out(kChunk);
    util::stopwatch timer;
    for (std::size_t off = 0; off < a.capacity(); off += out.size()) {
        const std::size_t n = std::min(out.size(), a.capacity() - off);
        if (!a.read(off, {out.data(), n})) std::abort();
    }
    r.degraded = util::throughput_gbps(a.capacity(), timer.seconds());
    a.replace_disk(1);
    const std::uint32_t fix[] = {1};
    if (!rebuild_disks(a, fix).success) std::abort();

    // Scrub rate (clean array).
    util::stopwatch scrub_timer;
    const scrub_summary summary = scrub_array(a);
    r.scrub = util::throughput_gbps(
        summary.stripes_scanned * a.map().stripe_data_size(),
        scrub_timer.seconds());
    return r;
}

}  // namespace

int main(int argc, char** argv) {
    bench::reporter rep(argc, argv, "raid_rebuild");
    rep.banner(
        "RAID simulator: rebuild / degraded-read / scrub rates (GB/s), "
        "~192 MiB of media per array\n");
    const std::size_t default_qd = array_config{}.io_queue_depth;
    for (const std::size_t qd : {std::size_t{1}, default_qd}) {
        const std::string label = "qd" + std::to_string(qd);
        rep.section("io_queue_depth " + std::to_string(qd), label);
        rep.header({"k", "1disk", "2disk", "degr-rd", "scrub"});
        for (const std::uint32_t k : {4u, 8u, 12u, 16u}) {
            const rates r = measure(k, qd);
            rep.row(k, {r.one_disk, r.two_disk, r.degraded, r.scrub},
                    "%14.2f");
        }
    }
    return 0;
}
