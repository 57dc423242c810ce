// Array-level bench: rebuild and degraded-read throughput on the RAID-6
// simulator. Translates the decoding-throughput advantage (Figs. 12-13)
// into the operational metric storage operators actually feel.
#include <cstdio>

#include "bench_common.hpp"
#include "liberation/raid/array.hpp"
#include "liberation/raid/rebuild.hpp"
#include "liberation/raid/scrubber.hpp"

namespace {

using namespace liberation;
using namespace liberation::raid;

array_config config(std::uint32_t k) {
    array_config cfg;
    cfg.k = k;
    cfg.element_size = 4096;
    cfg.stripes = 48;
    return cfg;
}

void fill(raid6_array& a) {
    util::xoshiro256 rng(bench::kSeed);
    std::vector<std::byte> chunk(1 << 20);
    for (std::size_t off = 0; off < a.capacity();) {
        const std::size_t n = std::min(chunk.size(), a.capacity() - off);
        rng.fill({chunk.data(), n});
        if (!a.write(off, {chunk.data(), n})) std::abort();
        off += n;
    }
}

}  // namespace

int main() {
    std::printf("RAID simulator: rebuild / degraded-read / scrub rates\n\n");
    std::printf("%4s %10s | %9s %9s | %9s | %9s\n", "k", "capacity",
                "1disk", "2disk", "degr-rd", "scrub");
    for (const std::uint32_t k : {4u, 8u, 12u, 16u}) {
        raid6_array a(config(k));
        fill(a);

        // Single-disk rebuild.
        auto r1 = fail_replace_rebuild(a, 1);
        // Double-disk rebuild.
        a.fail_disk(0);
        a.fail_disk(2);
        a.replace_disk(0);
        a.replace_disk(2);
        const std::uint32_t two[] = {0, 2};
        auto r2 = rebuild_disks(a, two);

        // Degraded read rate.
        a.fail_disk(1);
        std::vector<std::byte> out(a.capacity());
        util::stopwatch timer;
        if (!a.read(0, out)) std::abort();
        const double degraded =
            util::throughput_gbps(out.size(), timer.seconds());
        a.replace_disk(1);
        const std::uint32_t fix[] = {1};
        rebuild_disks(a, fix);

        // Scrub rate (clean array).
        util::stopwatch scrub_timer;
        const auto summary = scrub_array(a);
        const double scrub_rate = util::throughput_gbps(
            summary.stripes_scanned * a.map().stripe_data_size(),
            scrub_timer.seconds());

        std::printf("%4u %7zu MB | %8.2f ", k, a.capacity() >> 20,
                    r1.throughput_gbps());
        std::printf("%9.2f | %9.2f | %9.2f   (GB/s)\n",
                    r2.throughput_gbps(), degraded, scrub_rate);
        if (!r1.success || !r2.success) {
            std::printf("rebuild FAILED\n");
            return 1;
        }
    }
    return 0;
}
