// Ablation C — I/O-optimal single-disk rebuild (beyond-paper extension).
//
// (a) The planner's element-read counts: the hybrid row/anti-diagonal
// plan (core/hybrid_rebuild.hpp) against the conventional all-rows
// rebuild. (b) The array's one rebuild path (rebuild_disks), which views
// only the plan's elements on stripes whose one lost column is data:
// disk bytes read per rebuilt byte and GB/s written, with one target and
// with two (which read k strips per stripe, the plan never applies).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "liberation/core/hybrid_rebuild.hpp"
#include "liberation/core/liberation_optimal_code.hpp"
#include "liberation/raid/array.hpp"
#include "liberation/raid/rebuild.hpp"
#include "liberation/util/primes.hpp"

namespace {

using namespace liberation;

std::uint64_t array_bytes_read(const raid::raid6_array& a) {
    std::uint64_t total = 0;
    for (std::uint32_t d = 0; d < a.disk_count(); ++d) {
        total += a.disk(d).stats().bytes_read;
    }
    return total;
}

}  // namespace

int main() {
    std::printf(
        "Ablation C: single-disk rebuild reads, conventional vs hybrid plan\n\n"
        "planner element counts (per stripe, averaged over erased column):\n");
    std::printf("%4s %4s %12s %12s %10s\n", "k", "p", "conventional",
                "hybrid", "savings");
    for (const std::uint32_t k : {4u, 8u, 12u, 16u, 20u}) {
        const std::uint32_t p = util::next_odd_prime(k);
        const core::geometry g(p, k);
        double base = 0, hybrid = 0;
        for (std::uint32_t l = 0; l < k; ++l) {
            const auto plan = core::plan_hybrid_rebuild(g, l);
            base += static_cast<double>(plan.baseline_reads);
            hybrid += static_cast<double>(plan.reads);
        }
        base /= k;
        hybrid /= k;
        std::printf("%4u %4u %12.1f %12.1f %9.1f%%\n", k, p, base, hybrid,
                    100.0 * (1.0 - hybrid / base));
    }

    std::printf("\nrebuild_disks, disk bytes read per rebuilt byte "
                "(k = 10, p = 11, rotating layout, 128 stripes x 4 KiB "
                "elements; second of two rebuilds, so the first pays the "
                "loader's helper start-up and first-touch faults):\n");
    raid::array_config cfg;
    cfg.k = 10;
    cfg.element_size = 4096;
    cfg.stripes = 128;

    for (const std::vector<std::uint32_t> targets :
         {std::vector<std::uint32_t>{5}, std::vector<std::uint32_t>{5, 8}}) {
        raid::raid6_array a(cfg);
        util::xoshiro256 rng(bench::kSeed);
        std::vector<std::byte> img(a.capacity());
        rng.fill(img);
        if (!a.write(0, img)) return 1;

        raid::rebuild_result r;
        std::uint64_t read = 0;
        for (int pass = 0; pass < 2; ++pass) {
            for (const std::uint32_t d : targets) a.fail_disk(d);
            for (const std::uint32_t d : targets) a.replace_disk(d);
            const std::uint64_t before = array_bytes_read(a);
            r = raid::rebuild_disks(a, targets);
            if (!r.success) {
                std::printf("rebuild FAILED\n");
                return 1;
            }
            read = array_bytes_read(a) - before;
        }
        std::printf("  %zu target%s %6.3f bytes read per byte rebuilt, "
                    "%.2f GB/s written\n",
                    targets.size(), targets.size() == 1 ? ": " : "s:",
                    static_cast<double>(read) /
                        static_cast<double>(r.bytes_written),
                    r.throughput_gbps());
    }
    return 0;
}
