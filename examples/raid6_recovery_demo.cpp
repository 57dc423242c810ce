// RAID-6 array lifecycle demo on the simulator: build a 10-disk array,
// serve I/O, kill two disks mid-flight, keep serving degraded reads, then
// rebuild onto replacements — the end-to-end story the paper's decoding
// throughput numbers (Figs. 12-13) feed into.
#include <cstdio>
#include <vector>

#include "liberation/raid/array.hpp"
#include "liberation/raid/rebuild.hpp"
#include "liberation/util/rng.hpp"
#include "liberation/util/timer.hpp"

int main() {
    using namespace liberation;
    using namespace liberation::raid;

    array_config cfg;
    cfg.k = 8;              // 8 data disks + P + Q = 10 disks, p = 11
    cfg.element_size = 4096;
    cfg.stripes = 64;
    raid6_array array(cfg);
    std::printf("array: %u disks (%u data), %zu MB usable, %s\n",
                array.disk_count(), array.map().k(),
                array.capacity() >> 20, array.code().name().c_str());

    // Fill the device with a reproducible workload image.
    util::xoshiro256 rng(7);
    std::vector<std::byte> image(array.capacity());
    rng.fill(image);
    if (!array.write(0, image)) return 1;
    std::printf("wrote %zu MB (%llu full-stripe writes)\n",
                image.size() >> 20,
                static_cast<unsigned long long>(
                    array.stats().full_stripe_writes));

    // Two concurrent disk failures.
    array.fail_disk(3);
    array.fail_disk(7);
    std::printf("\ndisks 3 and 7 failed (%u offline)\n",
                array.failed_disk_count());

    // The array still serves every byte, reconstructing on the fly.
    std::vector<std::byte> readback(array.capacity());
    util::stopwatch timer;
    if (!array.read(0, readback)) return 1;
    const double degraded_gbps =
        util::throughput_gbps(readback.size(), timer.seconds());
    if (readback != image) {
        std::printf("DEGRADED READ CORRUPTED DATA\n");
        return 1;
    }
    std::printf("degraded read of whole device OK at %.2f GB/s "
                "(%llu stripes decoded)\n",
                degraded_gbps,
                static_cast<unsigned long long>(
                    array.stats().degraded_stripe_reads));

    // Writes keep working while degraded.
    std::vector<std::byte> hot(1 << 16);
    rng.fill(hot);
    if (!array.write(12345, hot)) return 1;
    std::memcpy(image.data() + 12345, hot.data(), hot.size());
    std::printf("degraded write of %zu KB OK\n", hot.size() >> 10);

    // Replace both disks and rebuild them in one pass.
    array.replace_disk(3);
    array.replace_disk(7);
    const std::uint32_t replaced[] = {3, 7};
    const auto result = rebuild_disks(array, replaced);
    if (!result.success) {
        std::printf("REBUILD FAILED\n");
        return 1;
    }
    std::printf("\nrebuilt %zu strips (%zu stripes) in %.3f s — %.2f GB/s\n",
                result.columns_rebuilt, result.stripes_rebuilt,
                result.seconds, result.throughput_gbps());

    // Prove the array is fully healthy: pristine reads, no degraded paths.
    const auto degraded_before = array.stats().degraded_stripe_reads;
    if (!array.read(0, readback)) return 1;
    if (readback != image ||
        array.stats().degraded_stripe_reads != degraded_before) {
        std::printf("POST-REBUILD VERIFICATION FAILED\n");
        return 1;
    }
    std::printf("post-rebuild verification passed: data intact, no "
                "reconstruction needed\n");
    return 0;
}
