// Hot-spare failover demo: an array with standby spares survives a flaky
// disk without operator intervention. The disk develops transient errors,
// the retrying io_policy masks them until they exhaust the retry budget,
// the health monitor trips the disk, a spare is promoted automatically,
// and the background rebuild interleaves with foreground I/O until full
// redundancy is restored — md's recovery story on the simulator, with the
// optimal Liberation decoder doing the reconstruction work.
#include <cstdio>
#include <cstring>
#include <vector>

#include "liberation/raid/array.hpp"
#include "liberation/raid/scrubber.hpp"
#include "liberation/util/rng.hpp"

int main() {
    using namespace liberation;
    using namespace liberation::raid;

    array_config cfg;
    cfg.k = 6;  // 6 data disks + P + Q = 8 disks, p = 7
    cfg.element_size = 4096;
    cfg.stripes = 64;
    cfg.hot_spares = 1;
    cfg.rebuild_batch_stripes = 4;       // stripes rebuilt per host op
    cfg.health.max_read_errors = 4;      // hard read errors before tripping
    cfg.health.max_write_errors = 1;     // first lost write trips (md-style)
    raid6_array array(cfg);
    std::printf("array: %u disks + %u hot spare(s), %zu MB usable\n",
                array.disk_count(), array.spare_count(),
                array.capacity() >> 20);

    util::xoshiro256 rng(21);
    std::vector<std::byte> image(array.capacity());
    rng.fill(image);
    if (!array.write(0, image)) return 1;

    // Disk 5 starts dying: most of its I/O fails even after retries.
    array.disk(5).set_transient_fault_rates(0.95, 0.95, /*seed=*/1);
    std::printf("\ndisk 5 is failing (95%% transient error rate)\n");

    // Keep serving the workload; the stack handles everything underneath.
    std::vector<std::byte> buf(1 << 15);
    std::size_t ops = 0;
    for (; ops < 200; ++ops) {
        const std::size_t addr = rng.next_below(array.capacity() - buf.size());
        if (ops % 3 == 0) {
            rng.fill(buf);
            if (!array.write(addr, buf)) return 1;
            std::memcpy(image.data() + addr, buf.data(), buf.size());
        } else {
            if (!array.read(addr, buf)) return 1;
            if (std::memcmp(image.data() + addr, buf.data(), buf.size()) != 0) {
                std::printf("READ RETURNED WRONG DATA\n");
                return 1;
            }
        }
        if (!array.rebuild_active() && array.stats().rebuilds_completed > 0)
            break;  // spare promoted and fully rebuilt
    }

    const array_stats st = array.stats();
    const io_policy_stats io = array.io_stats();
    std::printf("after %zu ops:\n", ops);
    std::printf("  transient errors masked by retries: %llu (%llu retries, "
                "%llu us virtual backoff)\n",
                static_cast<unsigned long long>(io.transient_masked),
                static_cast<unsigned long long>(io.retries),
                static_cast<unsigned long long>(io.backoff_us));
    std::printf("  hard errors -> disk tripped by health monitor: %llu\n",
                static_cast<unsigned long long>(st.disks_tripped));
    std::printf("  spares promoted: %llu, background rebuilds completed: %llu\n",
                static_cast<unsigned long long>(st.spares_promoted),
                static_cast<unsigned long long>(st.rebuilds_completed));

    if (st.disks_tripped != 1 || st.spares_promoted != 1) {
        std::printf("FAILOVER DID NOT HAPPEN\n");
        return 1;
    }
    array.drain_background_rebuild();

    // Full redundancy is back: the whole image verifies with the original
    // flaky hardware gone, and a scrub finds nothing to repair.
    std::vector<std::byte> readback(array.capacity());
    if (!array.read(0, readback) || readback != image) {
        std::printf("POST-FAILOVER VERIFICATION FAILED\n");
        return 1;
    }
    const auto scrub = scrub_array(array);
    if (scrub.uncorrectable != 0 ||
        scrub.repaired_data + scrub.repaired_parity != 0) {
        std::printf("SCRUB FOUND DAMAGE\n");
        return 1;
    }
    std::printf("\npost-failover verification passed: %zu stripes clean, "
                "array fully redundant again\n",
                scrub.clean);
    return 0;
}
