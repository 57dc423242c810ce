// Silent data corruption demo, in two acts.
//
// Act 1 (the patrol): bit-rot flips bits on several disks without any I/O
// error, and the background scrub — before any host read touches the
// damage — locates each corrupt column and repairs it in place: its
// CRC32C integrity domain pinpoints the column, with the P/Q syndrome
// fingerprint of the paper's single-column error correction (Section I;
// construction in DESIGN.md §5) as the fallback.
//
// Act 2 (the read path): every strip is checked against its integrity
// domain on the way to the host, so the same bit-rot is caught *at read
// time* — the column is demoted to an erasure, optimally decoded,
// re-verified, and written back (read-repair). No rotten byte is ever
// served.
#include <cstdio>
#include <vector>

#include "liberation/raid/array.hpp"
#include "liberation/raid/scrubber.hpp"
#include "liberation/util/rng.hpp"

namespace {

using namespace liberation;
using namespace liberation::raid;

struct hit {
    std::size_t stripe;
    std::uint32_t column;
};

void inject(raid6_array& array, const std::vector<hit>& hits,
            util::xoshiro256& rng) {
    for (const auto& h : hits) {
        const auto loc = array.map().locate(h.stripe, h.column);
        const auto flips = array.disk(loc.disk).inject_silent_corruption(
            loc.offset + 100, 512, rng);
        std::printf("injected %zu corrupt bytes: stripe %zu, column %u "
                    "(disk %u)\n",
                    flips, h.stripe, h.column, loc.disk);
    }
}

}  // namespace

int main() {
    array_config cfg;
    cfg.k = 6;  // p = 7, 8 disks
    cfg.element_size = 2048;
    cfg.stripes = 32;

    raid6_array array(cfg);
    util::xoshiro256 rng(99);
    std::vector<std::byte> image(array.capacity());
    rng.fill(image);
    if (!array.write(0, image)) return 1;
    std::printf("array of %u disks filled with %zu MB\n", array.disk_count(),
                array.capacity() >> 20);

    // Bit-rot: flip bits inside three different stripes, plus one parity
    // strip. No I/O error is raised; nothing notices until the damage is
    // read or scrubbed.
    const std::vector<hit> hits = {
        {2, 1}, {11, 4}, {17, array.code().p_column()}, {25, 3}};
    inject(array, hits, rng);

    // Scrub before any read: verify every stripe, localize, repair. (The
    // checksum-first scrubber pinpoints the columns from their integrity
    // domains; the parity cross-check remains as fallback — either way,
    // all four heal.)
    const auto summary = scrub_array(array);
    std::printf("\nscrub: %zu stripes scanned, %zu clean, %zu data repairs, "
                "%zu parity repairs, %zu uncorrectable\n",
                summary.stripes_scanned, summary.clean, summary.repaired_data,
                summary.repaired_parity, summary.uncorrectable);
    if (summary.repaired_data != 3 || summary.repaired_parity != 1 ||
        summary.uncorrectable != 0) {
        std::printf("UNEXPECTED SCRUB SUMMARY\n");
        return 1;
    }

    // The read after the scrub meets no rot: it catches no mismatch.
    const auto caught = array.stats().checksum_mismatches;
    std::vector<std::byte> readback(array.capacity());
    if (!array.read(0, readback)) return 1;
    if (readback != image || array.stats().checksum_mismatches != caught) {
        std::printf("DATA STILL CORRUPT AFTER SCRUB\n");
        return 1;
    }
    std::printf("post-scrub read matches the original image — bit-rot "
                "healed with no redundancy lost\n");

    // ---- Act 2: verify-on-read ----------------------------------------
    raid6_array verified(cfg);
    if (!verified.write(0, image)) return 1;
    std::printf("\nsecond array: the same rot, read before any scrub\n");
    inject(verified, hits, rng);

    // The same rotten bytes never reach the host: each mismatching strip
    // is caught by its CRC32C domain, decoded around, and repaired.
    if (!verified.read(0, readback)) return 1;
    if (readback != image) {
        std::printf("VERIFIED READ SERVED CORRUPT DATA\n");
        return 1;
    }
    const array_stats stats = verified.stats();
    std::printf("verified read returned clean data: %llu checksum "
                "mismatches caught, %llu stripes self-healed in-line\n",
                static_cast<unsigned long long>(stats.checksum_mismatches),
                static_cast<unsigned long long>(stats.reads_self_healed));
    if (stats.checksum_mismatches == 0 || stats.reads_self_healed == 0) {
        std::printf("UNEXPECTED INTEGRITY COUNTERS\n");
        return 1;
    }

    // Read-repair already fixed the data columns; the parity hit from
    // {17, P} is invisible to host reads, so the scrub still has work.
    const auto after = scrub_array(verified);
    if (after.uncorrectable != 0) {
        std::printf("UNEXPECTED POST-HEAL SCRUB\n");
        return 1;
    }
    std::printf("post-heal scrub: %zu repairs left (parity strip), "
                "0 uncorrectable\n",
                after.repaired_data + after.repaired_parity +
                    after.repaired_metadata);
    std::printf("verify-on-read: no host read ever returned unverified "
                "bytes\n");
    return 0;
}
