// CRC32C kernel throughput — the fold (VPCLMULQDQ), three-lane (crc32
// instruction) and software (slice-by-8) paths side by side, on hot data
// and on a cold span larger than the last-level cache — and the
// end-to-end sequential full-device read of an array, every strip of
// which is checksum-verified on the way to the host (the row keeps its
// `verify` key of 1: reads have no unverified mode to compare against).
#include <cstdio>
#include <span>
#include <vector>

#include "bench_common.hpp"
#include "liberation/integrity/crc32c.hpp"
#include "liberation/raid/array.hpp"
#include "liberation/util/rng.hpp"
#include "liberation/util/timer.hpp"

namespace {

namespace integrity = liberation::integrity;

/// GB/s of crc32c() pinned to `impl` over `block`-byte calls that walk
/// `span` front to back (span == block: the same hot block every call).
double crc_gbps(integrity::crc32c_impl impl, std::span<const std::byte> span,
                std::size_t block, double seconds = 0.15) {
    integrity::force_impl(impl);
    std::uint32_t sink = integrity::crc32c(span);  // warm-up + page-in
    double best = 0.0;
    for (int trial = 0; trial < 3; ++trial) {
        std::uint64_t bytes = 0;
        liberation::util::stopwatch timer;
        do {
            for (std::size_t off = 0; off + block <= span.size();
                 off += block) {
                sink ^= integrity::crc32c(span.data() + off, block);
            }
            bytes += span.size() / block * block;
        } while (timer.seconds() < seconds / 3);
        best = std::max(best, liberation::util::throughput_gbps(
                                  bytes, timer.seconds()));
    }
    // Keep the checksum observable so the loop cannot be elided.
    if (sink == 0xdeadbeef) std::printf("\n");
    return best;
}

double read_gbps(double seconds = 0.3) {
    liberation::raid::array_config cfg;
    cfg.k = 4;
    cfg.element_size = 4096;
    cfg.sector_size = 512;
    cfg.stripes = 64;
    liberation::raid::raid6_array a(cfg);

    liberation::util::xoshiro256 rng(bench::kSeed);
    std::vector<std::byte> data(a.capacity());
    rng.fill(data);
    if (!a.write(0, data)) return 0.0;

    std::vector<std::byte> out(a.capacity());
    if (!a.read(0, out)) return 0.0;  // warm-up
    double best = 0.0;
    for (int trial = 0; trial < 3; ++trial) {
        std::uint64_t iters = 0;
        liberation::util::stopwatch timer;
        do {
            if (!a.read(0, out)) return 0.0;
            ++iters;
        } while (timer.seconds() < seconds / 3);
        best = std::max(best, liberation::util::throughput_gbps(
                                  iters * out.size(), timer.seconds()));
    }
    return best;
}

}  // namespace

int main(int argc, char** argv) {
    using integrity::crc32c_impl;
    bench::reporter rep(argc, argv, "crc32c");
    const bool hw = integrity::hardware_available();
    const bool fold = integrity::fold_available();
    rep.banner("CRC32C kernels and verified array reads\n");
    rep.banner(std::string("three-lane crc32: ") +
               (hw ? "available" : "not available (column reports 0)") +
               "; fold (VPCLMULQDQ): " +
               (fold ? "available" : "not available (column reports 0)") +
               "\n");

    liberation::util::xoshiro256 rng(bench::kSeed);
    // The cold span is well past any last-level cache: every block
    // streams in from memory, the way a checksum sweep over a freshly
    // written stripe or a mapped medium sees it.
    std::vector<std::byte> buf(std::size_t{128} << 20);
    rng.fill(buf);
    const auto three = [&](std::span<const std::byte> span,
                           std::size_t block) -> std::vector<double> {
        return {crc_gbps(crc32c_impl::software, span, block),
                hw ? crc_gbps(crc32c_impl::hardware, span, block) : 0.0,
                fold ? crc_gbps(crc32c_impl::fold, span, block) : 0.0};
    };

    rep.section("(hot: one block, repeated; GB/s)", "hot");
    rep.header({"bytes", "software", "three_lane", "fold"});
    for (const std::size_t n : {64u, 512u, 4096u, 65536u, 1048576u}) {
        rep.row(static_cast<std::uint32_t>(n),
                three(std::span<const std::byte>(buf.data(), n), n),
                "%14.3f");
    }
    rep.section("(cold: 4 KiB blocks across a 128 MiB span; GB/s)", "cold");
    rep.header({"bytes", "software", "three_lane", "fold"});
    rep.row(4096, three(buf, 4096), "%14.3f");

    // Restore runtime dispatch to its natural choice before the end-to-end
    // read benchmark — that is what production reads pay.
    integrity::force_impl(fold ? crc32c_impl::fold
                               : hw ? crc32c_impl::hardware
                                    : crc32c_impl::software);

    rep.section("(array sequential read, GB/s; k=4, 4 KiB elements)",
                "verified-read");
    rep.header({"verify", "read"});
    rep.row(1, {read_gbps()}, "%14.3f");
    return 0;
}
