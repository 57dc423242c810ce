#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "liberation/codes/stripe.hpp"
#include "liberation/integrity/crc32c.hpp"
#include "liberation/raid/persist/store.hpp"
#include "liberation/util/rng.hpp"
#include "liberation/xorops/xorops.hpp"

namespace bench_stack {

namespace {

using namespace liberation;
using clock_type = std::chrono::steady_clock;

/// Median seconds per call of `fn`, timed in batches of `batch` calls
/// until `budget_s` has passed (at least 9 batches). Medians, because a
/// preempted batch on a shared machine only ever reads slow.
template <typename Fn>
double median_seconds_per_call(Fn&& fn, int batch, double budget_s) {
    std::vector<double> samples;
    const auto deadline =
        clock_type::now() + std::chrono::duration<double>(budget_s);
    while (samples.size() < 9 || clock_type::now() < deadline) {
        const auto t0 = clock_type::now();
        for (int i = 0; i < batch; ++i) fn();
        const std::chrono::duration<double> dt = clock_type::now() - t0;
        samples.push_back(dt.count() / batch);
    }
    auto mid = samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
    std::nth_element(samples.begin(), mid, samples.end());
    return *mid;
}

}  // namespace

codec_probe probe_codec(const raid::raid6_array& shard,
                        std::span<const std::uint32_t> failed_disks,
                        std::uint64_t seed) {
    const raid::stripe_map& map = shard.map();
    const auto& code = shard.code();
    codes::stripe_buffer buf = shard.make_stripe_buffer();
    util::xoshiro256 rng(seed);
    buf.fill_random(rng, map.k());

    const std::size_t block = shard.integrity_block();
    std::vector<std::uint32_t> p_crcs(map.strip_size() / block);
    std::vector<std::uint32_t> q_crcs(p_crcs.size());
    const auto encode = [&] {
        code.encode_crc(buf.view(), block, p_crcs.data(), q_crcs.data());
    };
    encode();  // page in, and leave a valid codeword for the decodes

    codec_probe r;
    {
        xorops::counting_scope scope;
        encode();
        r.xors_per_encode = static_cast<double>(scope.xors());
    }
    r.encode_s = median_seconds_per_call(encode, 32, 0.15);

    // One parity rotation visits every column placement of the failed
    // disks; each distinct pattern is decoded equally often.
    std::vector<std::vector<std::uint32_t>> patterns;
    for (std::size_t s = 0; s < map.n(); ++s) {
        std::vector<std::uint32_t> pat;
        for (const std::uint32_t d : failed_disks) {
            pat.push_back(map.column_of_disk(s, d));
        }
        std::sort(pat.begin(), pat.end());
        if (std::find(patterns.begin(), patterns.end(), pat) == patterns.end()) {
            patterns.push_back(std::move(pat));
        }
    }
    double xors = 0.0;
    for (const auto& pat : patterns) {
        xorops::counting_scope scope;
        code.decode(buf.view(), pat);
        xors += static_cast<double>(scope.xors());
    }
    r.xors_per_decode = xors / static_cast<double>(patterns.size());
    std::size_t next = 0;
    r.decode_s = median_seconds_per_call(
        [&] {
            code.decode(buf.view(), patterns[next]);
            next = (next + 1) % patterns.size();
        },
        static_cast<int>(patterns.size()) * 4, 0.15);

    const double data_bytes = static_cast<double>(map.stripe_data_size());
    r.encode_GBps = data_bytes / r.encode_s / 1e9;
    r.decode_GBps = data_bytes / r.decode_s / 1e9;
    return r;
}

double probe_crc_GBps(std::size_t strip_bytes, std::uint64_t seed) {
    std::vector<std::byte> strip(strip_bytes);
    util::xoshiro256 rng(seed);
    rng.fill(strip);
    std::uint32_t sink = 0;
    const double s = median_seconds_per_call(
        [&] { sink ^= integrity::crc32c(strip.data(), strip.size()); }, 64,
        0.1);
    (void)sink;
    return static_cast<double>(strip_bytes) / s / 1e9;
}

double probe_persist_us(raid::raid6_array& shard, std::uint32_t slot,
                        int reps) {
    raid::persist::store* st = shard.persistence();
    if (st == nullptr) return 0.0;
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        const auto t0 = clock_type::now();
        (void)st->persist(slot);
        const std::chrono::duration<double, std::micro> dt =
            clock_type::now() - t0;
        samples.push_back(dt.count());
    }
    auto mid = samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
    std::nth_element(samples.begin(), mid, samples.end());
    return *mid;
}

}  // namespace bench_stack
