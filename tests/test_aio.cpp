// Async submission-queue I/O pipeline: ring/queue_pair mechanics
// (merging, split-retry failure isolation, completion ordering),
// completion-stage decorator composition with the retrying io_policy,
// and end-to-end equivalence of the array's stripe paths (full-stripe
// writes, rebuild, scrub) at queue depth 8 against a window of one
// stripe (queue depth 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "liberation/aio/queue_pair.hpp"
#include "liberation/aio/ring.hpp"
#include "liberation/aio/stripe_io.hpp"
#include "liberation/raid/array.hpp"
#include "liberation/raid/rebuild.hpp"
#include "liberation/raid/scrubber.hpp"
#include "liberation/util/rng.hpp"

namespace {

using namespace liberation;
using namespace liberation::raid;

std::vector<std::byte> pattern_bytes(std::size_t n, std::uint64_t seed) {
    std::vector<std::byte> v(n);
    util::xoshiro256 rng(seed);
    rng.fill(v);
    return v;
}

array_config aio_config_with_depth(std::size_t qd) {
    array_config cfg;
    cfg.k = 4;  // p = 5, 6 disks
    cfg.element_size = 256;
    cfg.stripes = 16;
    cfg.sector_size = 256;
    cfg.io_queue_depth = qd;
    return cfg;
}

// Raw medium snapshot of every disk, for byte-identity comparisons.
std::vector<std::vector<std::byte>> disk_images(raid6_array& a) {
    std::vector<std::vector<std::byte>> images;
    const std::size_t cap = a.map().disk_capacity();
    for (std::uint32_t d = 0; d < a.disk_count(); ++d) {
        std::vector<std::byte> img(cap);
        EXPECT_EQ(a.disk(d).read(0, img), io_status::ok);
        images.push_back(std::move(img));
    }
    return images;
}

// ---- ring ------------------------------------------------------------

TEST(AioRing, PushPopWrapAround) {
    aio::ring<int> r(3);
    EXPECT_EQ(r.capacity(), 3u);
    EXPECT_TRUE(r.empty());
    EXPECT_TRUE(r.push(1));
    EXPECT_TRUE(r.push(2));
    EXPECT_TRUE(r.push(3));
    EXPECT_TRUE(r.full());
    EXPECT_FALSE(r.push(4));  // full: refused
    EXPECT_EQ(r.pop(), 1);
    EXPECT_TRUE(r.push(4));  // wraps
    EXPECT_EQ(r.pop(), 2);
    EXPECT_EQ(r.pop(), 3);
    EXPECT_EQ(r.pop(), 4);
    EXPECT_TRUE(r.empty());
}

TEST(AioRing, ZeroCapacityIsClampedToOne) {
    aio::ring<int> r(0);
    EXPECT_EQ(r.capacity(), 1u);
    EXPECT_TRUE(r.push(7));
    EXPECT_TRUE(r.full());
}

// ---- queue_pair with a scripted backend ------------------------------

// Records every execute() and answers from a script keyed by
// (disk, offset, len); unscripted requests succeed.
struct fake_backend final : aio::io_backend {
    struct call {
        std::uint32_t disk;
        aio::op_kind kind;
        std::size_t offset;
        std::size_t len;
    };
    std::vector<call> calls;
    // (disk, offset, len) -> status for exactly-matching executes.
    std::vector<std::tuple<std::uint32_t, std::size_t, std::size_t, io_status>>
        script;

    io_status execute(const aio::io_desc& d) override {
        calls.push_back({d.disk, d.kind, d.offset, d.len});
        for (const auto& [disk, off, len, st] : script) {
            if (disk == d.disk && off == d.offset && len == d.len) return st;
        }
        return io_status::ok;
    }
};

TEST(AioQueuePair, AdjacentReadsMergeIntoOneTransfer) {
    fake_backend backend;
    aio::aio_config cfg;
    cfg.queue_depth = 4;
    aio::queue_pair qp(backend, 2, cfg);

    std::vector<std::byte> buf(4 * 64);
    for (std::uint64_t i = 0; i < 4; ++i) {
        aio::io_desc d;
        d.disk = 0;
        d.kind = aio::op_kind::read;
        d.offset = i * 64;
        d.data = buf.data() + i * 64;
        d.len = 64;
        d.user_data = 100 + i;
        qp.submit(d);
    }
    qp.drain();

    ASSERT_EQ(backend.calls.size(), 1u);  // one coalesced transfer
    EXPECT_EQ(backend.calls[0].offset, 0u);
    EXPECT_EQ(backend.calls[0].len, 4u * 64u);
    EXPECT_EQ(qp.stats().merges, 3u);
    EXPECT_EQ(qp.stats().batches, 1u);

    // One completion per *submitted* request, in submission order.
    const auto cqes = qp.take_completions();
    ASSERT_EQ(cqes.size(), 4u);
    for (std::uint64_t i = 0; i < 4; ++i) {
        EXPECT_EQ(cqes[i].user_data, 100 + i);
        EXPECT_EQ(cqes[i].status, io_status::ok);
    }
    EXPECT_EQ(qp.stats().completed, 4u);
}

TEST(AioQueuePair, WritesAreNeverCoalesced) {
    fake_backend backend;
    aio::aio_config cfg;
    cfg.queue_depth = 4;
    aio::queue_pair qp(backend, 1, cfg);

    std::vector<std::byte> buf(4 * 64);
    for (std::uint64_t i = 0; i < 4; ++i) {
        aio::io_desc d;
        d.disk = 0;
        d.kind = aio::op_kind::write;
        d.offset = i * 64;
        d.data = buf.data() + i * 64;
        d.len = 64;
        qp.submit(d);
    }
    qp.drain();
    EXPECT_EQ(backend.calls.size(), 4u);  // adjacent, but writes stay split
    EXPECT_EQ(qp.stats().merges, 0u);
}

TEST(AioQueuePair, DiscontiguousMemoryPreventsMerge) {
    fake_backend backend;
    aio::aio_config cfg;
    cfg.queue_depth = 2;
    aio::queue_pair qp(backend, 1, cfg);

    // Adjacent on the medium, but the destination buffers are not
    // contiguous — a single transfer could not land in place.
    std::vector<std::byte> b1(64), b2(64);
    aio::io_desc d;
    d.disk = 0;
    d.kind = aio::op_kind::read;
    d.offset = 0;
    d.data = b1.data();
    d.len = 64;
    qp.submit(d);
    d.offset = 64;
    d.data = b2.data();
    qp.submit(d);
    qp.drain();
    EXPECT_EQ(backend.calls.size(), 2u);
    EXPECT_EQ(qp.stats().merges, 0u);
}

TEST(AioQueuePair, SplitRetryLocalizesMergedFailure) {
    fake_backend backend;
    aio::aio_config cfg;
    cfg.queue_depth = 3;
    aio::queue_pair qp(backend, 1, cfg);

    // The merged 192-byte transfer fails; on the per-fragment re-drive
    // only the middle strip is actually bad. (Scripted before submission:
    // the window flushes as soon as it fills.)
    backend.script.emplace_back(0, 0, 3 * 64, io_status::unreadable_sector);
    backend.script.emplace_back(0, 64, 64, io_status::unreadable_sector);

    std::vector<std::byte> buf(3 * 64);
    for (std::uint64_t i = 0; i < 3; ++i) {
        aio::io_desc d;
        d.disk = 0;
        d.kind = aio::op_kind::read;
        d.offset = i * 64;
        d.data = buf.data() + i * 64;
        d.len = 64;
        d.user_data = i;
        qp.submit(d);
    }
    qp.drain();

    // merged attempt + 3 fragment re-drives
    EXPECT_EQ(backend.calls.size(), 4u);
    EXPECT_EQ(qp.stats().split_retries, 1u);
    const auto cqes = qp.take_completions();
    ASSERT_EQ(cqes.size(), 3u);
    EXPECT_EQ(cqes[0].status, io_status::ok);
    EXPECT_EQ(cqes[1].status, io_status::unreadable_sector);
    EXPECT_EQ(cqes[2].status, io_status::ok);
}

TEST(AioQueuePair, OutOfRangeDiskCompletesWithoutBackend) {
    fake_backend backend;
    aio::aio_config cfg;
    cfg.queue_depth = 2;
    aio::queue_pair qp(backend, 1, cfg);
    aio::io_desc d;
    d.disk = 9;
    d.user_data = 42;
    qp.submit(d);
    qp.drain();
    EXPECT_TRUE(backend.calls.empty());
    const auto cqes = qp.take_completions();
    ASSERT_EQ(cqes.size(), 1u);
    EXPECT_EQ(cqes[0].user_data, 42u);
    EXPECT_EQ(cqes[0].status, io_status::out_of_range);
}

TEST(AioQueuePair, CompletionStagesRunInRegistrationOrder) {
    fake_backend backend;
    aio::aio_config cfg;
    cfg.queue_depth = 1;
    aio::queue_pair qp(backend, 1, cfg);
    std::vector<int> order;
    qp.add_completion_stage([&](const aio::io_desc&, io_status s) {
        order.push_back(1);
        return s;
    });
    qp.add_completion_stage([&](const aio::io_desc&, io_status s) {
        order.push_back(2);
        // The last stage owns the final verdict.
        return s == io_status::ok ? io_status::checksum_mismatch : s;
    });
    std::vector<std::byte> buf(64);
    aio::io_desc d;
    d.disk = 0;
    d.kind = aio::op_kind::read;
    d.data = buf.data();
    d.len = 64;
    qp.submit(d);
    qp.drain();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    ASSERT_EQ(qp.completions().size(), 1u);
    EXPECT_EQ(qp.completions()[0].status, io_status::checksum_mismatch);
}

// ---- decorator composition on the array's engine ---------------------

// Retry/backoff is an execution-stage concern (inside disk_backend via
// io_policy); checksum verification is a completion stage. A transient
// error must be retried *before* verification sees the request; a
// checksum mismatch must never be retried.
TEST(AioDecorators, TransientRetriedThenVerified) {
    raid6_array a(aio_config_with_depth(8));
    const auto data = pattern_bytes(a.capacity(), 11);
    ASSERT_TRUE(a.write(0, data));

    const strip_location loc = a.map().locate(0, 0);
    a.disk(loc.disk).schedule_transient_fault(io_kind::read, 0);

    std::vector<std::byte> buf(a.map().strip_size());
    aio::io_desc d;
    d.disk = loc.disk;
    d.kind = aio::op_kind::read;
    d.offset = loc.offset;
    d.data = buf.data();
    d.len = buf.size();
    d.flags = aio::flag_verify;
    a.aio_engine().submit(d);
    a.aio_engine().drain();
    const auto cqes = a.aio_engine().take_completions();
    ASSERT_EQ(cqes.size(), 1u);
    EXPECT_EQ(cqes[0].status, io_status::ok);          // retried, then clean
    EXPECT_GE(a.io_stats().transient_masked, 1u);      // policy did the retry
    EXPECT_EQ(a.stats().checksum_mismatches, 0u);      // verify saw good bytes
}

TEST(AioDecorators, ChecksumMismatchIsNotRetried) {
    raid6_array a(aio_config_with_depth(8));
    const auto data = pattern_bytes(a.capacity(), 12);
    ASSERT_TRUE(a.write(0, data));

    const strip_location loc = a.map().locate(0, 0);
    util::xoshiro256 rng(7);
    a.disk(loc.disk).inject_silent_corruption(loc.offset, 64, rng);
    const auto retries_before = a.io_stats().retries;

    std::vector<std::byte> buf(a.map().strip_size());
    aio::io_desc d;
    d.disk = loc.disk;
    d.kind = aio::op_kind::read;
    d.offset = loc.offset;
    d.data = buf.data();
    d.len = buf.size();
    d.flags = aio::flag_verify;
    a.aio_engine().submit(d);
    a.aio_engine().drain();
    const auto cqes = a.aio_engine().take_completions();
    ASSERT_EQ(cqes.size(), 1u);
    EXPECT_EQ(cqes[0].status, io_status::checksum_mismatch);
    EXPECT_GE(a.stats().checksum_mismatches, 1u);
    // Re-reading rotten bytes cannot un-rot them: no retry was spent.
    EXPECT_EQ(a.io_stats().retries, retries_before);
}

// ---- stripe_loader row selections -----------------------------------

// What one loader walk saw: each column's view (as the bytes of its
// selected rows; empty when null) and status, stripe-major.
struct loaded {
    std::vector<std::vector<std::byte>> bytes;
    std::vector<io_status> statuses;
};

// Walk stripes [0, stripes) with `select` (null = every row); a selected
// element's bytes are read through the view.
loaded load_with(raid6_array& a, std::size_t stripes,
                 const aio::stripe_loader::row_select& select) {
    aio::stripe_loader loader(a.aio_engine(), a.map());
    const std::uint32_t n = a.map().n();
    const std::uint32_t rows = a.map().rows();
    const std::size_t elem = a.map().element_size();
    loaded out;
    out.bytes.resize(stripes * n);
    out.statuses.resize(stripes * n);
    std::vector<std::vector<std::uint8_t>> sel(loader.window());
    loader.run(
        0, stripes,
        [&](std::size_t s, std::size_t slot, std::span<std::uint8_t> r) {
            if (select) select(s, slot, r);
            sel[slot].assign(r.begin(), r.end());
        },
        [&](std::size_t s, std::size_t slot,
            std::span<const std::byte* const> views,
            std::vector<io_status>& statuses) {
            for (std::uint32_t col = 0; col < n; ++col) {
                out.statuses[s * n + col] = statuses[col];
                if (views[col] == nullptr) continue;
                for (std::uint32_t r = 0; r < rows; ++r) {
                    if (sel[slot][col * rows + r] == 0) continue;
                    const std::byte* e = views[col] + r * elem;
                    out.bytes[s * n + col].insert(out.bytes[s * n + col].end(),
                                                  e, e + elem);
                }
            }
        },
        [](std::size_t, std::size_t, std::span<const std::byte* const>,
           std::vector<io_status>&) {});
    return out;
}

// The medium's bytes of `rows` (ascending) of column `col` in stripe `s`.
std::vector<std::byte> medium_rows(raid6_array& a, std::size_t s,
                                   std::uint32_t col,
                                   std::initializer_list<std::uint32_t> rows) {
    const strip_location loc = a.map().locate(s, col);
    const std::size_t elem = a.map().element_size();
    std::vector<std::byte> out;
    for (const std::uint32_t r : rows) {
        std::vector<std::byte> e(elem);
        a.disk(loc.disk).peek(loc.offset + r * elem, e);
        out.insert(out.end(), e.begin(), e.end());
    }
    return out;
}

// Stripe 0, p = 5 rows: column 0 views rows {0, 1, 3} (two runs),
// column 1 nothing, every other column its whole strip.
void select_gaps(std::size_t s, std::size_t, std::span<std::uint8_t> rows) {
    if (s != 0) return;
    rows[2] = 0;
    rows[4] = 0;
    std::fill_n(rows.begin() + 5, 5, std::uint8_t{0});
}

TEST(AioStripeLoader, SelectionWithGapsSubmitsOneViewPerRun) {
    raid6_array a(aio_config_with_depth(1));
    ASSERT_TRUE(a.write(0, pattern_bytes(a.capacity(), 31)));
    const std::uint32_t n = a.map().n();
    const auto submitted = a.aio_engine().stats().submitted;
    const loaded got = load_with(a, 1, select_gaps);
    // Two views for column 0, none for column 1, one per other column.
    EXPECT_EQ(a.aio_engine().stats().submitted - submitted, 2 + (n - 2));
    EXPECT_EQ(got.statuses[0], io_status::ok);
    EXPECT_EQ(got.bytes[0], medium_rows(a, 0, 0, {0, 1, 3}));
    EXPECT_EQ(got.statuses[1], io_status::rebuilding);
    EXPECT_TRUE(got.bytes[1].empty());
    for (std::uint32_t col = 2; col < n; ++col) {
        EXPECT_EQ(got.statuses[col], io_status::ok);
        EXPECT_EQ(got.bytes[col], medium_rows(a, 0, col, {0, 1, 2, 3, 4}));
    }
}

TEST(AioStripeLoader, FailingRunFailsItsWholeColumn) {
    raid6_array a(aio_config_with_depth(1));
    ASSERT_TRUE(a.write(0, pattern_bytes(a.capacity(), 32)));
    // Row 3 of column 0 is unreadable: the run {0, 1} views fine, the run
    // {3} fails, and the column reports the failure with no view.
    const strip_location loc = a.map().locate(0, 0);
    a.disk(loc.disk).inject_latent_error(loc.offset + 3 * 256, 256);
    const loaded got = load_with(a, 1, select_gaps);
    EXPECT_EQ(got.statuses[0], io_status::unreadable_sector);
    EXPECT_TRUE(got.bytes[0].empty());
    for (std::uint32_t col = 2; col < a.map().n(); ++col) {
        EXPECT_EQ(got.statuses[col], io_status::ok);
    }
}

// Every liberation_aio_* and liberation_io_* counter of the array's hub.
std::vector<std::string> aio_io_counters(raid6_array& a) {
    std::vector<std::string> out;
    std::istringstream text(a.obs().metrics_text());
    for (std::string line; std::getline(text, line);) {
        const bool ours = line.rfind("liberation_aio_", 0) == 0 ||
                          line.rfind("liberation_io_", 0) == 0;
        if (ours && line.find("_total") != std::string::npos) {
            out.push_back(line);
        }
    }
    return out;
}

TEST(AioStripeLoader, AllRowsSelectionSubmitsAsWholeStrips) {
    // Scrub and two-target rebuilds select every row of a column: each is
    // one whole-strip view, exactly as with no selection at all — same
    // ops, same merges, same counters.
    raid6_array plain(aio_config_with_depth(8));
    raid6_array selected(aio_config_with_depth(8));
    const auto data = pattern_bytes(plain.capacity(), 33);
    ASSERT_TRUE(plain.write(0, data));
    ASSERT_TRUE(selected.write(0, data));
    const std::size_t stripes = plain.map().stripes();
    const std::uint32_t n = plain.map().n();
    const aio::aio_stats before = plain.aio_engine().stats();
    const loaded a = load_with(plain, stripes, nullptr);
    // One view per strip; a window's strips on one disk merge into one
    // transfer.
    const aio::aio_stats after = plain.aio_engine().stats();
    EXPECT_EQ(after.submitted - before.submitted, stripes * n);
    EXPECT_EQ(after.merges - before.merges, stripes * n - stripes / 8 * n);
    const loaded b = load_with(
        selected, stripes,
        [](std::size_t, std::size_t, std::span<std::uint8_t> rows) {
            std::fill(rows.begin(), rows.end(), std::uint8_t{1});
        });
    EXPECT_EQ(a.statuses, b.statuses);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(aio_io_counters(plain), aio_io_counters(selected));
}

// ---- array stripe paths: window of 8 vs window of 1 ------------------

TEST(AioArray, PipelinedFullStripeWritesAreByteIdentical) {
    raid6_array sync_a(aio_config_with_depth(1));
    raid6_array aio_a(aio_config_with_depth(8));
    const auto data = pattern_bytes(sync_a.capacity(), 21);
    ASSERT_TRUE(sync_a.write(0, data));
    ASSERT_TRUE(aio_a.write(0, data));

    EXPECT_EQ(disk_images(sync_a), disk_images(aio_a));
    EXPECT_EQ(sync_a.stats().full_stripe_writes,
              aio_a.stats().full_stripe_writes);
    EXPECT_GE(aio_a.aio_engine().stats().inflight_highwater, 8u);

    std::vector<std::byte> out(aio_a.capacity());
    ASSERT_TRUE(aio_a.read(0, out));
    EXPECT_EQ(out, data);
}

TEST(AioArray, PipelinedRebuildMatchesSynchronousRebuild) {
    const auto run = [](std::size_t qd) {
        raid6_array a(aio_config_with_depth(qd));
        const auto data = pattern_bytes(a.capacity(), 22);
        EXPECT_TRUE(a.write(0, data));
        a.fail_disk(2);
        a.replace_disk(2);
        const std::uint32_t disks[] = {2};
        const rebuild_result res = rebuild_disks(a, disks);
        EXPECT_TRUE(res.success);
        EXPECT_EQ(res.stripes_rebuilt, a.map().stripes());
        std::vector<std::byte> out(a.capacity());
        EXPECT_TRUE(a.read(0, out));
        EXPECT_EQ(out, data);
        return disk_images(a);
    };
    const auto sync_disks = run(1);
    const auto aio_disks = run(8);
    EXPECT_EQ(sync_disks, aio_disks);
}

TEST(AioArray, PipelinedRebuildCoalescesReads) {
    raid6_array a(aio_config_with_depth(8));
    const auto data = pattern_bytes(a.capacity(), 23);
    ASSERT_TRUE(a.write(0, data));
    const auto merges_before = a.aio_engine().stats().merges;
    a.fail_disk(1);
    a.replace_disk(1);
    const std::uint32_t disks[] = {1};
    ASSERT_TRUE(rebuild_disks(a, disks).success);
    EXPECT_GT(a.aio_engine().stats().merges, merges_before);
    EXPECT_GT(a.aio_engine().stats().batches, 0u);
}

TEST(AioArray, PipelinedScrubMatchesSynchronousScrub) {
    const auto run = [](std::size_t qd) {
        raid6_array a(aio_config_with_depth(qd));
        const auto data = pattern_bytes(a.capacity(), 24);
        EXPECT_TRUE(a.write(0, data));
        // Same deterministic damage in both arrays.
        const strip_location c = a.map().locate(3, 1);
        util::xoshiro256 rng(99);
        a.disk(c.disk).inject_silent_corruption(c.offset, 64, rng);
        const strip_location l = a.map().locate(7, 2);
        a.disk(l.disk).inject_latent_error(l.offset, 64);
        return scrub_array(a);
    };
    const scrub_summary s1 = run(1);
    const scrub_summary s8 = run(8);
    EXPECT_EQ(s1.stripes_scanned, s8.stripes_scanned);
    EXPECT_EQ(s1.clean, s8.clean);
    EXPECT_EQ(s1.repaired_data, s8.repaired_data);
    EXPECT_EQ(s1.repaired_parity, s8.repaired_parity);
    EXPECT_EQ(s1.repaired_metadata, s8.repaired_metadata);
    EXPECT_EQ(s1.uncorrectable, s8.uncorrectable);
    EXPECT_EQ(s1.degraded_scrubbed, s8.degraded_scrubbed);
    EXPECT_EQ(s1.latent_columns, s8.latent_columns);
    EXPECT_EQ(s1.checksum_mismatch_columns, s8.checksum_mismatch_columns);
    EXPECT_GE(s1.repaired_data + s1.degraded_scrubbed, 1u);  // damage seen
}

// A disk tripping mid-run must fail only its own column writes: the
// other columns of every stripe still land and the stripe set stays
// fully decodable — the ring does not wholesale-fail on one bad disk.
TEST(AioArray, DiskTripMidRunFailsOnlyThatDisk) {
    array_config cfg = aio_config_with_depth(8);
    cfg.health.max_transient_errors = 1;  // second exhausted I/O trips
    cfg.io_retry.max_retries = 1;
    raid6_array a(cfg);
    const auto data = pattern_bytes(a.capacity(), 25);

    // Every write to disk 3 fails; the policy exhausts its retries, the
    // health monitor trips the disk partway through the pipelined run.
    a.disk(3).set_transient_fault_rates(0.0, 1.0, 777);
    ASSERT_TRUE(a.write(0, data));  // <= 2 columns down: still a success
    EXPECT_EQ(a.failed_disk_count(), 1u);

    // Degraded but fully readable: every stripe decodes around the
    // tripped disk, so no other batch in the ring was poisoned.
    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
    EXPECT_GT(a.stats().degraded_stripe_reads, 0u);
}

// A bounded intent log smaller than the queue depth must cap the write
// window instead of surfacing rejections a one-stripe window would never
// have produced.
TEST(AioArray, BoundedIntentLogCapsWindowWithoutRejections) {
    array_config cfg = aio_config_with_depth(8);
    cfg.intent_log_entries = 2;
    raid6_array a(cfg);
    const auto data = pattern_bytes(a.capacity(), 27);
    ASSERT_TRUE(a.write(0, data));
    EXPECT_EQ(a.stats().writes_rejected_log_full, 0u);
    EXPECT_EQ(a.journal().size(), 0u);  // every window cleared its marks

    std::vector<std::byte> out(a.capacity());
    ASSERT_TRUE(a.read(0, out));
    EXPECT_EQ(out, data);
}

// Power loss mid-pipeline: the budget dies inside a drained window, the
// journal still covers every stripe of that window, and write-hole
// recovery resyncs them on reboot.
TEST(AioArray, PowerLossMidWindowLeavesJournalCovering) {
    raid6_array a(aio_config_with_depth(8));
    const auto data = pattern_bytes(a.capacity(), 28);
    ASSERT_TRUE(a.write(0, data));

    const auto fresh = pattern_bytes(a.capacity(), 29);
    const auto n = a.map().n();
    // Die partway through the second pipelined window.
    a.simulate_power_loss_after(8 * n + 3);
    EXPECT_TRUE(a.write(0, fresh));  // the host never learns
    EXPECT_FALSE(a.powered());

    a.reboot();
    EXPECT_GT(a.journal().size(), 0u);  // the torn window stayed marked
    EXPECT_GT(a.recover_write_hole(), 0u);
    EXPECT_EQ(a.journal().size(), 0u);
    // Every stripe is internally consistent after resync.
    const scrub_summary s = scrub_array(a);
    EXPECT_EQ(s.uncorrectable, 0u);
}

}  // namespace
