#include "liberation/raid/rebuild.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "liberation/aio/stripe_io.hpp"
#include "liberation/core/hybrid_rebuild.hpp"
#include "liberation/util/assert.hpp"
#include "liberation/util/timer.hpp"

namespace liberation::raid {

rebuild_result rebuild_stripe_range(raid6_array& array,
                                    std::span<const std::uint32_t> replaced_disks,
                                    std::size_t first, std::size_t last) {
    LIBERATION_EXPECTS(!replaced_disks.empty() && replaced_disks.size() <= 2);
    LIBERATION_EXPECTS(first <= last && last <= array.map().stripes());
    rebuild_result result;
    util::stopwatch timer;
    // Every rebuild window — background batches and operator-driven full
    // rebuilds alike — lands one sample here (and a trace span when on).
    obs::timed_span window_span(
        array.obs(),
        &array.obs().metrics().get_histogram("raid_rebuild_window_ns"),
        "rebuild.window", "rebuild");

    const auto note_failure = [&](std::size_t s) {
        ++result.stripes_failed;
        result.first_failed_stripe = std::min(result.first_failed_stripe, s);
    };
    const auto note_rebuilt = [&](std::size_t cols) {
        ++result.stripes_rebuilt;
        result.columns_rebuilt += cols;
        result.bytes_written +=
            static_cast<std::uint64_t>(cols) * array.map().strip_size();
    };

    // Which codeword columns live on the replaced disks in this stripe?
    // The replaced disks read back zeros (blank), so they are not
    // reported as unavailable — they are unioned in as logical
    // erasures. (During background hot-spare rebuild the array masks
    // them as `rebuilding`, in which case they are already erased.)
    const auto target_columns = [&](std::size_t s) {
        std::vector<std::uint32_t> cols;
        for (const std::uint32_t d : replaced_disks) {
            cols.push_back(array.map().column_of_disk(s, d));
        }
        std::sort(cols.begin(), cols.end());
        return cols;
    };

    // Commit tail of the verified rebuild: reconstructed targets plus
    // healed survivors go back to disk from the recovery's scratch, or the
    // stripe is failed.
    const auto commit_recovered = [&](std::size_t s,
                                      const raid6_array::stripe_recovery& rec) {
        if (!rec.ok) {
            note_failure(s);
            return;
        }
        std::vector<std::uint32_t> commit = rec.erased;
        for (const std::uint32_t c : rec.healed) {
            if (std::find(commit.begin(), commit.end(), c) == commit.end()) {
                commit.push_back(c);
            }
        }
        std::sort(commit.begin(), commit.end());
        // The verification sweep that re-checked every reconstruction
        // captured its checksum words; the commit hands them over so the
        // integrity layer installs instead of re-reading each strip.
        const std::uint32_t n = array.map().n();
        std::vector<const std::uint32_t*> crc_ptrs;
        if (rec.crc_valid.size() == n && n != 0) {
            const std::size_t bps = rec.crcs.size() / n;
            crc_ptrs.assign(n, nullptr);
            for (std::uint32_t c = 0; c < n; ++c) {
                if (rec.crc_valid[c] != 0) {
                    crc_ptrs[c] = rec.crcs.data() + c * bps;
                }
            }
        }
        if (!array.store_columns(s, array.as_stripe(rec.cols), commit,
                                 crc_ptrs.empty() ? nullptr
                                                  : crc_ptrs.data())) {
            note_failure(s);
            return;
        }
        note_rebuilt(commit.size());
    };

    // Verified rebuild, one window of stripes at a time: batched
    // multi-stripe views through the submission queue (one merged
    // transfer per surviving disk per window), survivors decoded where
    // they sit with only the targets and suspects in scratch, and no
    // reads at all for the rebuild targets. Checksum-suspect survivors
    // are demoted to erasures alongside the targets, and every
    // reconstructed strip is re-verified against its stored checksum
    // before it is committed to the replacement (a rebuild must never lay
    // corrupt bytes onto fresh hardware). The window's stripes are
    // verified and decoded in parallel; their commits land in stripe
    // order on this thread.
    //
    // A journaled stripe is re-synced when only parity is targeted, and
    // refused otherwise — all inside its commit, since the re-sync
    // writes. The journaled stripes are picked out here, before the
    // loader starts: only a re-sync clears an entry, and only its own
    // stripe's, so the computes never need to read the journal.
    const std::vector<std::size_t> journaled = array.journal().dirty_stripes();
    const auto is_journaled = [&](std::size_t s) {
        return std::find(journaled.begin(), journaled.end(), s) !=
               journaled.end();
    };
    aio::stripe_loader loader(array.aio_engine(), array.map());
    array.reserve_scratch(loader.window());
    std::vector<raid6_array::stripe_recovery> recs(loader.window());
    loader.run(
        first, last,
        /*skip_column=*/
        [&](std::size_t s, std::uint32_t col) {
            for (const std::uint32_t d : replaced_disks) {
                if (array.map().column_of_disk(s, d) == col) return true;
            }
            return false;
        },
        /*compute=*/
        [&](std::size_t s, std::size_t slot,
            std::span<const std::byte* const> views,
            std::vector<io_status>& statuses) {
            if (is_journaled(s)) return;
            recs[slot] = array.recover_loaded_stripe(
                s, views, target_columns(s), std::move(statuses), slot);
        },
        /*commit=*/
        [&](std::size_t s, std::size_t slot,
            std::span<const std::byte* const> views,
            std::vector<io_status>& statuses) {
            if (is_journaled(s)) {
                recs[slot] = array.verify_loaded_stripe(
                    s, views, /*writeback=*/false, target_columns(s),
                    std::move(statuses), /*host_read=*/false, slot);
            }
            commit_recovered(s, recs[slot]);
        });

    result.seconds = timer.seconds();
    result.success = result.stripes_failed == 0;
    return result;
}

rebuild_result rebuild_disks(raid6_array& array,
                             std::span<const std::uint32_t> replaced_disks) {
    return rebuild_stripe_range(array, replaced_disks, 0,
                                array.map().stripes());
}

rebuild_result fail_replace_rebuild(raid6_array& array, std::uint32_t disk) {
    array.fail_disk(disk);
    array.replace_disk(disk);
    const std::uint32_t disks[] = {disk};
    return rebuild_disks(array, disks);
}

rebuild_result rebuild_single_disk_hybrid(raid6_array& array,
                                          std::uint32_t disk) {
    rebuild_result result;
    util::stopwatch timer;
    const auto& map = array.map();
    const auto& code = array.code();
    const core::geometry& g = code.geom();
    const std::size_t elem = map.element_size();

    // Plans depend only on which codeword column is missing; memoize the
    // k possible data-column plans across stripes.
    std::vector<core::hybrid_plan> plans(map.k());
    std::vector<bool> planned(map.k(), false);

    codes::stripe_buffer buf = array.make_stripe_buffer();
    util::aligned_buffer elem_buf(elem);

    const auto note_failure = [&](std::size_t s) {
        ++result.stripes_failed;
        result.first_failed_stripe =
            std::min(result.first_failed_stripe, s);
    };

    for (std::size_t s = 0; s < map.stripes(); ++s) {
        const std::uint32_t col = map.column_of_disk(s, disk);
        const std::uint32_t rebuilt_cols[] = {col};

        // Parity columns, and stripes the torn-stripe rule keeps the
        // element plan away from (it reads parity directly), take the
        // full checksum-verified recovery: corrupt survivors are localized
        // and healed, a journaled stripe is re-synced or refused, and the
        // reconstruction is verified before the store below commits it.
        bool full =
            col >= map.k() || !array.settle_torn_stripe(s, {}, {}, {});
        if (!full) {
            if (!planned[col]) {
                plans[col] = core::plan_hybrid_rebuild(g, col);
                planned[col] = true;
            }
            const auto& plan = plans[col];
            bool ok = true;
            for (const auto& r : plan.reads) {
                const strip_location loc = map.locate(s, r.col);
                const std::size_t off =
                    loc.offset + static_cast<std::size_t>(r.row) * elem;
                if (array.disk_read(loc.disk, off, elem_buf.span()) !=
                    io_status::ok) {
                    ok = false;
                    break;
                }
                // Feeding a silently corrupt survivor element into the
                // hybrid XOR chain would reconstruct garbage; divert to
                // the full-stripe path, which can localize the damage.
                if (!array.integrity(loc.disk).verify(off, elem_buf.span())) {
                    full = true;
                    break;
                }
                std::memcpy(buf.view().element(r.row, r.col), elem_buf.data(),
                            elem);
            }
            if (!ok) {
                note_failure(s);
                continue;
            }
            if (!full) {
                core::rebuild_column_hybrid(buf.view(), g, plans[col]);
                // Verify the reconstruction against the *target's* stored
                // checksums before committing it to the replacement.
                const strip_location tloc = map.locate(s, col);
                if (!array.integrity(tloc.disk).verify(tloc.offset,
                                                       buf.view().strip(col))) {
                    full = true;
                }
            }
        }
        raid6_array::stripe_recovery rec;
        if (full) {
            // Also the path for a checksum disagreement somewhere in the
            // element chain: the classification sorts out whether data or
            // metadata is the damaged side (it repairs either).
            const std::uint32_t extra[] = {col};
            rec = array.load_stripe_verified(s, /*writeback=*/true, extra);
            if (!rec.ok) {
                note_failure(s);
                continue;
            }
        }

        if (!array.store_columns(s,
                                 full ? array.as_stripe(rec.cols) : buf.view(),
                                 rebuilt_cols)) {
            note_failure(s);
            continue;
        }
        ++result.stripes_rebuilt;
        ++result.columns_rebuilt;
        result.bytes_written += map.strip_size();
    }
    result.seconds = timer.seconds();
    result.success = result.stripes_failed == 0;
    return result;
}

}  // namespace liberation::raid
