#include "liberation/raid/rebuild.hpp"

#include <algorithm>
#include <vector>

#include "liberation/aio/stripe_io.hpp"
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
    // A lone data-column target with every other member readable views
    // only its plan's elements (core/hybrid_rebuild.hpp); if any fails to
    // view or verify, or the column fails its stored words, the commit
    // recovers the whole stripe from every member but the blank target,
    // which localizes the damage.
    //
    // Every commit is write_back(): the targets, plus any survivor whose
    // rot or unreadable sector the decode healed, go back to disk from
    // the recovery's scratch with the words its verification captured,
    // or the stripe is failed.
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
    const stripe_map& map = array.map();
    const auto plan_for = [&](std::size_t s) -> const core::hybrid_plan* {
        if (replaced_disks.size() != 1 || is_journaled(s)) return nullptr;
        const std::uint32_t target = map.column_of_disk(s, replaced_disks[0]);
        if (target >= map.k()) return nullptr;
        for (std::uint32_t col = 0; col < map.n(); ++col) {
            const strip_location at = map.locate(s, col);
            if (col != target &&
                (!array.disk(at.disk).online() ||
                 array.rebuild_masked(at.disk, at.offset, map.strip_size()))) {
                return nullptr;
            }
        }
        return &array.rebuild_plan(target);
    };
    aio::stripe_loader loader(array.aio_engine(), map);
    array.reserve_scratch(loader.window());
    std::vector<raid6_array::stripe_recovery> recs(loader.window());
    std::vector<const core::hybrid_plan*> plans(loader.window());
    loader.run(
        first, last,
        /*select=*/
        [&](std::size_t s, std::size_t slot, std::span<std::uint8_t> rows) {
            plans[slot] = plan_for(s);
            if (plans[slot] != nullptr) {
                std::copy(plans[slot]->read_rows.begin(),
                          plans[slot]->read_rows.end(), rows.begin());
                return;
            }
            for (const std::uint32_t d : replaced_disks) {
                const std::uint32_t col = map.column_of_disk(s, d);
                std::fill_n(rows.begin() + col * map.rows(), map.rows(), 0);
            }
        },
        /*compute=*/
        [&](std::size_t s, std::size_t slot,
            std::span<const std::byte* const> views,
            std::vector<io_status>& statuses) {
            if (plans[slot] != nullptr) {
                recs[slot] = array.rebuild_planned_column(
                    s, views, statuses, *plans[slot], slot);
            } else if (!is_journaled(s)) {
                recs[slot] = array.recover_loaded_stripe(
                    s, views, target_columns(s), std::move(statuses), slot);
            }
        },
        /*commit=*/
        [&](std::size_t s, std::size_t slot,
            std::span<const std::byte* const> views,
            std::vector<io_status>& statuses) {
            raid6_array::stripe_recovery& rec = recs[slot];
            if (is_journaled(s)) {
                rec = array.verify_loaded_stripe(s, views, target_columns(s),
                                                 std::move(statuses),
                                                 /*host_read=*/false, slot);
            } else if (plans[slot] != nullptr && !rec.ok) {
                rec = array.load_stripe_verified(s, target_columns(s));
            }
            if (rec.ok && array.write_back(s, rec)) {
                ++result.stripes_rebuilt;
                result.columns_rebuilt += rec.repairs.size();
                result.bytes_written +=
                    static_cast<std::uint64_t>(rec.repairs.size()) *
                    map.strip_size();
            } else {
                ++result.stripes_failed;
                result.first_failed_stripe =
                    std::min(result.first_failed_stripe, s);
            }
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

}  // namespace liberation::raid
