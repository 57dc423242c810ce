#include "liberation/raid/scrubber.hpp"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "liberation/aio/stripe_io.hpp"
#include "liberation/core/error_correction.hpp"

namespace liberation::raid {

namespace {

// Accounting tail of the scrub loop: everything that happens to one
// stripe after its verified load and write-back. `consistent` is the
// compute's parity cross-check of a stripe the checksums call clean.
void account_stripe(raid6_array& array, scrub_summary& summary, std::size_t s,
                    const raid6_array::stripe_recovery& rec,
                    bool consistent) {
    const std::uint32_t k = array.map().k();
    const std::size_t strip = array.map().strip_size();
    if (rec.verified) {
        // Single-pass byte accounting: the checksum-first sweep traversed
        // every readable column exactly once (CRC32C fused into the same
        // traversal that classifies and decodes) — charge those bytes
        // once, here, and nowhere else.
        std::size_t swept = 0;
        for (const io_status st : rec.statuses) {
            if (st == io_status::ok || st == io_status::checksum_mismatch) {
                ++swept;
            }
        }
        summary.scrub_bytes_single_pass += swept * strip;
    }
    for (const std::uint32_t col : rec.erased) {
        switch (rec.statuses[col]) {
            case io_status::transient_error:
                ++summary.transient_columns;
                break;
            case io_status::unreadable_sector:
                ++summary.latent_columns;
                break;
            default:
                break;
        }
    }
    summary.checksum_mismatch_columns +=
        rec.healed.size() + rec.meta_repaired.size();

    if (!rec.ok) {
        if (rec.erased.size() > 2) {
            // Beyond the decode budget. Distinguish "retry soon" from
            // real degradation, as the seed scrubber did.
            bool all_transient = !rec.erased.empty();
            for (const std::uint32_t col : rec.erased) {
                if (rec.statuses[col] != io_status::transient_error) {
                    all_transient = false;
                }
            }
            if (all_transient) {
                ++summary.skipped_transient;
            } else {
                ++summary.skipped_degraded;
            }
        } else {
            // Classification ran and could not produce a verified
            // stripe: more corrupt columns than erasure decoding can
            // carry, with parity refusing to corroborate the bytes.
            ++summary.uncorrectable;
        }
        return;
    }

    summary.repaired_metadata += rec.meta_repaired.size();
    for (const std::uint32_t col : rec.healed) {
        if (col < k) {
            ++summary.repaired_data;
        } else {
            ++summary.repaired_parity;
        }
    }
    if (!rec.erased.empty()) {
        // Degraded stripe scrubbed anyway — the checksum layer
        // pinpoints corruption without needing every column, which the
        // parity cross-check never could.
        ++summary.degraded_scrubbed;
        summary.repaired_on_degraded += rec.healed.size();
        return;
    }
    if (rec.healed.empty() && rec.meta_repaired.empty()) {
        // Checksums call the stripe clean. Cross-check parity anyway
        // (Section 5): this is the fallback that catches damage the
        // checksum domain cannot see, e.g. corruption that struck data
        // and its stored checksum consistently. Its bytes are charged to
        // the cross-check bucket, not the scrub-throughput figure.
        summary.scrub_bytes_crosscheck +=
            static_cast<std::size_t>(array.map().n()) * strip;
        // The survivors are views of the medium, and the parity fallback
        // corrects in place: only a stripe whose parity disagrees is
        // copied (rare), and its correction is stored from the copy.
        if (consistent) {
            ++summary.clean;
            return;
        }
        codes::stripe_buffer copy = array.make_stripe_buffer();
        const codes::stripe_view v = copy.view();
        for (std::uint32_t c = 0; c < array.map().n(); ++c) {
            std::memcpy(v.strip(c).data(), rec.cols[c], strip);
        }
        const core::scrub_report report =
            core::scrub_stripe(v, array.code().geom());
        switch (report.status) {
            case core::scrub_status::clean:
                ++summary.clean;
                break;
            case core::scrub_status::corrected_data: {
                ++summary.repaired_data;
                ++summary.parity_fallback_repairs;
                const std::uint32_t cols[] = {report.column};
                array.store_columns(s, v, cols);
                break;
            }
            case core::scrub_status::corrected_p: {
                ++summary.repaired_parity;
                ++summary.parity_fallback_repairs;
                const std::uint32_t cols[] = {array.code().p_column()};
                array.store_columns(s, v, cols);
                break;
            }
            case core::scrub_status::corrected_q: {
                ++summary.repaired_parity;
                ++summary.parity_fallback_repairs;
                const std::uint32_t cols[] = {array.code().q_column()};
                array.store_columns(s, v, cols);
                break;
            }
            case core::scrub_status::uncorrectable:
                ++summary.uncorrectable;
                break;
        }
    }
}

}  // namespace

scrub_summary scrub_array(raid6_array& array) {
    scrub_summary summary;
    const std::size_t stripes = array.map().stripes();

    // One pass-level trace span plus a per-stripe latency histogram. The
    // histogram reference is resolved once per pass (registry lookups
    // take a mutex; the stripe loop must not). The per-stripe sample
    // covers the stripe's ordered commit (write-back, parity-fallback
    // repair, accounting) — the loads were prefetched a window ahead and
    // show up in the aio_* stage histograms, and the verification runs
    // in the window's parallel compute.
    obs::hub& hub = array.obs();
    obs::latency_histogram& stripe_hist =
        hub.metrics().get_histogram("raid_scrub_stripe_ns");
    obs::timed_span pass_span(hub, nullptr, "raid.scrub_pass", "scrub");

    // The loader fetches a whole window of stripes ahead of
    // verification, one merged transfer per disk. The window's stripes
    // are verified, decoded and parity cross-checked in parallel; the
    // write-backs and the accounting below consume them in stripe order
    // on this thread. Journaled (torn) stripes are counted and left to
    // write-hole recovery: picked out before the loader starts (a scrub
    // journals nothing), so the computes never read the journal.
    const std::vector<std::size_t> journaled = array.journal().dirty_stripes();
    const auto is_journaled = [&](std::size_t s) {
        return std::find(journaled.begin(), journaled.end(), s) !=
               journaled.end();
    };
    aio::stripe_loader loader(array.aio_engine(), array.map());
    array.reserve_scratch(loader.window());
    std::vector<raid6_array::stripe_recovery> recs(loader.window());
    std::vector<std::uint8_t> consistent(loader.window());
    loader.run(
        0, stripes, /*select=*/nullptr,
        /*compute=*/
        [&](std::size_t s, std::size_t slot,
            std::span<const std::byte* const> views,
            std::vector<io_status>& statuses) {
            if (is_journaled(s)) return;
            raid6_array::stripe_recovery& rec = recs[slot];
            rec = array.recover_loaded_stripe(s, views, {},
                                              std::move(statuses), slot);
            consistent[slot] =
                rec.ok && rec.erased.empty() && rec.healed.empty() &&
                rec.meta_repaired.empty() &&
                core::stripe_consistent(array.as_stripe(rec.cols),
                                        array.code().geom());
        },
        /*commit=*/
        [&](std::size_t s, std::size_t slot,
            std::span<const std::byte* const>, std::vector<io_status>&) {
            ++summary.stripes_scanned;
            if (is_journaled(s)) {
                ++summary.skipped_torn;
                return;
            }
            obs::timed_span span(hub, &stripe_hist, "scrub.stripe",
                                 "scrub");
            array.write_back(s, recs[slot]);
            account_stripe(array, summary, s, recs[slot],
                           consistent[slot] != 0);
        });
    array.note_scrub_bytes(summary.scrub_bytes_single_pass,
                           summary.scrub_bytes_crosscheck);
    return summary;
}

}  // namespace liberation::raid
