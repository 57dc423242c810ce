// Rebuild engine: reconstructs the contents of replaced disks stripe by
// stripe, using the optimal Liberation decoder. The surviving columns are
// window-prefetched through the array's aio stripe_loader on the thread
// that runs the rebuild; io_queue_depth sets the window, and depth 1 is a
// window of one stripe. A stripe whose one target is a data column, with
// every other member readable and no journal entry, views only the
// elements of the column's I/O-optimal row/anti-diagonal plan
// (core/hybrid_rebuild.hpp) and falls back to the whole stripe when any
// of them, or the reconstruction, fails verification.
//
// This is where decoding throughput (paper Figs. 12-13) translates into an
// operational metric: rebuild time under one- and two-disk failures.
#pragma once

#include <cstdint>
#include <limits>

#include "liberation/raid/array.hpp"

namespace liberation::raid {

struct rebuild_result {
    static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

    std::size_t stripes_rebuilt = 0;
    std::size_t columns_rebuilt = 0;
    /// Stripes that could not be reconstructed (> 2 unavailable columns or
    /// a failed write-back). One unreadable stripe is partial data loss;
    /// callers can tell it apart from total loss instead of a bare flag.
    std::size_t stripes_failed = 0;
    /// Lowest-numbered failing stripe, npos when stripes_failed == 0.
    std::size_t first_failed_stripe = npos;
    std::uint64_t bytes_written = 0;
    double seconds = 0.0;
    bool success = false;  ///< stripes_failed == 0

    [[nodiscard]] double throughput_gbps() const noexcept {
        return seconds > 0 ? static_cast<double>(bytes_written) / seconds / 1e9
                           : 0.0;
    }
};

/// Rebuild every stripe column residing on the given (already replaced)
/// disks. Stripes with more than two unavailable columns are counted in
/// `stripes_failed` (success = false) but the rest of the disk is still
/// rebuilt.
rebuild_result rebuild_disks(raid6_array& array,
                             std::span<const std::uint32_t> replaced_disks);

/// Rebuild only stripes [first, last) — the incremental unit behind the
/// array's background hot-spare rebuild, which interleaves batches of
/// stripes with foreground I/O (md's recovery window).
rebuild_result rebuild_stripe_range(raid6_array& array,
                                    std::span<const std::uint32_t> replaced_disks,
                                    std::size_t first, std::size_t last);

/// Convenience: fail + replace + rebuild one disk.
rebuild_result fail_replace_rebuild(raid6_array& array, std::uint32_t disk);

}  // namespace liberation::raid
