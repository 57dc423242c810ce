// Hybrid single-column rebuild: recover an erased data column reading
// fewer elements than the conventional all-row-parity rebuild.
//
// Rebuilding a single data column via row parity alone reads every row of
// every surviving column — k*p elements per stripe. But each missing
// element can equally be recovered along its anti-diagonal; rows recovered
// via rows and rows recovered via anti-diagonals *share* many surviving
// elements, so choosing a good mix shrinks the union of elements that must
// be read (the classic RDOR-style I/O optimization, here adapted to the
// Liberation geometry as a beyond-paper extension: in a disk array, fewer
// reads means faster rebuild and less interference with foreground I/O).
//
// The planner greedily flips per-row choices (row vs anti-diagonal) until
// the cost stops falling: elements read plus one per run of consecutive
// rows read in a column, since each run is one disk I/O. At k = p it reads
// 24-25% fewer elements than an all-rows rebuild, close to the known bound
// for RDP-like geometries; counting runs gives up ~1 element of that for
// far fewer I/Os (k = 6, p = 7: 7.8 runs instead of 12.7).
#pragma once

#include <cstdint>
#include <vector>

#include "liberation/codes/stripe.hpp"
#include "liberation/core/geometry.hpp"

namespace liberation::core {

struct hybrid_plan {
    std::uint32_t column = 0;          ///< the erased data column
    std::vector<bool> via_row;         ///< per row: true = row parity
    /// The elements to read, column-major over the k + 2 codeword columns
    /// (k is P, k + 1 is Q): read_rows[col * p + row] = 1 when read.
    std::vector<std::uint8_t> read_rows;
    std::size_t reads = 0;             ///< elements to read
    std::size_t baseline_reads = 0;    ///< all-rows rebuild read count (k*p)

    [[nodiscard]] double savings() const noexcept {
        if (baseline_reads == 0) return 0.0;
        return 1.0 - static_cast<double>(reads) /
                         static_cast<double>(baseline_reads);
    }
};

/// Plan the I/O-minimizing rebuild of data column l (l < k): fewest
/// elements read plus runs of them (see the file comment).
[[nodiscard]] hybrid_plan plan_hybrid_rebuild(const geometry& g,
                                              std::uint32_t l);

/// Execute a plan: rebuild column l of the stripe in place, touching only
/// the planned elements plus the erased column itself.
void rebuild_column_hybrid(const codes::stripe_view& s, const geometry& g,
                           const hybrid_plan& plan);

}  // namespace liberation::core
