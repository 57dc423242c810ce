// Incremental parity update — the Liberation codes' headline property
// (paper Section I: changing a data block updates only 2 parity blocks,
// the theoretical lower bound for RAID-6 [13]).
//
// For a data element delta at (i, j):
//   * P_i always absorbs delta;
//   * the normal anti-diagonal Q_<i-j> always absorbs delta;
//   * iff (i, j) is an extra-bit position, the hosting anti-diagonal
//     Q_{extra_q_index(j)} absorbs it too.
// Exactly k-1 of the k*p data positions are extra bits, so the average
// update cost is 2 + (k-1)/(kp) ~= 2.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "liberation/codes/stripe.hpp"
#include "liberation/core/geometry.hpp"

namespace liberation::core {

/// One parity element: codeword column (k = P, k+1 = Q) and row.
struct parity_element {
    std::uint32_t col;
    std::uint32_t row;
};

/// The parity elements one data-element change patches, in patch order:
/// P_row, the normal anti-diagonal, then (extra-bit positions only) the
/// hosting anti-diagonal.
struct update_set {
    std::array<parity_element, 3> elems{};
    std::uint32_t count = 0;

    [[nodiscard]] const parity_element* begin() const noexcept {
        return elems.data();
    }
    [[nodiscard]] const parity_element* end() const noexcept {
        return elems.data() + count;
    }
    [[nodiscard]] std::uint32_t size() const noexcept { return count; }
};

/// The update rule itself: the 2 or 3 parity elements a change of data
/// element (row, col) must patch. apply_update, update_cost and the
/// array's small write all read it from here.
[[nodiscard]] update_set update_targets(const geometry& g, std::uint32_t row,
                                        std::uint32_t col) noexcept;

/// Patch the parity columns for a data-element change. `delta` is
/// old ^ new of element (row, col); the data element itself is untouched.
/// Returns the number of parity elements modified (2 or 3).
std::uint32_t apply_update(const codes::stripe_view& s, const geometry& g,
                           std::uint32_t row, std::uint32_t col,
                           std::span<const std::byte> delta);

/// Exact parity-update cost of position (row, col) without touching data.
[[nodiscard]] std::uint32_t update_cost(const geometry& g, std::uint32_t row,
                                        std::uint32_t col) noexcept;

}  // namespace liberation::core
