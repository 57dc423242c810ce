#include "liberation/core/update.hpp"

#include "liberation/util/assert.hpp"
#include "liberation/xorops/xorops.hpp"

namespace liberation::core {

update_set update_targets(const geometry& g, std::uint32_t row,
                          std::uint32_t col) noexcept {
    LIBERATION_EXPECTS(row < g.p() && col < g.k());
    const std::uint32_t pc = g.k();
    const std::uint32_t qc = g.k() + 1;
    update_set t;
    t.elems[t.count++] = {pc, row};
    t.elems[t.count++] = {qc, g.diag_of(row, col)};
    if (g.is_extra_position(row, col)) {
        t.elems[t.count++] = {qc, g.extra_q_index(col)};
    }
    return t;
}

std::uint32_t apply_update(const codes::stripe_view& s, const geometry& g,
                           std::uint32_t row, std::uint32_t col,
                           std::span<const std::byte> delta) {
    LIBERATION_EXPECTS(delta.size() == s.element_size());
    // One broadcast: the delta is read once and scattered into every parity
    // element it touches. Counted as 2 or 3 XORs, exactly as the separate
    // xor_into chain it replaces.
    const update_set targets = update_targets(g, row, col);
    std::byte* dsts[3];
    std::uint32_t touched = 0;
    for (const parity_element& e : targets) {
        dsts[touched++] = s.element(e.row, e.col);
    }
    xorops::xor_broadcast(dsts, touched, delta.data(), s.element_size());
    return touched;
}

std::uint32_t update_cost(const geometry& g, std::uint32_t row,
                          std::uint32_t col) noexcept {
    return update_targets(g, row, col).size();
}

}  // namespace liberation::core
