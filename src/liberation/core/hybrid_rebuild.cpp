#include "liberation/core/hybrid_rebuild.hpp"

#include <vector>

#include "liberation/util/assert.hpp"
#include "liberation/xorops/xorops.hpp"

namespace liberation::core {

namespace {

/// f(col, row) for each element read when recovering row i of column l:
/// along its row parity, or along its anti-diagonal.
template <class F>
void for_each_read(const geometry& g, std::uint32_t l, std::uint32_t i,
                   bool via_row, F&& f) {
    if (via_row) {
        for (std::uint32_t j = 0; j < g.k(); ++j) {
            if (j != l) f(j, i);
        }
        f(g.k(), i);  // P_i
        return;
    }
    const std::uint32_t q = g.diag_of(i, l);
    for (std::uint32_t j = 0; j < g.k(); ++j) {
        if (j != l) f(j, g.diag_member_row(q, j));
    }
    if (q != 0) {
        const std::uint32_t y = g.mod(-2 * static_cast<std::int64_t>(q));
        if (y != 0 && y < g.k() && y != l) f(y, g.extra_row(y));
    }
    f(g.k() + 1, q);  // Q_q
}

/// Row that may not use its anti-diagonal: the diagonal whose extra bit
/// lies in the erased column itself carries two unknowns.
std::uint32_t forbidden_diag_row(const geometry& g, std::uint32_t l) {
    if (l == 0) return g.p();  // no extra bit in column 0: nothing forbidden
    return g.diag_member_row(g.extra_q_index(l), l);
}

}  // namespace

hybrid_plan plan_hybrid_rebuild(const geometry& g, std::uint32_t l) {
    LIBERATION_EXPECTS(l < g.k());
    const std::uint32_t p = g.p();

    hybrid_plan plan;
    plan.column = l;
    plan.via_row = std::vector<bool>(p, true);
    plan.baseline_reads = static_cast<std::size_t>(g.k()) * p;

    // How many chosen equations read each element (column-major), and what
    // the plan costs: every element read, plus one per run of consecutive
    // rows read in a column, since each run is one disk I/O (the stripe
    // loader views it separately). A flip is priced in O(k).
    std::vector<std::uint32_t> uses(static_cast<std::size_t>(g.k() + 2) * p);
    std::size_t cost = 0;
    const auto read = [&](std::uint32_t c, std::uint32_t r) -> std::size_t {
        return r < p && uses[c * p + r] != 0 ? 1 : 0;  // r = -1 wraps past p
    };
    const auto add = [&](std::uint32_t i, bool via_row) {
        for_each_read(g, l, i, via_row, [&](std::uint32_t c, std::uint32_t r) {
            if (uses[c * p + r]++ == 0) {
                cost += 2 - read(c, r - 1) - read(c, r + 1);
            }
        });
    };
    const auto drop = [&](std::uint32_t i, bool via_row) {
        for_each_read(g, l, i, via_row, [&](std::uint32_t c, std::uint32_t r) {
            if (--uses[c * p + r] == 0) {
                cost -= 2 - read(c, r - 1) - read(c, r + 1);
            }
        });
    };
    for (std::uint32_t i = 0; i < p; ++i) add(i, true);

    // Greedy local search: flip the single row whose flip lowers the cost
    // the most; stop at a local optimum. p flips max per round, at most p
    // rounds.
    const std::uint32_t forbidden = forbidden_diag_row(g, l);
    std::size_t best = cost;
    for (;;) {
        std::size_t round_best = best;
        std::uint32_t round_row = p;
        for (std::uint32_t i = 0; i < p; ++i) {
            if (!plan.via_row[i] || i == forbidden) continue;  // flip row->diag only
            drop(i, true);
            add(i, false);
            if (cost < round_best) {
                round_best = cost;
                round_row = i;
            }
            drop(i, false);
            add(i, true);
        }
        if (round_row == p) break;
        plan.via_row[round_row] = false;
        drop(round_row, true);
        add(round_row, false);
        best = round_best;
    }

    plan.read_rows.resize(uses.size());
    for (std::size_t at = 0; at < uses.size(); ++at) {
        plan.read_rows[at] = uses[at] != 0 ? 1 : 0;
        plan.reads += plan.read_rows[at];
    }
    return plan;
}

void rebuild_column_hybrid(const codes::stripe_view& s, const geometry& g,
                           const hybrid_plan& plan) {
    LIBERATION_EXPECTS(plan.via_row.size() == g.p());
    const std::byte* srcs[max_p + 2];
    for (std::uint32_t i = 0; i < g.p(); ++i) {
        std::size_t m = 0;
        for_each_read(g, plan.column, i, plan.via_row[i],
                      [&](std::uint32_t c, std::uint32_t r) {
                          srcs[m++] = s.element(r, c);
                      });
        xorops::xor_many(s.element(i, plan.column), srcs, m,
                         s.element_size());
    }
}

}  // namespace liberation::core
