#include "liberation/aio/stripe_io.hpp"

#include <algorithm>

#include "liberation/util/assert.hpp"
#include "liberation/xorops/xorops.hpp"

namespace liberation::aio {

// ---- stripe_loader ----------------------------------------------------

stripe_loader::stripe_loader(queue_pair& qp, const raid::stripe_map& map)
    : qp_(qp),
      map_(map),
      window_(std::max<std::size_t>(1, qp.config().queue_depth)),
      statuses_(window_),
      views_(window_ * map.n()) {}

void stripe_loader::run(std::size_t first, std::size_t last,
                        const column_filter& skip_column,
                        const process_fn& process) {
    const std::uint32_t n = map_.n();
    for (std::size_t w0 = first; w0 < last; w0 += window_) {
        const std::size_t w1 = std::min(w0 + window_, last);

        // Submission pass: stripe-major order still lands disk-major on
        // the per-disk rings, where consecutive stripes are adjacent on
        // the medium — one merged transfer per disk.
        for (std::size_t s = w0; s < w1; ++s) {
            const std::size_t slot = s - w0;
            statuses_[slot].assign(n, raid::io_status::ok);
            for (std::uint32_t col = 0; col < n; ++col) {
                views_[slot * n + col] = nullptr;
                if (skip_column && skip_column(s, col)) {
                    // Not read on purpose (e.g. a rebuild target):
                    // reported as the erasure the array would have
                    // reported for its masked strip.
                    statuses_[slot][col] = raid::io_status::rebuilding;
                    continue;
                }
                const raid::strip_location loc = map_.locate(s, col);
                io_desc d;
                d.disk = loc.disk;
                d.kind = op_kind::view;
                d.offset = loc.offset;
                d.len = map_.strip_size();
                d.user_data = slot * n + col;
                qp_.submit(d);
            }
        }
        qp_.drain();
        for (const io_cqe& c : qp_.completions()) {
            statuses_[c.user_data / n][c.user_data % n] = c.status;
            views_[c.user_data] = c.data;
        }
        qp_.clear_completions();

        // Consumption pass, in stripe order.
        for (std::size_t s = w0; s < w1; ++s) {
            const std::size_t slot = s - w0;
            process(s, {views_.data() + slot * n, n}, statuses_[slot]);
        }
    }
}

// ---- stripe_writer ----------------------------------------------------

stripe_writer::stripe_writer(queue_pair& qp, const raid::stripe_map& map,
                             std::size_t crc_block)
    : qp_(qp),
      map_(map),
      window_(std::max<std::size_t>(1, qp.config().queue_depth)),
      zero_copy_(xorops::reads_in_place(map.element_size())),
      strip_blocks_(map.strip_size() / crc_block),
      parity_stage_(window_ * 2 * map.strip_size()),
      data_stage_(zero_copy_ ? 0 : window_ * map.k() * map.strip_size()),
      ptrs_(window_ * map.n()),
      crcs_(window_ * 2 * strip_blocks_) {
    LIBERATION_EXPECTS(crc_block != 0 && map.strip_size() % crc_block == 0);
}

std::span<std::byte* const> stripe_writer::stage(std::size_t slot,
                                                 const std::byte* host) {
    LIBERATION_EXPECTS(slot < window_);
    const std::size_t strip = map_.strip_size();
    const std::uint32_t k = map_.k();
    std::byte** cols = ptrs_.data() + slot * map_.n();
    for (std::uint32_t c = 0; c < k; ++c) {
        const std::byte* src = host + static_cast<std::size_t>(c) * strip;
        if (zero_copy_) {
            // The backend only reads write payloads; the host span stays
            // logically const.
            cols[c] = const_cast<std::byte*>(src);
        } else {
            std::byte* dst =
                data_stage_.data() + (slot * k + c) * strip;
            xorops::copy(dst, src, strip);
            cols[c] = dst;
        }
    }
    cols[k] = parity_stage_.data() + slot * 2 * strip;
    cols[k + 1] = cols[k] + strip;
    return {cols, map_.n()};
}

void stripe_writer::submit_columns(std::size_t stripe, std::size_t slot,
                                   std::span<std::byte* const> cols,
                                   std::uint32_t begin_col,
                                   std::uint32_t end_col) {
    const std::size_t strip = map_.strip_size();
    for (std::uint32_t c = begin_col; c < end_col; ++c) {
        const raid::strip_location loc = map_.locate(stripe, c);
        io_desc d;
        d.disk = loc.disk;
        d.kind = op_kind::write;
        d.offset = loc.offset;
        d.data = cols[c];
        d.len = strip;
        d.user_data = stripe;
        d.crcs = c < map_.k() ? nullptr : parity_crcs(slot, c - map_.k());
        qp_.submit(d);
    }
}

void stripe_writer::drain() {
    qp_.drain();
    qp_.clear_completions();
}

}  // namespace liberation::aio
