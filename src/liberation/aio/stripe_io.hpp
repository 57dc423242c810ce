// Completion-driven stripe engines over a queue_pair.
//
// Two state machines turn stripe-granular work into batched per-disk
// submissions:
//
//   * stripe_loader — window-prefetches stripes for sequential consumers
//     (rebuild slices, scrub passes). It submits views, not reads: no
//     byte is copied and the loader owns no buffers. A column is one view
//     per run of the rows the consumer selects (all: one strip view). A
//     window's strips on one disk are consecutive on the medium, so the
//     queue_pair coalesces them into one transfer per disk; each
//     completed view points at its bytes where they sit, valid for the
//     window. The consumer comes in two halves. The per-stripe *compute*
//     (verify, decode, re-verify) runs for every stripe of the window at
//     once, on the calling thread plus helper threads shared by the whole
//     process; it must touch only its own stripe's bytes, checksum words
//     and slot scratch, plus relaxed counters. The ordered *commit* (every
//     write, persist, heal and accounting step) runs on the calling thread
//     in stripe order: stripe s commits as soon as stripes <= s are
//     computed. So every fault draw, write and journal change happens in
//     the order a serial walk makes it.
//
//   * stripe_writer — pipelines full-stripe writes. Data columns are
//     submitted zero-copy straight from the host's buffer (when
//     xorops::reads_in_place allows it; otherwise they are staged into
//     reused slots) and carry no checksum words: the copy onto the medium
//     computes them as the bytes land. Parity is encoded, with its words,
//     into writer-owned staging slots *after* the data submissions are
//     already in flight, and follows them into the same drain window.
//
// Both windows are the queue_pair's queue depth; depth 1 is a window of
// one stripe, run through the same code.
//
// Neither engine interprets I/O results: per-column statuses are handed
// back to the caller, which owns classification (the array's
// checksum-first recovery), journaling, and failure accounting.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "liberation/aio/queue_pair.hpp"
#include "liberation/raid/stripe_map.hpp"
#include "liberation/util/aligned_buffer.hpp"

namespace liberation::aio {

/// Window-prefetching stripe reader (see file comment).
class stripe_loader {
public:
    /// The window size (stripes in flight) is the queue_pair's configured
    /// queue depth: each stripe contributes exactly one strip per disk, so
    /// a window fills every disk's in-flight ring exactly once.
    stripe_loader(queue_pair& qp, const raid::stripe_map& map);

    /// Stripes per window; a stripe's window slot is its index in it.
    [[nodiscard]] std::size_t window() const noexcept { return window_; }

    /// One half of the consumer: `slot` is the stripe's window slot,
    /// `views[col]` points at column `col`'s strip on the medium (null
    /// unless all its views completed ok; read-only, valid until the
    /// window's last commit returns; only selected rows may be read),
    /// `statuses` each column's first non-ok view status (else ok). The
    /// compute may move from the vector; the commit then sees what it
    /// left.
    using stripe_fn = std::function<void(
        std::size_t stripe, std::size_t slot,
        std::span<const std::byte* const> views,
        std::vector<raid::io_status>& statuses)>;
    /// Row selection of one stripe, called on the calling thread just
    /// before its views are submitted: `rows[col * R + r]` (R = rows per
    /// strip) arrives as 1 for every row; clearing a flag leaves that
    /// element unviewed. A column with no row left is not viewed at all,
    /// and reports io_status::rebuilding (an erasure), exactly what the
    /// array reports for a rebuild target's masked strip.
    using row_select = std::function<void(
        std::size_t stripe, std::size_t slot, std::span<std::uint8_t> rows)>;

    /// Walk stripes [first, last): prefetch each window with one drain,
    /// run `compute` for every stripe of it in parallel (the calling
    /// thread plus min(hardware threads, window) - 1 shared helpers,
    /// started on first use; a window of one starts none), and `commit`
    /// each stripe on the calling thread in stripe order once it and
    /// every stripe before it are computed. `select` may be null (every
    /// row of every column). An exception thrown by a compute is rethrown
    /// here, after the window's helpers have let go of it.
    void run(std::size_t first, std::size_t last, const row_select& select,
             const stripe_fn& compute, const stripe_fn& commit);

    /// Helper threads the process has started so far (they are shared by
    /// every loader and live until exit).
    [[nodiscard]] static std::size_t helpers_started();

private:
    queue_pair& qp_;
    const raid::stripe_map& map_;
    std::size_t window_;
    std::size_t helpers_;  ///< min(hardware threads, window) - 1
    std::vector<std::vector<raid::io_status>> statuses_;  ///< per slot
    std::vector<const std::byte*> views_;  ///< window x n, slot-major
    std::vector<std::uint8_t> rows_;       ///< one stripe's row selection
};

/// Pipelined full-stripe writer (see file comment). The caller drives the
/// per-stripe protocol:
///
///     auto cols = writer.stage(slot, host_bytes);      // column pointers
///     writer.submit_columns(stripe, cols, 0, k);       // data in flight
///     code.encode(view over cols);                     // overlap: parity
///     writer.submit_columns(stripe, cols, k, n);       // parity follows
///     ...
///     writer.drain();                                  // window barrier
///
/// Journaling, write-failure policy, and stats stay with the caller.
class stripe_writer {
public:
    /// Parity checksums are staged with parity, one CRC32C per
    /// `crc_block` bytes (>= 1, must divide the strip size): the caller
    /// encodes parity with its fused encode_crc into parity_crcs(slot, 0)
    /// / parity_crcs(slot, 1), and submit_columns() attaches them to the
    /// parity writes via io_desc::crcs. Data writes carry none
    /// (io_desc::crcs null): the landing copy computes their words, so no
    /// column is swept just for its checksum.
    stripe_writer(queue_pair& qp, const raid::stripe_map& map,
                  std::size_t crc_block);

    /// Stripes per drain window (the queue_pair's queue depth).
    [[nodiscard]] std::size_t window() const noexcept { return window_; }

    /// True when data columns are submitted directly from the host buffer
    /// (xorops::reads_in_place: otherwise the encoder could read past the
    /// host allocation).
    [[nodiscard]] bool zero_copy() const noexcept { return zero_copy_; }

    /// Bind window slot `slot` to one stripe's host bytes (k contiguous
    /// strips in codeword-column order) and return the n column pointers:
    /// data either aliases `host` (zero-copy) or is copied into staging;
    /// parity always points at staging for the encoder to fill. Pointers
    /// stay valid until the next drain().
    std::span<std::byte* const> stage(std::size_t slot, const std::byte* host);

    /// Checksum words of window slot `slot`, parity column `j` (0 = P,
    /// 1 = Q; one per crc_block of the strip, strip byte order): the
    /// caller's to fill (encode_crc) before submitting the parity.
    [[nodiscard]] std::uint32_t* parity_crcs(std::size_t slot,
                                             std::uint32_t j) noexcept {
        return crcs_.data() + (slot * 2 + j) * strip_blocks_;
    }

    /// Submit the write for columns [begin_col, end_col) of window slot
    /// `slot` (stripe `stripe`) using the pointers returned by stage().
    /// Writes are never coalesced — the power-loss budget counts
    /// individual disk writes — so each column is one submission on its
    /// disk's ring.
    void submit_columns(std::size_t stripe, std::size_t slot,
                        std::span<std::byte* const> cols,
                        std::uint32_t begin_col, std::uint32_t end_col);

    /// Drain the window. Completion statuses are discarded: a full-stripe
    /// write's contract is journal-mark → best-effort store → clear, with
    /// failed columns simply missing the update (the stripe stays
    /// decodable while <= 2 columns are down) — the caller checks
    /// failed_disk_count() afterwards.
    void drain();

private:
    queue_pair& qp_;
    const raid::stripe_map& map_;
    std::size_t window_;
    bool zero_copy_;
    std::size_t strip_blocks_;           ///< checksum words per strip
    util::aligned_buffer parity_stage_;  ///< window x 2 strips
    util::aligned_buffer data_stage_;    ///< window x k strips (copy mode)
    std::vector<std::byte*> ptrs_;       ///< window x n column pointers
    std::vector<std::uint32_t> crcs_;    ///< window x 2 x strip_blocks_
};

}  // namespace liberation::aio
