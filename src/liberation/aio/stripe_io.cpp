#include "liberation/aio/stripe_io.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "liberation/util/assert.hpp"
#include "liberation/xorops/xorops.hpp"

namespace liberation::aio {

namespace {

// One window's compute: items [0, count) are claimed in order by the
// window's caller and by any helper that joins it.
struct window_job {
    window_job(std::size_t n, const std::function<void(std::size_t)>& fn)
        : count(n), compute(fn), done(new std::atomic<bool>[n]) {
        for (std::size_t i = 0; i < n; ++i) done[i] = false;
    }

    const std::size_t count;
    const std::function<void(std::size_t)>& compute;
    std::atomic<std::size_t> next{0};
    std::unique_ptr<std::atomic<bool>[]> done;
    std::size_t users = 0;     ///< helpers inside it (pool mutex)
    std::atomic<bool> failed{false};
    std::exception_ptr error;  ///< first compute failure (pool mutex)
};

// The process's compute helpers. Idle helpers sleep on work_cv_; a caller
// posts its window, works on it itself, and withdraws it before
// returning, so progress never depends on a helper being free.
class helper_pool {
public:
    static helper_pool& shared() {
        static helper_pool pool;
        return pool;
    }

    helper_pool(const helper_pool&) = delete;
    helper_pool& operator=(const helper_pool&) = delete;

    ~helper_pool() {
        {
            const std::lock_guard<std::mutex> l(mu_);
            stop_ = true;
        }
        work_cv_.notify_all();
        for (std::thread& t : threads_) t.join();
    }

    std::size_t started() {
        const std::lock_guard<std::mutex> l(mu_);
        return threads_.size();
    }

    /// compute(i) for every i in [0, count) on the caller and up to
    /// `helpers` helpers; commit(i) on the caller, in order, once items
    /// <= i are computed.
    void run(std::size_t count, std::size_t helpers,
             const std::function<void(std::size_t)>& compute,
             const std::function<void(std::size_t)>& commit) {
        window_job job(count, compute);
        const bool posted = helpers > 0 && count > 1;
        if (posted) {
            {
                const std::lock_guard<std::mutex> l(mu_);
                while (threads_.size() < helpers) {
                    threads_.emplace_back([this] { helper_main(); });
                }
                jobs_.push_back(&job);
            }
            work_cv_.notify_all();
        }
        {
            // However the walk ends, no helper may still hold the job.
            struct withdraw {
                helper_pool& pool;
                window_job& job;
                bool posted;
                ~withdraw() {
                    if (!posted) return;
                    std::unique_lock<std::mutex> l(pool.mu_);
                    pool.jobs_.erase(std::find(pool.jobs_.begin(),
                                               pool.jobs_.end(), &job));
                    pool.done_cv_.wait(l, [&] { return job.users == 0; });
                }
            } guard{*this, job, posted};
            for (std::size_t i = 0; i < count; ++i) {
                // Help with the window until item i is computed.
                while (!job.done[i].load(std::memory_order_acquire)) {
                    if (work_one(job)) continue;
                    std::unique_lock<std::mutex> l(mu_);
                    done_cv_.wait(l, [&] {
                        return job.done[i].load(std::memory_order_acquire);
                    });
                }
                if (job.failed.load(std::memory_order_acquire)) break;
                commit(i);
            }
        }
        if (job.error) std::rethrow_exception(job.error);
    }

private:
    helper_pool() = default;

    /// Claim and compute the job's next item; false when none is left.
    bool work_one(window_job& job) {
        const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= job.count) return false;
        try {
            job.compute(i);
        } catch (...) {
            const std::lock_guard<std::mutex> l(mu_);
            if (!job.error) job.error = std::current_exception();
            job.failed.store(true, std::memory_order_release);
        }
        {
            const std::lock_guard<std::mutex> l(mu_);
            job.done[i].store(true, std::memory_order_release);
        }
        done_cv_.notify_all();
        return true;
    }

    void helper_main() {
        std::unique_lock<std::mutex> l(mu_);
        for (;;) {
            window_job* job = nullptr;
            work_cv_.wait(l, [&] {
                const auto open = std::find_if(
                    jobs_.begin(), jobs_.end(), [](const window_job* j) {
                        return j->next.load(std::memory_order_relaxed) <
                               j->count;
                    });
                job = open == jobs_.end() ? nullptr : *open;
                return job != nullptr || stop_;
            });
            if (job == nullptr) return;
            ++job->users;
            l.unlock();
            while (work_one(*job)) {
            }
            l.lock();
            if (--job->users == 0) done_cv_.notify_all();
        }
    }

    std::mutex mu_;
    std::condition_variable work_cv_;  ///< helpers: a job was posted
    std::condition_variable done_cv_;  ///< callers: an item or user done
    std::vector<window_job*> jobs_;
    std::vector<std::thread> threads_;
    bool stop_ = false;
};

}  // namespace

// ---- stripe_loader ----------------------------------------------------

stripe_loader::stripe_loader(queue_pair& qp, const raid::stripe_map& map)
    : qp_(qp),
      map_(map),
      window_(std::max<std::size_t>(1, qp.config().queue_depth)),
      helpers_(std::min<std::size_t>(
                   std::max(1u, std::thread::hardware_concurrency()),
                   window_) -
               1),
      statuses_(window_),
      views_(window_ * map.n()),
      rows_(static_cast<std::size_t>(map.n()) * map.rows()) {}

std::size_t stripe_loader::helpers_started() {
    return helper_pool::shared().started();
}

void stripe_loader::run(std::size_t first, std::size_t last,
                        const row_select& select, const stripe_fn& compute,
                        const stripe_fn& commit) {
    const std::uint32_t n = map_.n();
    const std::uint32_t rows = map_.rows();
    const std::size_t elem = map_.element_size();
    for (std::size_t w0 = first; w0 < last; w0 += window_) {
        const std::size_t w1 = std::min(w0 + window_, last);

        // Submission pass: stripe-major order still lands disk-major on
        // the per-disk rings, where consecutive stripes are adjacent on
        // the medium — one merged transfer per disk.
        for (std::size_t s = w0; s < w1; ++s) {
            const std::size_t slot = s - w0;
            // A column with no row selected is not read on purpose (e.g. a
            // rebuild target): it reports the erasure the array would have
            // reported for its masked strip.
            statuses_[slot].assign(n, raid::io_status::rebuilding);
            std::fill(rows_.begin(), rows_.end(), std::uint8_t{1});
            if (select) select(s, slot, rows_);
            for (std::uint32_t col = 0; col < n; ++col) {
                views_[slot * n + col] = nullptr;
                const std::uint8_t* sel = rows_.data() + col * rows;
                const raid::strip_location loc = map_.locate(s, col);
                for (std::uint32_t r0 = 0, r1 = 0; r0 < rows; r0 = r1) {
                    while (r1 < rows && sel[r1] == sel[r0]) ++r1;
                    if (sel[r0] == 0) continue;  // a gap
                    statuses_[slot][col] = raid::io_status::ok;
                    io_desc d;
                    d.disk = loc.disk;
                    d.kind = op_kind::view;
                    d.offset = loc.offset + r0 * elem;
                    d.len = (r1 - r0) * elem;
                    d.user_data = (slot * n + col) * rows + r0;
                    qp_.submit(d);
                }
            }
        }
        qp_.drain();
        for (const io_cqe& c : qp_.completions()) {
            // The column's first failing view decides its status; views
            // of one strip are slices of it on the medium, so the strip
            // starts r0 elements before a view of row r0.
            const std::size_t at = c.user_data / rows;
            raid::io_status& st = statuses_[at / n][at % n];
            if (st != raid::io_status::ok) continue;
            st = c.status;
            views_[at] = c.status == raid::io_status::ok
                             ? c.data - (c.user_data % rows) * elem
                             : nullptr;
        }
        qp_.clear_completions();

        // Consumption: the window's computes in parallel, its commits in
        // stripe order on this thread.
        const std::span<const std::byte* const> all(views_);
        helper_pool::shared().run(
            w1 - w0, helpers_,
            [&](std::size_t slot) {
                compute(w0 + slot, slot, all.subspan(slot * n, n),
                        statuses_[slot]);
            },
            [&](std::size_t slot) {
                commit(w0 + slot, slot, all.subspan(slot * n, n),
                       statuses_[slot]);
            });
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
