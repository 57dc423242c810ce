// Minimal fixed-size thread pool: the aio queue pair's optional workers
// (per-disk batches of one array execute on it). The volume's per-shard
// dispatchers are not pools: they hand off by polling a sequence word
// before they sleep (volume::shard_dispatcher).
//
// Deliberately simple (Core Guidelines CP.4: think in tasks): callers submit
// void() tasks and wait_idle() for the pool to drain; no futures, no dynamic
// resizing, no work stealing. Tasks are coarse-grained (a disk batch), so a
// mutex-guarded deque is not a bottleneck.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace liberation::util {

class thread_pool {
public:
    /// Spawns `threads` workers (0 -> hardware concurrency, min 1).
    explicit thread_pool(std::size_t threads = 0);

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    ~thread_pool();

    [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

    /// Enqueue one task. Thread-safe.
    void submit(std::function<void()> task);

    /// Block until every submitted task has finished executing.
    void wait_idle();

private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_task_;
    std::condition_variable cv_idle_;
    std::size_t in_flight_ = 0;
    bool stop_ = false;
};

}  // namespace liberation::util
