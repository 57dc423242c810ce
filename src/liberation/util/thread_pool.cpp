#include "liberation/util/thread_pool.hpp"

#include <algorithm>

#include "liberation/util/assert.hpp"

namespace liberation::util {

thread_pool::thread_pool(std::size_t threads) {
    if (threads == 0) {
        threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

thread_pool::~thread_pool() {
    {
        std::lock_guard lock(mutex_);
        stop_ = true;
    }
    cv_task_.notify_all();
    for (auto& w : workers_) w.join();
}

void thread_pool::submit(std::function<void()> task) {
    {
        std::lock_guard lock(mutex_);
        LIBERATION_EXPECTS(!stop_);
        queue_.push_back(std::move(task));
        ++in_flight_;
    }
    cv_task_.notify_one();
}

void thread_pool::wait_idle() {
    std::unique_lock lock(mutex_);
    cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void thread_pool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock lock(mutex_);
            cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty()) {
                if (stop_) return;
                continue;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
        {
            std::lock_guard lock(mutex_);
            --in_flight_;
            if (in_flight_ == 0) cv_idle_.notify_all();
        }
    }
}

}  // namespace liberation::util
