// A small reusable fork-join pool for the multi-tenant engine host.
//
// EngineHost (src/engine/host.h) loads, pumps, checkpoints and finishes
// its tenants' engines on one shared pool.  Each of those jobs is "N
// independent tasks, one per engine", and ParallelFor is built for
// exactly that shape and nothing more:
//
//  - `fn(index)` is called exactly once for every index in [0, n); each
//    task touches only its own engine or per-index slot, so results do
//    not depend on how the scheduler interleaves workers.
//  - Indices are claimed one at a time off a shared atomic cursor: the
//    tasks are few and coarse (one engine's pump), so balance matters
//    more than the cost of a claim.
//  - The caller participates, so a pool of N threads spawns N - 1
//    helpers, and a pool constructed with `threads <= 1` spawns nothing
//    and runs every task inline on the caller.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sld {

class ThreadPool {
 public:
  using Task = std::function<void(std::size_t index)>;

  // `threads` counts the caller: a pool of 4 spawns 3 helpers.
  // `threads <= 0` means one thread per hardware core.
  explicit ThreadPool(int threads) {
    if (threads <= 0) threads = static_cast<int>(HardwareThreads());
    const int helpers = threads > 1 ? threads - 1 : 0;
    workers_.reserve(static_cast<std::size_t>(helpers));
    for (int w = 0; w < helpers; ++w) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  // Runs fn(i) exactly once for every i in [0, n); returns when all
  // calls have finished.  The first exception thrown by a task is
  // rethrown here after the join.
  void ParallelFor(std::size_t n, const Task& fn) {
    if (n == 0) return;
    if (workers_.empty() || n == 1) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = &fn;
      total_ = n;
      next_.store(0, std::memory_order_relaxed);
      error_ = nullptr;
      ++generation_;
    }
    wake_.notify_all();
    Drain(fn);
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] {
      return next_.load(std::memory_order_relaxed) >= total_ && active_ == 0;
    });
    job_ = nullptr;
    if (error_ != nullptr) {
      std::exception_ptr err = error_;
      error_ = nullptr;
      lock.unlock();
      std::rethrow_exception(err);
    }
  }

 private:
  static unsigned HardwareThreads() {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
  }

  void WorkerLoop() {
    std::uint64_t seen = 0;
    for (;;) {
      const Task* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] {
          return stop_ || (generation_ != seen && job_ != nullptr);
        });
        if (stop_) return;
        seen = generation_;
        job = job_;
        ++active_;
      }
      Drain(*job);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --active_;
      }
      done_.notify_all();
    }
  }

  void Drain(const Task& fn) {
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= total_) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (error_ == nullptr) error_ = std::current_exception();
      }
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const Task* job_ = nullptr;
  std::atomic<std::size_t> next_{0};
  std::size_t total_ = 0;
  std::size_t active_ = 0;
  std::uint64_t generation_ = 0;
  std::exception_ptr error_ = nullptr;
  bool stop_ = false;
};

}  // namespace sld
