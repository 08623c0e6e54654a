// A bounded blocking queue for pipeline stages (producer/consumer).
//
// ShardedPipeline's threads hand batches over through these: the pumping
// thread to each shard worker, and the workers to the merge thread.
// Push blocks when full (back-pressure toward the pump), Pop blocks when
// empty.  Close() releases both sides: pushes fail, pops drain the
// remaining items and then return nullopt.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

namespace sld {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Blocks until space is available; returns false if the queue closed.
  bool Push(T item) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock,
                   [this] { return items_.size() < capacity_ || closed_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  // Blocks until an item is available; nullopt once closed AND drained.
  std::optional<T> Pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  // Marks the stream finished; wakes all waiters.
  void Close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace sld
