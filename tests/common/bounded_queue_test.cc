#include "common/bounded_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace sld {
namespace {

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(10);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 5; ++i) {
    const auto item = q.Pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
}

TEST(BoundedQueueTest, CloseDrainsThenSignalsEnd) {
  BoundedQueue<int> q(10);
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_FALSE(q.Push(3));
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BoundedQueueTest, PushBlocksUntilSpaceFrees) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.Push(2);  // blocks until the consumer pops
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.Pop().value(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.Pop().value(), 2);
}

TEST(BoundedQueueTest, PopBlocksUntilItemArrives) {
  BoundedQueue<int> q(4);
  std::optional<int> got;
  std::thread consumer([&] { got = q.Pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Push(42);
  consumer.join();
  EXPECT_EQ(got.value(), 42);
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(4);
  std::optional<int> got = 99;
  std::thread consumer([&] { got = q.Pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  consumer.join();
  EXPECT_FALSE(got.has_value());
}

TEST(BoundedQueueTest, CloseReleasesBlockedProducer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> returned{false};
  bool push_result = true;
  std::thread producer([&] {
    push_result = q.Push(2);  // blocked on full queue
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  q.Close();
  producer.join();
  EXPECT_FALSE(push_result);  // rejected, not silently enqueued
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BoundedQueueTest, ManyProducersOneConsumer) {
  BoundedQueue<int> q(8);
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.Push(p * kPerProducer + i);
      }
    });
  }
  std::vector<bool> seen(kProducers * kPerProducer, false);
  std::size_t count = 0;
  while (count < seen.size()) {
    const auto item = q.Pop();
    ASSERT_TRUE(item.has_value());
    ASSERT_FALSE(seen[static_cast<std::size_t>(*item)]);
    seen[static_cast<std::size_t>(*item)] = true;
    ++count;
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(q.size(), 0u);
}

}  // namespace
}  // namespace sld
