// The deployment topology as threads: shard workers plus a merge thread
// against the inline one-shard form of the same driver, and a UDP
// receiver thread that decodes and orders datagrams through a Collector
// into a BoundedQueue drained by a digester thread.  End-to-end over
// real loopback sockets.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "core/learn.h"
#include "net/config_parser.h"
#include "obs/registry.h"
#include "pipeline/pipeline.h"
#include "sim/generator.h"
#include "syslog/collector.h"
#include "syslog/udp.h"

namespace sld::core {
namespace {

// Canonical form of a partition: sorted list of sorted message-index sets.
std::set<std::vector<std::size_t>> Partition(
    const std::vector<DigestEvent>& events) {
  std::set<std::vector<std::size_t>> out;
  for (const DigestEvent& ev : events) {
    std::vector<std::size_t> messages = ev.messages;
    std::sort(messages.begin(), messages.end());
    out.insert(std::move(messages));
  }
  return out;
}

// Group -> score, keyed by the canonical member set.
std::map<std::vector<std::size_t>, double> Scores(
    const std::vector<DigestEvent>& events) {
  std::map<std::vector<std::size_t>, double> out;
  for (const DigestEvent& ev : events) {
    std::vector<std::size_t> messages = ev.messages;
    std::sort(messages.begin(), messages.end());
    out[std::move(messages)] = ev.score;
  }
  return out;
}

// The tentpole invariant: the sharded pipeline's event partition and
// scores are identical to the single-threaded batch digester no matter
// how many shards the per-router work is spread over.
TEST(ThreadedPipelineTest, ShardedMatchesSingleThreadedDigest) {
  sim::DatasetSpec spec = sim::DatasetASpec();
  spec.topo.num_routers = 10;
  const sim::Dataset history = sim::GenerateDataset(spec, 0, 7, 301);
  const sim::Dataset live = sim::GenerateDataset(spec, 7, 1, 302);
  std::vector<net::ParsedConfig> parsed;
  for (const std::string& cfg : history.configs) {
    parsed.push_back(net::ParseConfig(cfg));
  }
  const LocationDict dict = LocationDict::Build(parsed);
  OfflineLearner learner;
  KnowledgeBase kb = learner.Learn(history.messages, dict);

  const DigestResult expected = pipeline::Digest(&kb, &dict, live.messages);
  ASSERT_GT(expected.events.size(), 0u);

  for (const std::size_t shards : {1u, 4u, 16u}) {
    pipeline::PipelineOptions opts;
    opts.shards = shards;
    pipeline::ShardedPipeline p(&kb, &dict, opts);
    for (const auto& rec : live.messages) p.Push(rec);
    const DigestResult got = p.Finish();

    SCOPED_TRACE(testing::Message() << shards << " shard(s)");
    EXPECT_EQ(got.message_count, live.messages.size());
    EXPECT_EQ(Partition(got.events), Partition(expected.events));
    const auto want_scores = Scores(expected.events);
    const auto got_scores = Scores(got.events);
    ASSERT_EQ(got_scores.size(), want_scores.size());
    for (const auto& [members, score] : want_scores) {
      const auto it = got_scores.find(members);
      ASSERT_NE(it, got_scores.end());
      EXPECT_DOUBLE_EQ(it->second, score);
    }
  }
}

// Streaming form: a finite idle horizon, events delivered through the
// sink as they close, same partition as the inline one-shard pipeline
// with the same horizon.
TEST(ThreadedPipelineTest, ShardedStreamingMatchesStreamingDigester) {
  sim::DatasetSpec spec = sim::DatasetASpec();
  spec.topo.num_routers = 8;
  const sim::Dataset history = sim::GenerateDataset(spec, 0, 5, 311);
  const sim::Dataset live = sim::GenerateDataset(spec, 5, 1, 312);
  std::vector<net::ParsedConfig> parsed;
  for (const std::string& cfg : history.configs) {
    parsed.push_back(net::ParseConfig(cfg));
  }
  const LocationDict dict = LocationDict::Build(parsed);
  OfflineLearner learner;
  KnowledgeBase kb = learner.Learn(history.messages, dict);

  pipeline::PipelineOptions opts;
  opts.idle_close_ms = 600 * kMsPerSecond;
  // The engine's default, so force-closes happen too.
  opts.max_group_age_ms = 24 * kMsPerHour;
  std::vector<DigestEvent> expected;
  {
    pipeline::ShardedPipeline inline_pipeline(&kb, &dict, opts);
    inline_pipeline.SetEventSink([&expected](std::span<DigestEvent> batch) {
      for (DigestEvent& ev : batch) expected.push_back(std::move(ev));
    });
    for (const auto& rec : live.messages) inline_pipeline.Push(rec);
    inline_pipeline.Finish();
  }
  ASSERT_GT(expected.size(), 0u);

  obs::Registry metrics;
  opts.shards = 4;
  // Bind metrics so the instrumented shard/merge paths run under TSan.
  opts.metrics = &metrics;
  pipeline::ShardedPipeline p(&kb, &dict, opts);
  std::vector<DigestEvent> got;
  p.SetEventSink([&got](std::span<DigestEvent> batch) {
    for (DigestEvent& ev : batch) got.push_back(std::move(ev));
  });
  for (const auto& rec : live.messages) p.Push(rec);
  const DigestResult result = p.Finish();

  EXPECT_TRUE(result.events.empty());  // the sink consumed them
  EXPECT_EQ(result.message_count, live.messages.size());
  EXPECT_EQ(Partition(got), Partition(expected));

  // Every record was counted exactly once on each side of the queues.
  const obs::MetricsSnapshot snap = metrics.Collect();
  const auto n_msgs = static_cast<std::int64_t>(live.messages.size());
  EXPECT_EQ(snap.Value("pipeline_shard_messages_total"), n_msgs);
  EXPECT_EQ(snap.Value("pipeline_merge_messages_total"), n_msgs);
  EXPECT_EQ(snap.Value("tracker_groups_closed_total"),
            static_cast<std::int64_t>(got.size()));
}

TEST(ThreadedPipelineTest, UdpToQueueToStreamingDigester) {
  // Learn a small knowledge base.
  sim::DatasetSpec spec = sim::DatasetASpec();
  spec.topo.num_routers = 8;
  const sim::Dataset history = sim::GenerateDataset(spec, 0, 5, 401);
  const sim::Dataset live = sim::GenerateDataset(spec, 5, 1, 402);
  std::vector<net::ParsedConfig> parsed;
  for (const std::string& cfg : history.configs) {
    parsed.push_back(net::ParseConfig(cfg));
  }
  const LocationDict dict = LocationDict::Build(parsed);
  OfflineLearner learner;
  KnowledgeBase kb = learner.Learn(history.messages, dict);

  auto receiver = syslog::UdpReceiver::Bind(0);
  ASSERT_TRUE(receiver.has_value());
  auto sender = syslog::UdpSender::Open("127.0.0.1", receiver->port());
  ASSERT_TRUE(sender.has_value());

  // Keep the test quick: the first slice of the live day, pre-encoded
  // and de-duplicated on the wire encoding so every frame is unique and
  // the collector's accepted count can serve as a loss-free ack.
  std::vector<std::string> frames;
  {
    std::set<std::string> seen;
    for (const auto& rec : live.messages) {
      std::string frame = syslog::EncodeRfc3164(rec);
      if (seen.insert(frame).second) frames.push_back(std::move(frame));
      if (frames.size() == 3000) break;
    }
  }
  const std::size_t n = frames.size();
  ASSERT_GT(n, 0u);

  BoundedQueue<syslog::SyslogRecord> queue(256);

  // Loopback UDP still drops datagrams when the receiver is slow (the
  // normal state of affairs under TSan), so the transfer is made
  // lossless by construction instead of tolerating loss:
  //   - the receiver publishes the collector's unique-accept count, and
  //     the sender throttles to a fixed window above it so the socket
  //     buffer can never be overrun by a fast sender alone;
  //   - when the ack count stalls, the sender retransmits from the
  //     start; the collector's duplicate window absorbs extra copies;
  //   - the collector holds records until Flush (no mid-stream release),
  //     so a retransmitted record can never arrive "late" behind the
  //     release watermark and be dropped for good;
  //   - everything is bounded by a wall-clock deadline.
  constexpr std::size_t kWindow = 64;
  constexpr TimeMs kHoldAllMs = 24 * kMsPerHour;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(2);
  std::atomic<std::size_t> acked{0};

  // Receiver thread: datagram -> collector -> queue.  One reused buffer
  // serves every receive (the zero-alloc overload).
  std::thread receive_thread([&] {
    syslog::Collector collector(kHoldAllMs, 2009,
                                /*suppress_duplicates=*/true);
    std::string datagram;
    while (collector.accepted_count() < n &&
           std::chrono::steady_clock::now() < deadline) {
      datagram.clear();
      if (!receiver->Receive(&datagram, 250)) continue;  // retransmitted
      collector.IngestDatagram(datagram);
      acked.store(collector.accepted_count(), std::memory_order_relaxed);
      for (auto& rec : collector.Drain()) queue.Push(std::move(rec));
    }
    for (auto& rec : collector.Flush()) queue.Push(std::move(rec));
    queue.Close();
  });

  // Digester thread: queue -> one-shard pipeline at the engine's default
  // horizons, events counted as they close.
  std::size_t events = 0;
  std::size_t digested = 0;
  std::thread digest_thread([&] {
    pipeline::PipelineOptions opts;
    opts.idle_close_ms = kb.temporal_params.smax + kb.rule_params.window_ms;
    opts.max_group_age_ms = 24 * kMsPerHour;
    pipeline::ShardedPipeline digester(&kb, &dict, opts);
    digester.SetEventSink(
        [&events](std::span<DigestEvent> batch) { events += batch.size(); });
    while (auto rec = queue.Pop()) {
      ++digested;
      digester.Push(*rec);
    }
    digester.Finish();
  });

  // Main thread plays the routers under window flow control.
  std::size_t next = 0;
  std::size_t last_acked = 0;
  auto last_progress = std::chrono::steady_clock::now();
  while (acked.load(std::memory_order_relaxed) < n &&
         std::chrono::steady_clock::now() < deadline) {
    const std::size_t a = acked.load(std::memory_order_relaxed);
    if (a > last_acked) {
      last_acked = a;
      last_progress = std::chrono::steady_clock::now();
    }
    if (next < n && next < a + kWindow) {
      ASSERT_TRUE(sender->Send(frames[next]));
      ++next;
      continue;
    }
    // Window exhausted (or a full pass sent): wait for acks, and after
    // a stall assume the unacked remainder was dropped and resend the
    // sequence.  Duplicate suppression keeps replays harmless.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (std::chrono::steady_clock::now() - last_progress >
        std::chrono::milliseconds(250)) {
      next = 0;
      last_progress = std::chrono::steady_clock::now();
    }
  }

  receive_thread.join();
  digest_thread.join();

  // Lossless by construction: every unique frame reaches the digester
  // exactly once, in non-decreasing time order.
  EXPECT_EQ(acked.load(), n);
  EXPECT_EQ(digested, n);
  EXPECT_GT(events, 0u);
  EXPECT_LT(events, digested);  // grouping actually compressed
}

}  // namespace
}  // namespace sld::core
