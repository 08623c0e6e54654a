// Streaming semantics of the digest driver: pipeline::ShardedPipeline at
// one shard, where the stage graph runs inline and every event a record
// closes reaches the sink before Push() returns.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <utility>

#include "core/learn.h"
#include "net/config_parser.h"
#include "pipeline/pipeline.h"
#include "sim/generator.h"

namespace sld::core {
namespace {

// Shared fixture: a learned pipeline over a small dataset A network.
struct Ctx {
  Ctx() {
    sim::DatasetSpec spec = sim::DatasetASpec();
    spec.topo.num_routers = 10;
    history = sim::GenerateDataset(spec, 0, 7, 301);
    live = sim::GenerateDataset(spec, 7, 1, 302);
    std::vector<net::ParsedConfig> parsed;
    for (const std::string& cfg : history.configs) {
      parsed.push_back(net::ParseConfig(cfg));
    }
    dict = LocationDict::Build(parsed);
    OfflineLearner learner;
    kb = learner.Learn(history.messages, dict);
  }
  sim::Dataset history;
  sim::Dataset live;
  LocationDict dict;
  KnowledgeBase kb;
};

Ctx& Shared() {
  static Ctx ctx;
  return ctx;
}

// The engine's default idle horizon (EngineOptions::idle_close_ms = 0):
// S_max plus the rule window W.
TimeMs DefaultHorizon(const KnowledgeBase& kb) {
  return kb.temporal_params.smax + kb.rule_params.window_ms;
}

// The one-shard pipeline with a collecting sink.  Push() hands back the
// events that record closed; Flush() finishes the stream.
class Stream {
  // Declared before the pipeline, whose sink writes into it.
  std::vector<DigestEvent> closed_;

 public:
  Stream(Ctx& ctx, TimeMs idle_close_ms,
         TimeMs max_group_age_ms = 24 * kMsPerHour)
      : pipe(&ctx.kb, &ctx.dict, Options(idle_close_ms, max_group_age_ms)) {
    pipe.SetEventSink([this](std::span<DigestEvent> batch) {
      for (DigestEvent& ev : batch) closed_.push_back(std::move(ev));
    });
  }

  std::vector<DigestEvent> Push(const syslog::SyslogRecord& rec) {
    pipe.Push(rec);
    return std::exchange(closed_, {});
  }
  std::vector<DigestEvent> Flush() {
    pipe.Finish();
    return std::exchange(closed_, {});
  }

  pipeline::ShardedPipeline pipe;

 private:
  static pipeline::PipelineOptions Options(TimeMs idle_close_ms,
                                           TimeMs max_group_age_ms) {
    pipeline::PipelineOptions opts;
    opts.idle_close_ms = idle_close_ms;
    opts.max_group_age_ms = max_group_age_ms;
    return opts;
  }
};

// Canonical form of a partition: sorted list of sorted message-index sets.
std::set<std::vector<std::size_t>> Partition(
    std::vector<DigestEvent> events) {
  std::set<std::vector<std::size_t>> out;
  for (DigestEvent& ev : events) {
    std::sort(ev.messages.begin(), ev.messages.end());
    out.insert(ev.messages);
  }
  return out;
}

TEST(StreamTest, MatchesBatchPartitionWithUnboundedHorizon) {
  Ctx& ctx = Shared();
  Digester batch(&ctx.kb, &ctx.dict);
  const DigestResult expected = batch.Digest(ctx.live.messages);

  Stream stream(ctx, /*idle_close_ms=*/INT64_MAX / 4,
                /*max_group_age_ms=*/INT64_MAX / 4);
  std::vector<DigestEvent> events;
  for (const auto& rec : ctx.live.messages) {
    for (auto& ev : stream.Push(rec)) events.push_back(std::move(ev));
  }
  for (auto& ev : stream.Flush()) events.push_back(std::move(ev));

  EXPECT_EQ(Partition(std::move(events)),
            Partition(std::move(const_cast<DigestResult&>(expected).events)));
}

TEST(StreamTest, DefaultHorizonMatchesBatchOnThisWorkload) {
  // S_max + W is enough look-back for these scenarios, so the default
  // horizon also reproduces the batch partition.
  Ctx& ctx = Shared();
  Digester batch(&ctx.kb, &ctx.dict);
  const DigestResult expected = batch.Digest(ctx.live.messages);

  Stream stream(ctx, DefaultHorizon(ctx.kb),
                /*max_group_age_ms=*/INT64_MAX / 4);
  std::size_t streamed_events = 0;
  std::size_t streamed_msgs = 0;
  for (const auto& rec : ctx.live.messages) {
    for (const auto& ev : stream.Push(rec)) {
      ++streamed_events;
      streamed_msgs += ev.messages.size();
    }
  }
  for (const auto& ev : stream.Flush()) {
    ++streamed_events;
    streamed_msgs += ev.messages.size();
  }
  EXPECT_EQ(streamed_events, expected.events.size());
  EXPECT_EQ(streamed_msgs, ctx.live.messages.size());
}

TEST(StreamTest, EventsCloseAfterIdleHorizon) {
  Ctx& ctx = Shared();
  Stream stream(ctx, /*idle_close_ms=*/5 * kMsPerMinute);
  syslog::SyslogRecord rec = ctx.live.messages.front();
  EXPECT_TRUE(stream.Push(rec).empty());
  // Ten minutes of silence, then an unrelated message: the first group
  // must close.
  syslog::SyslogRecord later = rec;
  later.time += 10 * kMsPerMinute;
  later.code = "OTHER-5-THING";
  later.detail = "something else entirely";
  const auto closed = stream.Push(later);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].messages.size(), 1u);
  EXPECT_EQ(stream.pipe.open_group_count(), 1u);
}

TEST(StreamTest, MemoryStaysBoundedOverLongStreams) {
  Ctx& ctx = Shared();
  Stream stream(ctx, /*idle_close_ms=*/10 * kMsPerMinute,
                /*max_group_age_ms=*/kMsPerHour);
  // One message per minute for a simulated week — a never-ending periodic
  // train.  The max-age bound chops it into hourly events, keeping open
  // state far below the input size.
  syslog::SyslogRecord rec = ctx.live.messages.front();
  std::size_t emitted = 0;
  for (int i = 0; i < 7 * 24 * 60; ++i) {
    rec.time += kMsPerMinute;
    rec.detail = "Interface Serial0/0, changed state to down";
    emitted += stream.Push(rec).size();
  }

  EXPECT_LT(stream.pipe.open_message_count(), 200u);
  EXPECT_GT(emitted, 100u);
  EXPECT_LT(stream.pipe.open_group_count(), 100u);
  EXPECT_EQ(stream.pipe.Finish().message_count, 7u * 24 * 60);
}

TEST(StreamTest, FlushIsIdempotent) {
  Ctx& ctx = Shared();
  Stream stream(ctx, DefaultHorizon(ctx.kb));
  stream.Push(ctx.live.messages.front());
  EXPECT_EQ(stream.Flush().size(), 1u);
  EXPECT_TRUE(stream.Flush().empty());
  EXPECT_EQ(stream.pipe.open_group_count(), 0u);
}

TEST(StreamTest, ActiveRulesTracked) {
  Ctx& ctx = Shared();
  Stream stream(ctx, DefaultHorizon(ctx.kb));
  for (const auto& rec : ctx.live.messages) stream.Push(rec);
  const DigestResult result = stream.pipe.Finish();
  EXPECT_GT(result.active_rule_count, 0u);
  EXPECT_LE(result.active_rule_count, ctx.kb.rules.size());
}

TEST(StreamTest, ClosedEventsAreTimeOrderedWithinSweep) {
  Ctx& ctx = Shared();
  Stream stream(ctx, /*idle_close_ms=*/kMsPerMinute);
  std::vector<DigestEvent> events;
  for (const auto& rec : ctx.live.messages) {
    auto closed = stream.Push(rec);
    for (std::size_t i = 1; i < closed.size(); ++i) {
      EXPECT_LE(closed[i - 1].start, closed[i].start);
    }
    for (auto& ev : closed) events.push_back(std::move(ev));
  }
  for (auto& ev : stream.Flush()) events.push_back(std::move(ev));
  // Everything pushed was eventually emitted exactly once.
  std::size_t total = 0;
  for (const auto& ev : events) total += ev.messages.size();
  EXPECT_EQ(total, ctx.live.messages.size());
}

}  // namespace
}  // namespace sld::core
