// Unit tests for the pipeline subsystem: GroupTracker lifecycle (idle
// close, edge-to-closed-message skip, flush), ShardedPipeline edge
// cases the equivalence test in core/pipeline_threads_test.cc does not
// reach (unknown routers, empty stream, more shards than routers, the
// thread-free one-shard form), and the stage-state snapshot bytes
// against golden_stage_state.bin.
#include "pipeline/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ckpt/codec.h"
#include "core/augment.h"
#include "core/learn.h"
#include "net/config_parser.h"
#include "pipeline/tracker.h"
#include "sim/generator.h"

namespace sld::pipeline {
namespace {

// Shared fixture: a learned pipeline over a small dataset A network.
struct Ctx {
  Ctx() {
    sim::DatasetSpec spec = sim::DatasetASpec();
    spec.topo.num_routers = 8;
    history = sim::GenerateDataset(spec, 0, 5, 501);
    live = sim::GenerateDataset(spec, 5, 1, 502);
    std::vector<net::ParsedConfig> parsed;
    for (const std::string& cfg : history.configs) {
      parsed.push_back(net::ParseConfig(cfg));
    }
    dict = core::LocationDict::Build(parsed);
    core::OfflineLearner learner;
    kb = learner.Learn(history.messages, dict);
  }
  sim::Dataset history;
  sim::Dataset live;
  core::LocationDict dict;
  core::KnowledgeBase kb;
};

Ctx& Shared() {
  static Ctx ctx;
  return ctx;
}

// Augments the first n live records with controlled timestamps spaced
// `step_ms` apart, starting at t=0.
std::vector<core::Augmented> Messages(Ctx& ctx, std::size_t n,
                                      TimeMs step_ms) {
  core::Augmenter augmenter(&ctx.kb.templates, &ctx.dict);
  std::vector<core::Augmented> out;
  for (std::size_t i = 0; i < n; ++i) {
    core::Augmented msg = augmenter.Augment(ctx.live.messages[i], i);
    msg.time = static_cast<TimeMs>(i) * step_ms;
    out.push_back(std::move(msg));
  }
  return out;
}

TEST(GroupTrackerTest, MergesAndClosesIdleGroups) {
  Ctx& ctx = Shared();
  const auto msgs = Messages(ctx, 3, 1000);
  GroupTracker tracker(&ctx.kb, &ctx.dict,
                       /*idle_close_ms=*/60 * kMsPerSecond,
                       GroupTracker::kUnboundedMs);
  for (const auto& m : msgs) {
    tracker.Observe(m.time);
    tracker.Add(m);
  }
  tracker.ApplyEdges({{0, 1}});
  EXPECT_TRUE(tracker.SameGroup(0, 1));
  EXPECT_FALSE(tracker.SameGroup(0, 2));
  EXPECT_EQ(tracker.open_group_count(), 2u);
  EXPECT_EQ(tracker.open_message_count(), 3u);

  // Nothing is idle yet: a sweep well inside the horizon closes nothing.
  EXPECT_TRUE(tracker.Observe(40 * kMsPerSecond).empty());
  // Far past the horizon, everything closes, ordered by start time.
  const auto events = tracker.Observe(1000 * kMsPerSecond);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].messages.size(), 2u);
  EXPECT_EQ(events[1].messages.size(), 1u);
  EXPECT_EQ(tracker.open_group_count(), 0u);
  EXPECT_EQ(tracker.open_message_count(), 0u);
  EXPECT_EQ(tracker.processed_count(), 3u);
  EXPECT_TRUE(tracker.Flush().empty());
}

TEST(GroupTrackerTest, UnboundedHorizonClosesOnlyOnFlush) {
  Ctx& ctx = Shared();
  const auto msgs = Messages(ctx, 4, 60 * kMsPerSecond);
  GroupTracker tracker(&ctx.kb, &ctx.dict, GroupTracker::kUnboundedMs,
                       GroupTracker::kUnboundedMs);
  for (const auto& m : msgs) {
    EXPECT_TRUE(tracker.Observe(m.time).empty());
    tracker.Add(m);
  }
  tracker.ApplyEdges({{0, 2}, {1, 3}});
  const auto events = tracker.Flush();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].messages.size(), 2u);
  EXPECT_EQ(events[1].messages.size(), 2u);
}

TEST(GroupTrackerTest, EdgesToClosedMessagesAreSkipped) {
  Ctx& ctx = Shared();
  const auto msgs = Messages(ctx, 3, 1000);
  GroupTracker tracker(&ctx.kb, &ctx.dict, /*idle_close_ms=*/5000,
                       GroupTracker::kUnboundedMs);
  tracker.Observe(msgs[0].time);
  tracker.Add(msgs[0]);
  // Idle out message 0.
  ASSERT_EQ(tracker.Observe(1000 * kMsPerSecond).size(), 1u);

  tracker.Add(msgs[1]);
  tracker.Add(msgs[2]);
  // An edge back to the closed message must not resurrect it; the edge
  // between the open pair still lands.
  tracker.ApplyEdges({{0, 1}, {1, 2}});
  EXPECT_FALSE(tracker.SameGroup(0, 1));
  EXPECT_TRUE(tracker.SameGroup(1, 2));
  const auto events = tracker.Flush();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].messages.size(), 2u);
}

TEST(GroupTrackerTest, MaxGroupAgeForceClosesLongRunners) {
  Ctx& ctx = Shared();
  const auto msgs = Messages(ctx, 2, 45 * kMsPerSecond);
  // Horizon never triggers (the group stays active), but max age does.
  GroupTracker tracker(&ctx.kb, &ctx.dict,
                       /*idle_close_ms=*/GroupTracker::kUnboundedMs,
                       /*max_group_age_ms=*/60 * kMsPerSecond);
  tracker.Observe(msgs[0].time);
  tracker.Add(msgs[0]);
  tracker.Observe(msgs[1].time);
  tracker.Add(msgs[1]);
  tracker.ApplyEdges({{0, 1}});
  tracker.Touch(1, msgs[1].time);
  const auto events = tracker.Observe(100 * kMsPerSecond);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].messages.size(), 2u);
}

TEST(GroupTrackerTest, CompactionPreservesOpenGroups) {
  Ctx& ctx = Shared();
  // Thousands of groups close and free their arena slots, which later
  // messages reuse, while a recent group stays open.  A sweep fires when
  // the stream clock enters a new 30 s bucket, so the messages are
  // spaced 31 s apart.
  const std::size_t n =
      std::min<std::size_t>(ctx.live.messages.size(), 6000);
  ASSERT_GT(n, 4200u);  // slots are reused thousands of times
  auto msgs = Messages(ctx, n, 31 * kMsPerSecond);
  msgs[n - 1].time = msgs[n - 2].time + 1000;  // final pair stays coeval
  GroupTracker tracker(&ctx.kb, &ctx.dict, /*idle_close_ms=*/5000,
                       GroupTracker::kUnboundedMs);
  std::size_t closed_messages = 0;
  for (const auto& m : msgs) {
    for (const auto& ev : tracker.Observe(m.time)) {
      closed_messages += ev.messages.size();
    }
    tracker.Add(m);
  }
  EXPECT_GT(closed_messages, 0u);
  // The most recent pair is still open; merge and flush them together.
  tracker.ApplyEdges({{n - 2, n - 1}});
  EXPECT_TRUE(tracker.SameGroup(n - 2, n - 1));
  const auto events = tracker.Flush();
  std::size_t flushed = 0;
  for (const auto& ev : events) flushed += ev.messages.size();
  // No message lost or duplicated across sweeps and slot reuse.
  EXPECT_EQ(closed_messages + flushed, n);
  ASSERT_FALSE(events.empty());
  const auto merged = std::find_if(
      events.begin(), events.end(), [n](const core::DigestEvent& ev) {
        return std::find(ev.messages.begin(), ev.messages.end(), n - 2) !=
               ev.messages.end();
      });
  ASSERT_NE(merged, events.end());
  EXPECT_NE(std::find(merged->messages.begin(), merged->messages.end(),
                      n - 1),
            merged->messages.end());
}

TEST(ShardedPipelineTest, EmptyStreamFinishesCleanly) {
  Ctx& ctx = Shared();
  PipelineOptions opts;
  opts.shards = 4;
  ShardedPipeline p(&ctx.kb, &ctx.dict, opts);
  const core::DigestResult result = p.Finish();
  EXPECT_EQ(result.message_count, 0u);
  EXPECT_TRUE(result.events.empty());
}

TEST(ShardedPipelineTest, FinishIsIdempotentAndDestructorSafe) {
  Ctx& ctx = Shared();
  {
    // Destructor after pushes but without Finish must not hang.
    ShardedPipeline p(&ctx.kb, &ctx.dict, {});
    for (std::size_t i = 0; i < 100; ++i) p.Push(ctx.live.messages[i]);
  }
  ShardedPipeline p(&ctx.kb, &ctx.dict, {});
  for (std::size_t i = 0; i < 100; ++i) p.Push(ctx.live.messages[i]);
  const core::DigestResult first = p.Finish();
  const core::DigestResult second = p.Finish();
  EXPECT_EQ(first.message_count, 100u);
  EXPECT_EQ(second.message_count, 100u);
  EXPECT_TRUE(second.events.empty());  // already handed out
}

TEST(ShardedPipelineTest, UnknownRoutersGetStableShards) {
  Ctx& ctx = Shared();
  // Rewrite every record to a router name absent from all configs; the
  // resolver must intern them consistently and the pipeline must not
  // drop or crash on unknown-router messages.
  std::vector<syslog::SyslogRecord> mystery;
  for (std::size_t i = 0; i < 500; ++i) {
    syslog::SyslogRecord rec = ctx.live.messages[i];
    rec.router = "ghost-" + std::to_string(i % 3);
    mystery.push_back(std::move(rec));
  }
  PipelineOptions opts;
  opts.shards = 4;
  ShardedPipeline p(&ctx.kb, &ctx.dict, opts);
  for (const auto& rec : mystery) p.Push(rec);
  const core::DigestResult result = p.Finish();
  EXPECT_EQ(result.message_count, mystery.size());
  std::size_t grouped = 0;
  for (const auto& ev : result.events) grouped += ev.messages.size();
  EXPECT_EQ(grouped, mystery.size());
}

TEST(ShardedPipelineTest, MoreShardsThanRoutersStillExact) {
  Ctx& ctx = Shared();
  const core::DigestResult expected =
      Digest(&ctx.kb, &ctx.dict, ctx.live.messages);

  PipelineOptions opts;
  opts.shards = 16;  // only 8 routers: half the shards stay idle
  ShardedPipeline p(&ctx.kb, &ctx.dict, opts);
  for (const auto& rec : ctx.live.messages) p.Push(rec);
  const core::DigestResult got = p.Finish();

  const auto canon = [](const std::vector<core::DigestEvent>& events) {
    std::set<std::vector<std::size_t>> out;
    for (const core::DigestEvent& ev : events) {
      std::vector<std::size_t> m = ev.messages;
      std::sort(m.begin(), m.end());
      out.insert(std::move(m));
    }
    return out;
  };
  EXPECT_EQ(canon(got.events), canon(expected.events));
}

// Threads of this process right now.
std::size_t ThreadCount() {
  std::size_t n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    static_cast<void>(task);
    ++n;
  }
  return n;
}

// One shard runs the stage graph inline: no digest thread starts, and
// each event reaches the sink on the pushing thread.
TEST(ShardedPipelineTest, OneShardStartsNoThreads) {
  Ctx& ctx = Shared();
  const std::size_t before = ThreadCount();
  PipelineOptions opts;
  opts.idle_close_ms = kMsPerMinute;  // events close mid-stream
  ShardedPipeline p(&ctx.kb, &ctx.dict, opts);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t delivered = 0;
  std::size_t off_thread = 0;
  p.SetEventSink([&](std::span<core::DigestEvent> batch) {
    delivered += batch.size();
    if (std::this_thread::get_id() != caller) off_thread += batch.size();
  });
  for (const auto& rec : ctx.live.messages) p.Push(rec);
  EXPECT_EQ(ThreadCount(), before);
  EXPECT_GT(delivered, 0u);  // delivered inside Push, before Finish
  const core::DigestResult result = p.Finish();
  EXPECT_EQ(result.message_count, ctx.live.messages.size());
  EXPECT_EQ(off_thread, 0u);
  EXPECT_EQ(ThreadCount(), before);

  // The same count sees the threaded form's workers and merge thread.
  opts.shards = 4;
  ShardedPipeline threaded(&ctx.kb, &ctx.dict, opts);
  EXPECT_EQ(ThreadCount(), before + 5);
}

const char* GoldenStatePath() {
  return SLD_GOLDEN_DIR "/golden_stage_state.bin";
}

std::string ReadBytes(const char* path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Byte equality that reports the first differing offset, not a dump.
::testing::AssertionResult SameBytes(const std::string& got,
                                     const std::string& want) {
  const auto diff = std::mismatch(got.begin(), got.end(), want.begin(),
                                  want.end());
  if (diff.first == got.end() && diff.second == want.end()) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << got.size() << " bytes against " << want.size()
         << ", first difference at offset " << (diff.first - got.begin());
}

// The stage-graph state section of a snapshot, pinned byte for byte in
// tests/pipeline/golden_stage_state.bin.  One shard runs the first 700
// live records, a quarter of them renamed to three routers absent from
// the configs, under a 10-minute idle horizon, so the saved state holds
// resolver names of both kinds, temporal chains, rule windows with and
// without locations, the cross-router window and open groups (each
// record leaves its chain and an entry in both windows).  The golden
// bytes must then restore into fresh 1- and 4-shard pipelines and save
// again unchanged, and every strict prefix of them must be refused.
// Regenerate only for an intended change to the snapshot format:
//   SLD_UPDATE_GOLDEN=1 build/tests/pipeline_test
TEST(ShardedPipelineTest, StageStateMatchesGolden) {
  Ctx& ctx = Shared();
  PipelineOptions opts;
  opts.idle_close_ms = 10 * kMsPerMinute;
  // Its own KB copy: catch-all ids minted by other tests must not leak
  // into the saved template ids.
  core::KnowledgeBase kb = core::KnowledgeBase::Deserialize(ctx.kb.Serialize());
  ShardedPipeline source(&kb, &ctx.dict, opts);
  for (std::size_t i = 0; i < 700; ++i) {
    syslog::SyslogRecord rec = ctx.live.messages[i];
    if (i % 4 == 3) rec.router = "ghost-" + std::to_string(i % 3);
    source.Push(rec);
  }
  ASSERT_GT(source.open_group_count(), 0u);
  ckpt::Writer saved;
  source.SaveState(&saved);

  if (std::getenv("SLD_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(GoldenStatePath(), std::ios::binary) << saved.data();
  }
  const std::string golden = ReadBytes(GoldenStatePath());
  ASSERT_FALSE(golden.empty()) << "cannot read " << GoldenStatePath();
  EXPECT_LT(golden.size(), 64u * 1024u);
  EXPECT_TRUE(SameBytes(saved.data(), golden));

  for (const std::size_t shards : {1u, 4u}) {
    opts.shards = shards;
    ShardedPipeline restored(&kb, &ctx.dict, opts);
    ckpt::Reader r(golden);
    ASSERT_TRUE(restored.LoadState(&r)) << shards << " shards";
    EXPECT_TRUE(r.AtEnd()) << shards << " shards";
    ckpt::Writer again;
    restored.SaveState(&again);
    EXPECT_TRUE(SameBytes(again.data(), golden)) << shards << " shards";
  }

  // 1,000 evenly spaced strict prefixes, from empty to one byte short.
  opts.shards = 1;
  for (std::size_t k = 0; k < 1000; ++k) {
    const std::size_t len =
        k == 999 ? golden.size() - 1 : k * golden.size() / 1000;
    ShardedPipeline truncated(&kb, &ctx.dict, opts);
    ckpt::Reader r(std::string_view(golden).substr(0, len));
    EXPECT_FALSE(truncated.LoadState(&r)) << "prefix of " << len << " bytes";
  }
}

}  // namespace
}  // namespace sld::pipeline
