// ShardedPipeline: the one digest driver over the stage graph (§4.2's
// online system).
//
// Every record takes the same two steps.  The shard step augments it
// (location extraction plus a memoized signature match through the
// shared ConcurrentTemplateMatcher) and runs the per-router passes
// (core::TemporalGrouper + RuleStage), emitting merge edges.  The merge step, in
// global arrival order, advances the GroupTracker's stream clock (closing
// idle groups into events), admits the message, applies its edges to the
// one union-find, runs the only globally-coupled pass (CrossRouterStage),
// and refreshes the group's activity clock.
//
// At shards == 1 both steps run inline on the caller's thread inside
// Push(): no threads, no queues, and the sink has seen every event the
// records closed before Push() returns.  At shards > 1 the caller deals
// records (router_key % shards) to N shard workers over BoundedQueues of
// record batches, and one sequenced merge thread replays the shard
// outputs in ingest order — an order queue carries the shard id of every
// sequence number.
//
// The sink receives closed events a flush unit at a time, in close
// order: all records of one Push() call inline, one merge schedule
// threaded, and Finish()'s flush.  A durable engine commits each unit to
// its event log with one fsync.
//
// Because the merge step consumes messages in exactly the ingest order
// and every edge flows through one union-find, the event partition is
// bit-identical at every shard count (tests/core/pipeline_threads_test.cc;
// tests/engine/golden_test.cc pins the stream itself).  The batch
// core::Digester is this pipeline with unbounded horizons.
//
// SaveState/LoadState only order the checkpoint sections and map
// routers to shards; each stage reads and writes its own section
// (tests/pipeline/golden_stage_state.bin pins the bytes).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/digest.h"
#include "core/location/location.h"
#include "core/temporal/temporal.h"
#include "obs/registry.h"
#include "pipeline/matcher.h"
#include "pipeline/stages.h"
#include "pipeline/tracker.h"
#include "syslog/record.h"

namespace sld::ckpt {
class Writer;
class Reader;
}  // namespace sld::ckpt

namespace sld::pipeline {

struct PipelineOptions {
  core::DigestOptions digest;
  // 1 runs the stage graph inline on the caller's thread; N > 1 runs the
  // per-router stages on N shard workers (router_key % N) behind one
  // sequenced merge thread.
  std::size_t shards = 1;
  // Records per queue batch at shards > 1: one mutex round-trip per
  // batch, not per message, keeps the queues off the hot path.
  std::size_t batch_size = 256;
  // Group lifecycle (see GroupTracker): the defaults make the pipeline a
  // batch digester — nothing closes before Finish().
  TimeMs idle_close_ms = GroupTracker::kUnboundedMs;
  TimeMs max_group_age_ms = GroupTracker::kUnboundedMs;
  // Observability (may be null).  Each shard and the merge step own their
  // cells — DESIGN.md §9 lists the series per shard count — so
  // steady-state updates stay lock-free and allocation-free.  Must
  // outlive the pipeline.
  obs::Registry* metrics = nullptr;
};

class ShardedPipeline {
 public:
  // Called once per flush unit that closed events, never with an empty
  // span; the sink may move the events out.  Inline (shards == 1) it
  // runs synchronously at the end of Push() and in Finish().  Threaded,
  // it runs on the merge thread after each schedule, and for the final
  // flush on the thread calling Finish().
  using EventSink = std::function<void(std::span<core::DigestEvent>)>;

  // `kb` must outlive the pipeline and may gain catch-all templates.
  ShardedPipeline(core::KnowledgeBase* kb, const core::LocationDict* dict,
                  PipelineOptions options = {});
  // Without Finish() this stops like a crash: queued batches drain and
  // the threads join, but open groups are dropped, not flushed.
  ~ShardedPipeline();

  ShardedPipeline(const ShardedPipeline&) = delete;
  ShardedPipeline& operator=(const ShardedPipeline&) = delete;

  // Install before the first Push.  With a sink, events are delivered as
  // they close and Finish() returns only counters.
  void SetEventSink(EventSink sink);

  // Feeds records (timestamps non-decreasing; single producer thread).
  // Inline, the events they close reach the sink in one call before
  // Push() returns.
  void Push(std::span<const syslog::SyslogRecord> records);
  void Push(const syslog::SyslogRecord& rec) { Push({&rec, 1}); }

  // Closes the stream, drains every stage, joins any threads, and returns
  // the digest (events sorted by score, unless a sink consumed them).
  // Idempotent.
  core::DigestResult Finish();

  // Blocks the calling (ingest) thread until every record pushed so far
  // has been merged; a no-op inline and after Finish.  Threaded, the
  // queue mutexes plus the quiesce mutex establish the happens-before
  // needed to read every stage's state from this thread afterwards;
  // workers sit blocked on their empty input queues meanwhile.
  void Quiesce();

  // Checkpointing (DESIGN.md §14).  SaveState quiesces, then writes the
  // record count and each stage's section: the resolver, the temporal
  // chains, the rule windows, the cross-router window and the tracker.
  // Every section is canonical, so snapshots are portable across shard
  // counts.  LoadState must run before the first Push on a fresh
  // pipeline; it re-partitions per-router state by router_key modulo
  // this pipeline's shard count.
  void SaveState(ckpt::Writer* w);
  bool LoadState(ckpt::Reader* r);

  // Open groups and the messages they hold (merge-step state: exact
  // inline and after Quiesce/Finish, approximate mid-stream otherwise).
  std::size_t open_group_count() const noexcept {
    return tracker_.open_group_count();
  }
  std::size_t open_message_count() const noexcept {
    return tracker_.open_message_count();
  }

 private:
  // One record's shard-step result, handed to the merge step.
  struct ShardOutput {
    core::Augmented msg;
    std::vector<MergeEdge> edges;           // temporal + rule edges
    std::vector<std::uint64_t> fired_rules;
  };
  // Per-router stage state plus shard-private match state.  Inline the
  // caller's thread owns it; threaded, the shard's worker does, and
  // checkpointing reads it only after Quiesce() (the worker is then
  // parked on its empty input queue).
  struct Shard {
    Shard(const core::KnowledgeBase* kb, const core::LocationDict* dict)
        : temporal(kb->temporal_params, &kb->temporal_priors),
          rules(&kb->rules, kb->rule_params.window_ms, dict) {}
    void BindMetrics(obs::Registry* reg, std::size_t shard_id);
    // Adds `messages` and the memo counters' growth since the last call.
    void Publish(std::size_t messages);

    core::TemporalGrouper temporal;
    RuleStage rules;
    // The memo cache and token scratch make the steady-state signature
    // match lock- and allocation-free.
    ShardMatchCache match_cache;
    std::vector<std::string_view> match_scratch;
    // Metric cells (null without a registry): messages carry a shard
    // label; the memo counters register unlabeled and fold into one
    // series at snapshot time.
    obs::Counter* messages_cell = nullptr;
    obs::Counter* cache_hits_cell = nullptr;
    obs::Counter* cache_misses_cell = nullptr;
    std::uint64_t published_lookups = 0;
    std::uint64_t published_hits = 0;
  };
  // Queues, threads and their cells at shards > 1 (pipeline.cc).
  struct Threads;

  void ShardStep(Shard& shard, const syslog::SyslogRecord& rec,
                 std::size_t seq, std::uint32_t router_key,
                 bool router_known, ShardOutput* out);
  void MergeStep(const ShardOutput& out);
  // Adds events to the open flush unit; Deliver() hands the unit to the
  // sink (or to collected_ without one).
  void Collect(std::vector<core::DigestEvent> events);
  void Deliver();
  void RunShard(std::size_t shard_id);
  void RunMerge();
  void FlushBatches();
  // Closes the queues and joins the threads (no-op inline or when done).
  void JoinThreads();

  const core::LocationDict* dict_;
  PipelineOptions options_;
  ConcurrentTemplateMatcher matcher_;
  core::RouterResolver resolver_;
  GroupTracker tracker_;
  CrossRouterStage cross_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::size_t seq_ = 0;              // records pushed
  ShardOutput inline_out_;           // reused shard-step scratch inline
  std::vector<MergeEdge> cross_edges_;
  obs::Counter* merged_cell_ = nullptr;

  // Merge-step state, read by Finish() only after any join.
  std::vector<core::DigestEvent> closed_;  // the open flush unit
  std::vector<core::DigestEvent> collected_;
  EventSink sink_;
  bool finished_ = false;

  // Last, after everything its threads use.  Null inline and after
  // Finish.
  std::unique_ptr<Threads> threads_;
};

}  // namespace sld::pipeline
