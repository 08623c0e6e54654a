#include "pipeline/pipeline.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/codec.h"
#include "common/bounded_queue.h"

namespace sld::pipeline {
namespace {

// Batches buffered per queue before back-pressure reaches the ingest.
constexpr std::size_t kQueueCapacity = 64;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

struct ShardedPipeline::Threads {
  struct Input {
    std::size_t seq;
    std::uint32_t router_key;
    bool router_known;
    syslog::SyslogRecord rec;
  };
  struct Lane {
    BoundedQueue<std::vector<Input>> in{kQueueCapacity};
    BoundedQueue<std::vector<ShardOutput>> out{kQueueCapacity};
    std::vector<Input> pending;  // ingest-side batch being filled
    std::thread worker;
    obs::Gauge* queue_depth = nullptr;
    obs::Histogram* batch_seconds = nullptr;
  };

  explicit Threads(std::size_t shards)
      // The order queue must never be the blocking edge: size it past the
      // worst-case number of in-flight batches so back-pressure always
      // comes from the shard queues.
      : order(shards * kQueueCapacity * 2 + 16) {
    for (std::size_t k = 0; k < shards; ++k) {
      lanes.push_back(std::make_unique<Lane>());
    }
  }

  std::vector<std::unique_ptr<Lane>> lanes;
  // Shard id of every sequence number, in batches, in ingest order: the
  // merge thread's replay schedule.
  BoundedQueue<std::vector<std::uint32_t>> order;
  std::vector<std::uint32_t> pending_order;
  // The backlog gauge is the primary back-pressure signal: schedule
  // batches the merge thread has not replayed yet.
  obs::Gauge* backlog = nullptr;
  obs::Histogram* merge_seconds = nullptr;

  // Quiesce rendezvous: the merge thread publishes how many records it
  // has replayed; Quiesce() waits for it to catch up with seq_.
  std::mutex quiesce_mutex;
  std::condition_variable quiesce_cv;
  std::size_t merged_count = 0;

  std::thread merge;
};

void ShardedPipeline::Shard::BindMetrics(obs::Registry* reg,
                                         std::size_t shard_id) {
  messages_cell = reg->AddCounter("pipeline_shard_messages_total",
                                  "messages processed by this shard",
                                  {{"shard", std::to_string(shard_id)}});
  cache_hits_cell = reg->AddCounter("pipeline_match_cache_hits_total",
                                    "memo-cache hits across shards");
  cache_misses_cell = reg->AddCounter(
      "pipeline_match_cache_misses_total",
      "memo-cache lookups that fell through to the shared matcher");
}

void ShardedPipeline::Shard::Publish(std::size_t messages) {
  if (messages_cell == nullptr) return;
  messages_cell->Inc(messages);
  const std::uint64_t lookups = match_cache.lookups() - published_lookups;
  const std::uint64_t hits = match_cache.hits() - published_hits;
  cache_hits_cell->Inc(hits);
  cache_misses_cell->Inc(lookups - hits);
  published_lookups = match_cache.lookups();
  published_hits = match_cache.hits();
}

ShardedPipeline::ShardedPipeline(core::KnowledgeBase* kb,
                                 const core::LocationDict* dict,
                                 PipelineOptions options)
    : dict_(dict),
      options_(options),
      matcher_(&kb->templates),
      resolver_(dict),
      // Threaded, workers may grow the template set (catch-all creation)
      // while the merge thread reads it for event labels.
      tracker_(kb, dict, options.idle_close_ms, options.max_group_age_ms,
               &matcher_.mutex()),
      cross_(dict, options.digest.cross_router_window) {
  const std::size_t n = std::max<std::size_t>(1, options_.shards);
  options_.batch_size = std::max<std::size_t>(1, options_.batch_size);
  for (std::size_t k = 0; k < n; ++k) {
    shards_.push_back(std::make_unique<Shard>(kb, dict));
  }
  if (n > 1) threads_ = std::make_unique<Threads>(n);

  if (obs::Registry* reg = options_.metrics) {
    tracker_.BindMetrics(reg);
    merged_cell_ = reg->AddCounter(
        "pipeline_merge_messages_total",
        "messages replayed by the sequenced merge step");
    for (std::size_t k = 0; k < n; ++k) shards_[k]->BindMetrics(reg, k);
    if (threads_ != nullptr) {
      for (std::size_t k = 0; k < n; ++k) {
        Threads::Lane& lane = *threads_->lanes[k];
        lane.queue_depth = reg->AddGauge(
            "pipeline_shard_queue_depth", "input batches awaiting this shard",
            {{"shard", std::to_string(k)}});
        lane.batch_seconds = reg->AddHistogram(
            "pipeline_shard_batch_seconds",
            "per-batch shard stage latency (augment+match+per-router "
            "stages)",
            obs::LatencyBucketsSeconds());
      }
      threads_->backlog = reg->AddGauge(
          "pipeline_merge_backlog_batches",
          "order-queue batches awaiting the merge thread");
      threads_->merge_seconds = reg->AddHistogram(
          "pipeline_merge_batch_seconds",
          "per-schedule-batch merge stage latency",
          obs::LatencyBucketsSeconds());
    }
  }

  if (threads_ != nullptr) {
    for (std::size_t k = 0; k < n; ++k) {
      threads_->lanes[k]->worker = std::thread([this, k] { RunShard(k); });
    }
    threads_->merge = std::thread([this] { RunMerge(); });
  }
}

ShardedPipeline::~ShardedPipeline() {
  // An abandoned pipeline stops like a crash: open groups are not
  // flushed into events.
  JoinThreads();
}

void ShardedPipeline::SetEventSink(EventSink sink) {
  // Threaded, this synchronizes with the merge thread through the queue
  // mutexes: it only reads the sink after popping work pushed after this
  // assignment (callers install the sink before the first Push).
  sink_ = std::move(sink);
}

void ShardedPipeline::ShardStep(Shard& shard,
                                const syslog::SyslogRecord& rec,
                                std::size_t seq, std::uint32_t router_key,
                                bool router_known, ShardOutput* out) {
  out->msg =
      core::AugmentWithRouting(rec, seq, router_key, router_known, *dict_);
  out->msg.tmpl = matcher_.MatchOrFallback(
      rec.code, rec.detail, &shard.match_cache, &shard.match_scratch);
  out->edges.clear();
  out->fired_rules.clear();
  // The chain's previous tail may already have closed under a short idle
  // horizon; the tracker skips edges to closed messages.
  std::optional<std::size_t> chain_tail;
  shard.temporal.Feed(out->msg, &chain_tail);
  if (chain_tail) out->edges.push_back({*chain_tail, out->msg.raw_index});
  if (options_.digest.use_rules) {
    shard.rules.Feed(out->msg, &out->edges, &out->fired_rules);
  }
}

void ShardedPipeline::MergeStep(const ShardOutput& out) {
  const core::Augmented& msg = out.msg;
  Collect(tracker_.Observe(msg.time));
  tracker_.Add(msg);
  tracker_.ApplyEdges(out.edges);
  tracker_.NoteRules(out.fired_rules);
  if (options_.digest.use_cross_router) {
    cross_edges_.clear();
    cross_.Feed(
        msg,
        [this](std::size_t a, std::size_t b) {
          return tracker_.SameGroup(a, b);
        },
        &cross_edges_);
    tracker_.ApplyEdges(cross_edges_);
  }
  tracker_.Touch(msg.raw_index, msg.time);
}

void ShardedPipeline::Collect(std::vector<core::DigestEvent> events) {
  for (core::DigestEvent& ev : events) closed_.push_back(std::move(ev));
}

void ShardedPipeline::Deliver() {
  if (closed_.empty()) return;
  if (sink_) {
    sink_(std::span<core::DigestEvent>(closed_));
  } else {
    for (core::DigestEvent& ev : closed_) collected_.push_back(std::move(ev));
  }
  closed_.clear();
}

void ShardedPipeline::Push(std::span<const syslog::SyslogRecord> records) {
  for (const syslog::SyslogRecord& rec : records) {
    const auto [router_key, known] = resolver_.Resolve(rec.router);
    const std::size_t seq = seq_++;
    if (threads_ == nullptr) {
      Shard& shard = *shards_.front();
      ShardStep(shard, rec, seq, router_key, known, &inline_out_);
      shard.Publish(1);
      MergeStep(inline_out_);
      if (merged_cell_ != nullptr) merged_cell_->Inc();
      continue;
    }
    const auto sid = static_cast<std::uint32_t>(router_key % shards_.size());
    threads_->lanes[sid]->pending.push_back({seq, router_key, known, rec});
    threads_->pending_order.push_back(sid);
    if (threads_->pending_order.size() >= options_.batch_size) {
      FlushBatches();
    }
  }
  if (threads_ == nullptr) Deliver();
}

void ShardedPipeline::FlushBatches() {
  // Shard batches first, their order batch last: when the merge thread
  // sees a sequence number in the schedule, its input is already queued.
  for (auto& lane : threads_->lanes) {
    if (lane->pending.empty()) continue;
    std::vector<Threads::Input> batch;
    batch.swap(lane->pending);
    lane->in.Push(std::move(batch));
  }
  if (!threads_->pending_order.empty()) {
    std::vector<std::uint32_t> order;
    order.swap(threads_->pending_order);
    threads_->order.Push(std::move(order));
  }
}

void ShardedPipeline::RunShard(std::size_t shard_id) {
  Shard& shard = *shards_[shard_id];
  Threads::Lane& lane = *threads_->lanes[shard_id];
  while (auto batch = lane.in.Pop()) {
    const auto batch_start = std::chrono::steady_clock::now();
    std::vector<ShardOutput> out(batch->size());
    for (std::size_t i = 0; i < batch->size(); ++i) {
      const Threads::Input& in = (*batch)[i];
      ShardStep(shard, in.rec, in.seq, in.router_key, in.router_known,
                &out[i]);
    }
    shard.Publish(out.size());
    if (lane.batch_seconds != nullptr) {
      lane.batch_seconds->Observe(SecondsSince(batch_start));
      lane.queue_depth->Set(static_cast<std::int64_t>(lane.in.size()));
    }
    if (!lane.out.Push(std::move(out))) break;  // merge side gone
  }
  lane.out.Close();
}

void ShardedPipeline::RunMerge() {
  Threads& t = *threads_;
  std::vector<std::vector<ShardOutput>> current(shards_.size());
  std::vector<std::size_t> cursor(shards_.size(), 0);
  while (auto schedule = t.order.Pop()) {
    const auto batch_start = std::chrono::steady_clock::now();
    for (const std::uint32_t sid : *schedule) {
      if (cursor[sid] >= current[sid].size()) {
        auto next = t.lanes[sid]->out.Pop();
        if (!next) return;  // shard aborted; drop the rest
        current[sid] = std::move(*next);
        cursor[sid] = 0;
      }
      MergeStep(current[sid][cursor[sid]++]);
    }
    // Delivered before merged_count moves, so Quiesce() never returns
    // with an event of this schedule still uncommitted.
    Deliver();
    if (merged_cell_ != nullptr) {
      merged_cell_->Inc(schedule->size());
      t.merge_seconds->Observe(SecondsSince(batch_start));
      t.backlog->Set(static_cast<std::int64_t>(t.order.size()));
    }
    {
      std::lock_guard<std::mutex> lock(t.quiesce_mutex);
      t.merged_count += schedule->size();
    }
    t.quiesce_cv.notify_all();
  }
}

void ShardedPipeline::Quiesce() {
  // Inline, Push merges before it returns; after Finish the threads are
  // joined and gone.
  if (threads_ == nullptr) return;
  FlushBatches();
  std::unique_lock<std::mutex> lock(threads_->quiesce_mutex);
  threads_->quiesce_cv.wait(
      lock, [this] { return threads_->merged_count >= seq_; });
}

void ShardedPipeline::SaveState(ckpt::Writer* w) {
  Quiesce();
  std::vector<const core::TemporalGrouper*> temporal;
  std::vector<const RuleStage*> rules;
  for (const auto& shard : shards_) {
    temporal.push_back(&shard->temporal);
    rules.push_back(&shard->rules);
  }
  w->U64(seq_);
  resolver_.SaveState(w);
  core::TemporalGrouper::SaveChains(temporal, w);
  RuleStage::SaveWindows(rules, w);
  cross_.SaveState(w);
  tracker_.SaveState(w);
}

bool ShardedPipeline::LoadState(ckpt::Reader* r) {
  // A router's state goes to the shard Push deals its records to.
  const auto owner = [this](std::uint32_t router_key) -> Shard& {
    return *shards_[router_key % shards_.size()];
  };
  seq_ = r->U64();
  const bool ok =
      resolver_.LoadState(r) &&
      core::TemporalGrouper::LoadChains(
          r, [&](std::uint32_t key) { return &owner(key).temporal; }) &&
      RuleStage::LoadWindows(
          r, [&](std::uint32_t key) { return &owner(key).rules; }) &&
      cross_.LoadState(r) && tracker_.LoadState(r);
  if (threads_ != nullptr) {
    // The restored records were already replayed in the previous life;
    // without this, the first Quiesce() would wait for seq_ forever.
    std::lock_guard<std::mutex> lock(threads_->quiesce_mutex);
    threads_->merged_count = seq_;
  }
  return ok;
}

void ShardedPipeline::JoinThreads() {
  if (threads_ == nullptr) return;
  for (auto& lane : threads_->lanes) lane->in.Close();
  threads_->order.Close();
  for (auto& lane : threads_->lanes) lane->worker.join();
  threads_->merge.join();
  threads_.reset();
}

core::DigestResult ShardedPipeline::Finish() {
  if (!finished_) {
    finished_ = true;
    if (threads_ != nullptr) FlushBatches();
    JoinThreads();
    Collect(tracker_.Flush());
    Deliver();
  }
  core::DigestResult result;
  result.message_count = seq_;
  result.active_rule_count = tracker_.active_rule_count();
  result.events = std::move(collected_);
  collected_.clear();
  std::sort(result.events.begin(), result.events.end(),
            [](const core::DigestEvent& a, const core::DigestEvent& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.start < b.start;
            });
  return result;
}

}  // namespace sld::pipeline
