// Engine: one tenant's complete serving stack behind a single object.
//
// The paper's SyslogDigest is described as a per-network deployment, but a
// production process serves many independent networks at once.  An Engine
// owns everything that is *per-network* state — the KnowledgeBase, the
// LocationDict, the Collector front (reorder/dedup/loss accounting), the
// digest stage (one pipeline::ShardedPipeline: inline at shards == 1,
// shard workers plus a merge thread above), and the event sink — while
// everything *shared* (the thread pool, the one obs Registry, the UDP
// sockets) lives in EngineHost.
//
// An Engine is the live path only: records enter through the collector
// and events leave through the sink as groups close.  The engine builds
// its digest stage when it is constructed.  A closed archive is
// digested by pipeline::Digest, with no engine and no collector.
//
// The CLI's stream/serve commands are thin drivers over this class; the
// per-tenant event stream is bit-identical to a dedicated single-tenant
// process at any shard count because the engine reuses the exact
// collector -> stage wiring those processes ran (the equivalence suite in
// tests/engine/engine_test.cc holds them against each other).
//
// Metrics: when `EngineOptions.metrics` is set and the tenant name is
// non-empty, the engine registers every cell through a
// Registry::ScopedView carrying {"tenant", name}, so one shared registry
// snapshots all tenants with every series labeled.  An empty tenant name
// registers unlabeled (the legacy single-network CLI modes).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/codec.h"
#include "ckpt/eventlog.h"
#include "core/digest.h"
#include "net/config_parser.h"
#include "pipeline/pipeline.h"
#include "syslog/collector.h"

namespace sld::engine {

struct EngineOptions {
  // Label value for every obs series this engine registers; empty means
  // no tenant label (single-tenant legacy modes keep their series names).
  std::string tenant;
  // 1 = the digest stage runs inline on the pumping thread; N>1 = N
  // shard workers plus a merge thread.  The events are identical either
  // way.
  std::size_t shards = 1;
  // Collector front knobs (see syslog::Collector).
  TimeMs hold_ms = 5 * kMsPerSecond;
  int year = 2009;
  bool suppress_duplicates = false;
  // Group lifecycle (see pipeline::GroupTracker).  A group closes once
  // the stream clock passes its last message by idle_close_ms; 0 selects
  // the smallest horizon that preserves batch equivalence, S_max (the
  // longest temporal-grouping gap) plus the rule window W.  A group still
  // active after max_group_age_ms is force-closed, bounding latency and
  // memory for never-ending periodic trains.
  TimeMs idle_close_ms = 0;
  TimeMs max_group_age_ms = 24 * kMsPerHour;
  // Root registry (may be null).  The engine scopes it by tenant; must
  // outlive the engine.
  obs::Registry* metrics = nullptr;
};

// Loads every *.cfg under `dir` in sorted path order, skipping files
// that fail to parse with a stderr note (the CLI's historical shape).
// A missing or unreadable directory fills `error` and returns empty —
// callers must distinguish that from a directory with no configs.
std::vector<net::ParsedConfig> LoadConfigDir(const std::string& dir,
                                             std::string* error = nullptr);

// Reads and deserializes the knowledge base at `path`.  A missing,
// unreadable or empty file returns null and fills `error` with
// "cannot read PATH"; text that does not start with the KB header line
// fills "cannot read PATH: not a knowledge base".
std::unique_ptr<core::KnowledgeBase> LoadKnowledgeBase(
    const std::string& path, std::string* error = nullptr);

class Engine {
 public:
  using EventSink = std::function<void(const core::DigestEvent&)>;

  // Borrowing form: `kb` and `dict` must outlive the engine; `kb` may
  // gain catch-all templates.
  Engine(core::KnowledgeBase* kb, const core::LocationDict* dict,
         EngineOptions options);
  // Without Finish() this stops like a crash (see ShardedPipeline):
  // open groups are dropped, not flushed, so a durable engine never logs
  // an event its snapshot still holds open.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Owning form: builds the LocationDict from `configs_dir` and
  // deserializes the KnowledgeBase from `kb_path`.  Returns null and
  // fills `error` when the KB cannot be read.
  static std::unique_ptr<Engine> Load(const std::string& configs_dir,
                                      const std::string& kb_path,
                                      EngineOptions options,
                                      std::string* error);

  // Install before the first record; events are delivered in close
  // order as the digest stage hands them over, one flush unit at a time
  // (inside Pump/Finish at shards == 1, on the merge thread above).  A
  // durable engine calls the sink only after the unit's event-log commit
  // has returned from fsync.  Without a sink, closed events accumulate
  // and Finish() returns them.
  void SetEventSink(EventSink sink);

  // Live path: records route through the collector (reorder window,
  // duplicate suppression, loss accounting) exactly like a dedicated
  // single-tenant process.  Returns false when the record was rejected
  // (malformed or late).
  bool IngestDatagram(std::string_view datagram);
  bool IngestRecord(const syslog::SyslogRecord& rec);

  // Observations recorded into the e2e_latency_seconds histogram so far
  // (0 when metrics are off — the histogram only exists with a registry).
  std::uint64_t e2e_latency_samples() const noexcept {
    return latency_samples_.load(std::memory_order_relaxed);
  }

  // Releases every collector record whose hold has expired into the
  // digest stage; closed events reach the sink.  Returns the events
  // emitted so far (cumulative).
  std::size_t Pump();

  // End of stream: flushes the collector, closes every open group, and
  // joins pipeline threads.  Events that closed here go to the sink, or,
  // when no sink is installed, every event of the run is returned in
  // close order.  Idempotent.
  std::vector<core::DigestEvent> Finish();

  // Durability (DESIGN.md §14).  Attaches `dir` as the checkpoint
  // directory: restores from `dir/snapshot` when one exists (a missing
  // snapshot is a fresh start; a torn/corrupt/newer-version one refuses
  // with `error`), then opens the durable event log `dir/events.log` and
  // positions the replay cursor so events that were logged before the
  // crash are suppressed instead of re-emitted when the sender resends.
  // Call before the first record.  Crash-consistent resend equivalence
  // additionally needs suppress_duplicates (`--dedup`) on.
  bool OpenDurable(const std::string& dir, std::string* error);

  // Writes a crash-consistent snapshot of the collector + digest stage
  // (quiescing the pipeline when shards > 1) to `dir/snapshot` via
  // write-to-temp + fsync + atomic rename.  Requires OpenDurable.
  bool Checkpoint(std::string* error);

  bool durable() const noexcept { return !ckpt_dir_.empty(); }
  std::uint64_t replay_cursor() const noexcept { return replay_cursor_; }
  // Events suppressed by the replay cursor since restore.
  std::uint64_t replay_suppressed() const noexcept {
    return replay_suppressed_;
  }
  // Seconds since the last successful Checkpoint (0 before the first);
  // also refreshes the checkpoint-age gauge, so the host's periodic tick
  // keeps the series current between checkpoints.
  double SecondsSinceCheckpoint() noexcept;

  // Open groups in the live digest stage (exact when quiescent — the
  // serve loop between pumps, or after Finish).
  std::size_t open_group_count() const noexcept {
    return pipeline_->open_group_count();
  }

  const std::string& tenant() const noexcept { return options_.tenant; }
  // Cumulative events delivered through the live path (exact once
  // Finish() returns; a lower bound mid-stream when shards > 1, where
  // the merge thread emits concurrently).
  std::size_t event_count() const noexcept {
    return events_.load(std::memory_order_relaxed);
  }
  syslog::Collector& collector() noexcept { return collector_; }
  const syslog::Collector& collector() const noexcept { return collector_; }
  core::KnowledgeBase& kb() noexcept { return *kb_; }
  const core::LocationDict& dict() const noexcept { return *dict_; }
  // The tenant-scoped registry view (the root itself when the tenant
  // name is empty; null when metrics are off).
  obs::Registry* metrics() noexcept { return reg_; }

 private:
  // Every flush unit of closed events funnels through here (merge thread
  // when shards>1): assigns the unit's dense event sequence numbers,
  // suppresses the already-logged prefix after a restore, commits the
  // rest to the durable log with one write and one fsync, then hands
  // each event to the sink (or the collected_ buffer) in close order.
  void DeliverBatch(std::span<core::DigestEvent> events);
  bool RestoreFromBody(std::string_view body, std::string* error);
  // Files an ingest-to-emit latency tag for stream time `t` (wall clock
  // "now"), and looks one up for a closing event.  See the latency-tag
  // comment at the members below.
  void NoteIngestTag(TimeMs t);
  void ObserveEventLatency(const core::DigestEvent& ev);

  EngineOptions options_;

  // Owning-form storage (null in the borrowing form).
  std::unique_ptr<core::KnowledgeBase> owned_kb_;
  std::unique_ptr<core::LocationDict> owned_dict_;
  core::KnowledgeBase* kb_;
  const core::LocationDict* dict_;

  // Tenant-scoped registry view; reg_ points at it, at the root, or is
  // null.
  std::unique_ptr<obs::Registry> scope_;
  obs::Registry* reg_ = nullptr;

  syslog::Collector collector_;

  // Live digest stage, built by the constructor and stopped first by the
  // destructor, while everything its sink reaches is still alive.
  std::unique_ptr<pipeline::ShardedPipeline> pipeline_;

  EventSink sink_;
  std::vector<core::DigestEvent> collected_;  // sink-less mode
  std::atomic<std::size_t> events_{0};
  bool finished_ = false;

  // Ingest-to-emit latency tags (live only when metrics are on).  Each
  // accepted record whose stream timestamp advances past the newest tag
  // files {stream time, wall clock at ingest}; the deque is therefore
  // strictly increasing in `t`.  When an event closes, the newest tag
  // with t <= ev.end tells us when the last record that could have
  // contributed to the event entered the process, and "now - then" is
  // the end-to-end pipeline latency (collector hold + digest + delivery).
  // Lookups leave the tags in place; the deque is bounded instead by
  // dropping its oldest tag once it is full, so only an event that ended
  // before every kept tag goes unobserved.  Guarded by tag_mutex_
  // because ingest runs on the serve thread while DeliverBatch runs on
  // the merge thread at shards > 1.
  struct LatencyTag {
    TimeMs t;
    std::chrono::steady_clock::time_point at;
  };
  std::mutex tag_mutex_;
  std::deque<LatencyTag> latency_tags_;
  obs::Histogram* e2e_latency_ = nullptr;
  std::atomic<std::uint64_t> latency_samples_{0};

  // Durability state (empty/null when OpenDurable was never called).
  std::string ckpt_dir_;
  std::unique_ptr<ckpt::EventLog> event_log_;
  std::uint64_t replay_cursor_ = 0;
  std::uint64_t replay_suppressed_ = 0;
  // One commit's encoded payloads, one writer per event, and their
  // views; reused across commits.
  std::vector<ckpt::Writer> log_payloads_;
  std::vector<std::string_view> log_views_;
  std::chrono::steady_clock::time_point last_ckpt_{};
  struct CkptCells {
    obs::Counter* saves = nullptr;
    obs::Counter* save_failures = nullptr;
    obs::Counter* restores = nullptr;        // successful restores
    obs::Counter* fresh_starts = nullptr;    // absent snapshot on open
    obs::Counter* suppressed = nullptr;      // replay-cursor suppressions
    obs::Gauge* snapshot_bytes = nullptr;
    obs::Gauge* age_s = nullptr;             // seconds since last save
    obs::Histogram* save_seconds = nullptr;
    obs::Histogram* fsync_seconds = nullptr;  // one per event-log commit
    obs::Counter* append_failures = nullptr;  // failed event-log commits
  } ckpt_cells_;
};

}  // namespace sld::engine
