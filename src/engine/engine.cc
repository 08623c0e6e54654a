#include "engine/engine.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "ckpt/codec.h"
#include "ckpt/event_codec.h"
#include "ckpt/snapshot.h"
#include "obs/registry.h"

namespace sld::engine {

std::vector<net::ParsedConfig> LoadConfigDir(const std::string& dir,
                                             std::string* error) {
  std::vector<net::ParsedConfig> parsed;
  std::vector<std::filesystem::path> paths;
  std::error_code ec;
  // The error_code overload reports "cannot open the directory" through
  // `ec` instead of throwing; ignoring it used to make a missing or
  // unreadable --configs dir look like a dir with zero configs.
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".cfg") paths.push_back(entry.path());
  }
  if (ec) {
    if (error != nullptr) {
      *error = "cannot read config dir " + dir + ": " + ec.message();
    }
    return parsed;
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& path : paths) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    try {
      parsed.push_back(net::ParseConfig(buffer.str()));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "skipping %s: %s\n", path.c_str(), e.what());
    }
  }
  return parsed;
}

std::unique_ptr<core::KnowledgeBase> LoadKnowledgeBase(
    const std::string& path, std::string* error) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  if (text.empty()) {
    if (error != nullptr) *error = "cannot read " + path;
    return nullptr;
  }
  if (!text.starts_with(core::KnowledgeBase::kHeader)) {
    if (error != nullptr) {
      *error = "cannot read " + path + ": not a knowledge base";
    }
    return nullptr;
  }
  return std::make_unique<core::KnowledgeBase>(
      core::KnowledgeBase::Deserialize(text));
}

Engine::Engine(core::KnowledgeBase* kb, const core::LocationDict* dict,
               EngineOptions options)
    : options_(std::move(options)),
      kb_(kb),
      dict_(dict),
      collector_(options_.hold_ms, options_.year,
                 options_.suppress_duplicates) {
  if (options_.shards == 0) options_.shards = 1;
  if (options_.idle_close_ms <= 0) {
    options_.idle_close_ms =
        kb_->temporal_params.smax + kb_->rule_params.window_ms;
  }
  if (options_.metrics != nullptr) {
    if (options_.tenant.empty()) {
      reg_ = options_.metrics;
    } else {
      scope_ = options_.metrics->ScopedView({{"tenant", options_.tenant}});
      reg_ = scope_.get();
    }
    collector_.BindMetrics(reg_);
    e2e_latency_ = reg_->AddHistogram(
        "e2e_latency_seconds",
        "wall-clock latency from record ingest to event emission",
        obs::LatencyBucketsSeconds());
  }
  pipeline::PipelineOptions opts;
  opts.shards = options_.shards;
  opts.idle_close_ms = options_.idle_close_ms;
  opts.max_group_age_ms = options_.max_group_age_ms;
  opts.metrics = reg_;
  pipeline_ = std::make_unique<pipeline::ShardedPipeline>(kb_, dict_, opts);
  // Per-tenant event order is the deterministic close order at any shard
  // count; each flush unit reaches the log (when durable) as one commit.
  pipeline_->SetEventSink(
      [this](std::span<core::DigestEvent> events) { DeliverBatch(events); });
}

Engine::~Engine() {
  // Stop the stage first, while the sink and the event log its merge
  // thread may still deliver to are alive.  An unfinished engine stops
  // like a crash: its open groups are not flushed into events, so a
  // durable engine's log keeps matching its snapshot.
  pipeline_.reset();
}

std::unique_ptr<Engine> Engine::Load(const std::string& configs_dir,
                                     const std::string& kb_path,
                                     EngineOptions options,
                                     std::string* error) {
  auto kb = LoadKnowledgeBase(kb_path, error);
  if (kb == nullptr) return nullptr;
  std::string cfg_error;
  auto configs = LoadConfigDir(configs_dir, &cfg_error);
  if (!cfg_error.empty()) {
    if (error != nullptr) *error = cfg_error;
    return nullptr;
  }
  auto dict = std::make_unique<core::LocationDict>(
      core::LocationDict::Build(configs));
  auto engine =
      std::make_unique<Engine>(kb.get(), dict.get(), std::move(options));
  engine->owned_kb_ = std::move(kb);
  engine->owned_dict_ = std::move(dict);
  return engine;
}

void Engine::SetEventSink(EventSink sink) { sink_ = std::move(sink); }

void Engine::DeliverBatch(std::span<core::DigestEvent> events) {
  std::uint64_t seq = static_cast<std::uint64_t>(
      events_.fetch_add(events.size(), std::memory_order_relaxed));
  if (seq < replay_cursor_) {
    // Regenerated during post-restore resend and already durably logged
    // before the crash: the log owns them, never emit them twice.  A
    // unit may straddle the cursor.
    const std::size_t logged = static_cast<std::size_t>(
        std::min<std::uint64_t>(replay_cursor_ - seq, events.size()));
    replay_suppressed_ += logged;
    if (ckpt_cells_.suppressed != nullptr) ckpt_cells_.suppressed->Inc(logged);
    events = events.subspan(logged);
    seq += logged;
  }
  if (event_log_ != nullptr && !events.empty()) {
    if (log_payloads_.size() < events.size()) {
      log_payloads_.resize(events.size());
    }
    log_views_.clear();
    for (std::size_t i = 0; i < events.size(); ++i) {
      log_payloads_[i].Clear();
      ckpt::WriteEvent(events[i], &log_payloads_[i]);
      log_views_.push_back(log_payloads_[i].data());
    }
    double fsync_s = 0.0;
    std::string err;
    if (event_log_->AppendBatch(seq, log_views_, &fsync_s, &err)) {
      if (ckpt_cells_.fsync_seconds != nullptr) {
        ckpt_cells_.fsync_seconds->Observe(fsync_s);
      }
    } else {
      // Reported once per commit; its events are still delivered.  The
      // log stays at its last good record, so every later commit fails
      // too and is reported the same way.
      std::fprintf(stderr,
                   "tenant %s: event log commit of %zu events failed: %s\n",
                   options_.tenant.c_str(), events.size(), err.c_str());
      if (ckpt_cells_.append_failures != nullptr) {
        ckpt_cells_.append_failures->Inc();
      }
    }
  }
  for (core::DigestEvent& ev : events) {
    // After the commit's fsync, so the latency covers the durable write.
    ObserveEventLatency(ev);
    if (sink_) {
      sink_(ev);
    } else {
      collected_.push_back(std::move(ev));
    }
  }
}

bool Engine::IngestDatagram(std::string_view datagram) {
  TimeMs accepted_time = 0;
  const bool ok = collector_.IngestDatagram(datagram, &accepted_time);
  if (ok) NoteIngestTag(accepted_time);
  return ok;
}

bool Engine::IngestRecord(const syslog::SyslogRecord& rec) {
  TimeMs accepted_time = 0;
  const bool ok = collector_.IngestRecord(rec, &accepted_time);
  if (ok) NoteIngestTag(accepted_time);
  return ok;
}

// At most one tag per distinct stream second is kept (records within a
// second share the newest earlier tag), and the deque keeps only the
// newest kMaxLatencyTags so a long stream stays bounded.
namespace {
constexpr std::size_t kMaxLatencyTags = 4096;
}  // namespace

void Engine::NoteIngestTag(TimeMs t) {
  if (e2e_latency_ == nullptr) return;
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(tag_mutex_);
  if (!latency_tags_.empty() && t <= latency_tags_.back().t) return;
  if (latency_tags_.size() == kMaxLatencyTags) latency_tags_.pop_front();
  latency_tags_.push_back({t, now});
}

void Engine::ObserveEventLatency(const core::DigestEvent& ev) {
  if (e2e_latency_ == nullptr) return;
  const auto now = std::chrono::steady_clock::now();
  std::chrono::steady_clock::time_point at;
  {
    std::lock_guard<std::mutex> lock(tag_mutex_);
    // Newest tag with t <= ev.end: the last ingest instant that could
    // have contributed to this event.  Lookups retire nothing: a sweep
    // hands events over in start order, so a later event may end
    // earlier than this one.
    const auto after = std::upper_bound(
        latency_tags_.begin(), latency_tags_.end(), ev.end,
        [](TimeMs end, const LatencyTag& tag) { return end < tag.t; });
    if (after == latency_tags_.begin()) {
      // No tag at or before the event's close time (e.g. the stream was
      // restored from a checkpoint, so its records were never tagged).
      return;
    }
    at = std::prev(after)->at;
  }
  const double seconds = std::chrono::duration<double>(now - at).count();
  e2e_latency_->Observe(seconds >= 0 ? seconds : 0.0);
  latency_samples_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t Engine::Pump() {
  pipeline_->Push(collector_.Drain());
  return events_.load(std::memory_order_relaxed);
}

std::vector<core::DigestEvent> Engine::Finish() {
  if (finished_) return {};
  finished_ = true;
  pipeline_->Push(collector_.Flush());
  pipeline_->Finish();
  return std::exchange(collected_, {});
}

bool Engine::OpenDurable(const std::string& dir, std::string* error) {
  if (durable()) {
    if (error != nullptr) *error = "checkpoint dir already attached";
    return false;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create checkpoint dir " + dir + ": " + ec.message();
    }
    return false;
  }
  if (reg_ != nullptr && ckpt_cells_.saves == nullptr) {
    ckpt_cells_.saves =
        reg_->AddCounter("ckpt_saves_total", "successful checkpoints");
    ckpt_cells_.save_failures =
        reg_->AddCounter("ckpt_save_failures_total", "failed checkpoints");
    ckpt_cells_.restores = reg_->AddCounter(
        "ckpt_restores_total", "snapshots restored at open");
    ckpt_cells_.fresh_starts = reg_->AddCounter(
        "ckpt_fresh_starts_total", "opens that found no snapshot");
    ckpt_cells_.suppressed = reg_->AddCounter(
        "ckpt_replay_suppressed_total",
        "events regenerated after restore and suppressed by the replay "
        "cursor");
    ckpt_cells_.snapshot_bytes =
        reg_->AddGauge("ckpt_snapshot_bytes", "body size of the last snapshot");
    ckpt_cells_.age_s =
        reg_->AddGauge("ckpt_age_seconds", "seconds since the last checkpoint");
    ckpt_cells_.save_seconds =
        reg_->AddHistogram("ckpt_save_seconds", "checkpoint write latency",
                           obs::LatencyBucketsSeconds());
    ckpt_cells_.fsync_seconds = reg_->AddHistogram(
        "ckpt_eventlog_fsync_seconds",
        "event-log commit fsync latency, one observation per commit of a "
        "flush unit's events",
        obs::LatencyBucketsSeconds());
    ckpt_cells_.append_failures = reg_->AddCounter(
        "ckpt_eventlog_append_failures_total",
        "event-log commits that failed to write or fsync (their events "
        "were delivered anyway)");
  }
  ckpt_dir_ = dir;
  std::string body;
  std::string snap_error;
  const ckpt::SnapshotStatus status =
      ckpt::ReadSnapshotFile(dir + "/snapshot", &body, &snap_error);
  switch (status) {
    case ckpt::SnapshotStatus::kOk:
      if (!RestoreFromBody(body, error)) {
        ckpt_dir_.clear();
        return false;
      }
      if (ckpt_cells_.restores != nullptr) ckpt_cells_.restores->Inc();
      break;
    case ckpt::SnapshotStatus::kAbsent:
      if (ckpt_cells_.fresh_starts != nullptr) ckpt_cells_.fresh_starts->Inc();
      break;
    case ckpt::SnapshotStatus::kCorrupt:
    case ckpt::SnapshotStatus::kVersionMismatch:
      // Refusing beats silently starting over: a fresh start would
      // re-emit events the log already owns.
      if (error != nullptr) *error = "refusing to restore: " + snap_error;
      ckpt_dir_.clear();
      return false;
  }
  ckpt::EventLog::OpenStats stats;
  std::string log_error;
  auto log = ckpt::EventLog::Open(dir + "/events.log", &stats, &log_error);
  if (log == nullptr) {
    if (error != nullptr) *error = log_error;
    ckpt_dir_.clear();
    return false;
  }
  if (log->next_seq() < events_.load(std::memory_order_relaxed)) {
    // The log must always be at least as far along as any snapshot
    // (appends fsync before delivery; the snapshot counts deliveries).
    if (error != nullptr) {
      *error = "event log " + dir + "/events.log is behind the snapshot";
    }
    ckpt_dir_.clear();
    return false;
  }
  replay_cursor_ = log->next_seq();
  event_log_ = std::move(log);
  return true;
}

bool Engine::RestoreFromBody(std::string_view body, std::string* error) {
  ckpt::Reader r(body);
  const std::string tenant = r.Str();
  if (!r.ok() || tenant != options_.tenant) {
    if (error != nullptr) {
      *error = "snapshot is for tenant '" + tenant + "', not '" +
               options_.tenant + "'";
    }
    return false;
  }
  const std::uint64_t emitted = r.U64();
  if (!collector_.LoadState(&r)) {
    if (error != nullptr) *error = "corrupt collector state in snapshot";
    return false;
  }
  // Flag 0: a snapshot taken before the first record by a version that
  // built the stage lazily; the fresh stage is that state.
  if (r.U8() != 0) {
    // Templates first (runtime catch-alls grow the set), so the stage
    // state refers to the snapshot's template ids.  Threaded, the workers
    // are parked on empty queues; the first batch pushed after the
    // restore publishes the new set to them.
    const std::string templates = r.Str();
    if (!r.ok()) {
      if (error != nullptr) *error = "corrupt template state in snapshot";
      return false;
    }
    kb_->templates = core::TemplateSet::Deserialize(templates);
    if (!pipeline_->LoadState(&r)) {
      if (error != nullptr) *error = "corrupt stage state in snapshot";
      return false;
    }
  }
  if (!r.AtEnd()) {
    if (error != nullptr) *error = "trailing bytes in snapshot body";
    return false;
  }
  events_.store(emitted, std::memory_order_relaxed);
  return true;
}

bool Engine::Checkpoint(std::string* error) {
  if (!durable()) {
    if (error != nullptr) *error = "no checkpoint dir attached";
    return false;
  }
  const auto start = std::chrono::steady_clock::now();
  pipeline_->Quiesce();
  ckpt::Writer body;
  body.Str(options_.tenant);
  body.U64(events_.load(std::memory_order_relaxed));
  collector_.SaveState(&body);
  body.U8(1);  // the stage section follows
  body.Str(kb_->templates.Serialize());
  pipeline_->SaveState(&body);
  if (!ckpt::WriteSnapshotFile(ckpt_dir_ + "/snapshot", body.data(), error)) {
    if (ckpt_cells_.save_failures != nullptr) ckpt_cells_.save_failures->Inc();
    return false;
  }
  last_ckpt_ = std::chrono::steady_clock::now();
  if (ckpt_cells_.saves != nullptr) {
    ckpt_cells_.saves->Inc();
    ckpt_cells_.snapshot_bytes->Set(
        static_cast<std::int64_t>(body.data().size()));
    ckpt_cells_.age_s->Set(0);
    ckpt_cells_.save_seconds->Observe(
        std::chrono::duration<double>(last_ckpt_ - start).count());
  }
  return true;
}

double Engine::SecondsSinceCheckpoint() noexcept {
  if (last_ckpt_ == std::chrono::steady_clock::time_point{}) return 0.0;
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - last_ckpt_)
                       .count();
  if (ckpt_cells_.age_s != nullptr) {
    ckpt_cells_.age_s->Set(static_cast<std::int64_t>(s));
  }
  return s;
}

}  // namespace sld::engine
