// sldigest — command-line front end for the SyslogDigest library.
//
//   sldigest gen     --dataset A --days 14 [--day0 0] [--seed 1]
//                    --out msgs.log --configs DIR
//       Generates a synthetic dataset: a syslog archive plus one router
//       config file per router under DIR.
//
//   sldigest learn   --configs DIR --history msgs.log --kb kb.txt
//                    [--window-s 120] [--sweep]
//       Offline learning: templates, temporal patterns, rules, and
//       signature frequencies, written as a knowledge-base file.
//
//   sldigest digest  --configs DIR --kb kb.txt --in live.log
//                    [--report] [--csv out.csv] [--top N] [--shards N]
//       Online digesting: prints digest lines (or a full report) and can
//       export CSV.
//
//   sldigest serve   --configs DIR --kb kb.txt [--port N]
//   sldigest serve   --tenant NAME:CONFIGS:KB:PORT [--tenant ...]
//       Live UDP mode.  With repeated --tenant specs one process serves
//       several networks at once: per-tenant engines over a shared pool
//       (see src/engine/).
//
//   sldigest inspect --kb kb.txt
//       Dumps the learned domain knowledge in human-readable form.
//
//   sldigest events  --checkpoint-dir DIR
//       Dumps a durable event log (written by serve --checkpoint-dir) as
//       "seq|event" lines.
//
// The stream/serve commands are thin drivers over engine::Engine; all
// collector -> digest stage wiring lives there.  digest has no collector:
// it hands the whole archive to pipeline::Digest.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ckpt/event_codec.h"
#include "ckpt/eventlog.h"
#include "core/learn.h"
#include "core/priority/report.h"
#include "engine/engine.h"
#include "engine/host.h"
#include "flags.h"
#include "obs/registry.h"
#include "pipeline/pipeline.h"
#include "sim/generator.h"
#include "syslog/archive.h"
#include "syslog/collector.h"
#include "syslog/ingest.h"
#include "syslog/udp.h"

namespace {

using namespace sld;
using tools::Flags;

// Every flag some command parses.  main() rejects any other flag, so a
// typo (--shard for --shards) or a retired flag fails loudly instead of
// being ignored.
constexpr std::string_view kKnownFlags[] = {
    "checkpoint-dir", "checkpoint-interval-s", "configs", "csv",
    "dataset", "day0", "days", "dedup", "history", "hold-ms", "host",
    "idle-close-s", "idle-exit-s", "in", "kb", "max-datagrams",
    "metrics-interval-s", "metrics-out", "out", "pace-us", "port",
    "report", "seed", "shards", "sweep", "tenant", "top", "window-s",
    "year",
};

// Shared --metrics-out handling: when the flag is set, snapshots of `reg`
// are written to PATH (JSON) and PATH.prom (Prometheus text).  Periodic()
// rewrites them at most once per `interval_s` of wall clock, and a failed
// rewrite only prints; Final() always writes, and the command exits 1
// when it fails.
class MetricsWriter {
 public:
  MetricsWriter(Flags& flags, obs::Registry* reg)
      : reg_(reg),
        path_(flags.Get("metrics-out")),
        interval_s_(flags.GetInt("metrics-interval-s", 10)) {}

  bool enabled() const { return !path_.empty(); }

  void Periodic() {
    if (!enabled()) return;
    const auto now = std::chrono::steady_clock::now();
    if (wrote_once_ &&
        now - last_write_ < std::chrono::seconds(interval_s_)) {
      return;
    }
    Final();
    last_write_ = now;
    wrote_once_ = true;
  }

  // False, after printing why, when either file cannot be written.
  bool Final() {
    if (!enabled() || obs::WriteSnapshotFiles(reg_->Collect(), path_)) {
      return true;
    }
    std::fprintf(stderr, "cannot write metrics to %s\n", path_.c_str());
    return false;
  }

 private:
  obs::Registry* reg_;
  std::string path_;
  long interval_s_;
  bool wrote_once_ = false;
  std::chrono::steady_clock::time_point last_write_;
};

// Shared archive ingest for every record-consuming mode: the one-pass
// mmap reader, ingest_* metrics when a registry is given, and a stderr
// warning when malformed lines were skipped, so bad input is never
// silently dropped.
std::vector<syslog::SyslogRecord> ReadRecordsCli(
    const std::string& path, obs::Registry* metrics, bool& ok,
    std::size_t* malformed_out = nullptr) {
  syslog::IngestOptions opts;
  opts.metrics = metrics;
  syslog::IngestStats stats;
  auto records = syslog::ReadArchiveFileParallel(path, opts, &stats, &ok);
  if (!ok) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return records;
  }
  if (stats.malformed > 0) {
    std::fprintf(stderr, "warning: skipped %zu malformed line(s) in %s\n",
                 stats.malformed, path.c_str());
  }
  if (malformed_out != nullptr) *malformed_out = stats.malformed;
  return records;
}

// Writes `text` to `path`.  Closing before the check makes a failed
// final flush (a full disk) count as a failed write; a failure prints
// "cannot write PATH".
bool WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

int CmdGen(Flags& flags) {
  const std::string dataset = flags.Get("dataset", "A");
  const std::string out = flags.Require("out");
  const std::string configs = flags.Require("configs");
  if (!flags.ok()) return 2;
  sim::DatasetSpec spec =
      dataset == "B" ? sim::DatasetBSpec() : sim::DatasetASpec();
  const sim::Dataset ds = sim::GenerateDataset(
      spec, static_cast<int>(flags.GetInt("day0", 0)),
      static_cast<int>(flags.GetInt("days", 14)),
      static_cast<std::uint64_t>(flags.GetInt("seed", 1)));
  if (!syslog::WriteArchiveFile(out, ds.messages)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::error_code ec;
  std::filesystem::create_directories(configs, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", configs.c_str());
    return 1;
  }
  for (std::size_t i = 0; i < ds.configs.size(); ++i) {
    const std::string path =
        configs + "/" + ds.topo.routers[i].name + ".cfg";
    if (!WriteTextFile(path, ds.configs[i])) return 1;
  }
  std::printf("wrote %zu messages to %s and %zu configs to %s/\n",
              ds.messages.size(), out.c_str(), ds.configs.size(),
              configs.c_str());
  return 0;
}

int CmdLearn(Flags& flags) {
  const std::string configs = flags.Require("configs");
  const std::string history = flags.Require("history");
  const std::string kb_path = flags.Require("kb");
  if (!flags.ok()) return 2;
  std::string cfg_error;
  const auto parsed_configs = engine::LoadConfigDir(configs, &cfg_error);
  if (!cfg_error.empty()) {
    std::fprintf(stderr, "%s\n", cfg_error.c_str());
    return 1;
  }
  const core::LocationDict dict = core::LocationDict::Build(parsed_configs);
  obs::Registry metrics;
  MetricsWriter metrics_out(flags, &metrics);
  std::size_t malformed = 0;
  bool ok = true;
  const auto records = ReadRecordsCli(
      history, metrics_out.enabled() ? &metrics : nullptr, ok, &malformed);
  if (!ok) return 1;
  core::OfflineLearnerParams params;
  params.rules.window_ms = flags.GetInt("window-s", 120) * kMsPerSecond;
  params.sweep_temporal = flags.Has("sweep");
  core::OfflineLearner learner(params);
  if (metrics_out.enabled()) learner.BindMetrics(&metrics);
  core::LearnTimings timings;
  const core::KnowledgeBase kb =
      learner.Learn(records, dict, nullptr, &timings);
  const bool metrics_ok = metrics_out.Final();
  if (!WriteTextFile(kb_path, kb.Serialize())) return 1;
  std::printf(
      "learned from %zu messages (%zu malformed skipped): %zu templates, "
      "%zu rules, alpha=%g beta=%g in %.2fs -> %s\n",
      records.size(), malformed, kb.templates.size(), kb.rules.size(),
      kb.temporal_params.alpha, kb.temporal_params.beta, timings.total_s,
      kb_path.c_str());
  return metrics_ok ? 0 : 1;
}

int CmdDigest(Flags& flags) {
  const std::string configs = flags.Require("configs");
  const std::string kb_path = flags.Require("kb");
  const std::string in_path = flags.Require("in");
  if (!flags.ok()) return 2;
  obs::Registry metrics;
  MetricsWriter metrics_out(flags, &metrics);
  pipeline::PipelineOptions opts;
  opts.shards =
      static_cast<std::size_t>(std::max(1L, flags.GetInt("shards", 1)));
  opts.metrics = metrics_out.enabled() ? &metrics : nullptr;
  // The KB first, then the configs: Engine::Load's order and errors.
  std::string error;
  const auto kb = engine::LoadKnowledgeBase(kb_path, &error);
  if (kb == nullptr) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const auto parsed_configs = engine::LoadConfigDir(configs, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const core::LocationDict dict = core::LocationDict::Build(parsed_configs);
  bool ok = true;
  const auto records =
      ReadRecordsCli(in_path, metrics_out.enabled() ? &metrics : nullptr, ok);
  if (!ok) return 1;
  const core::DigestResult result =
      pipeline::Digest(kb.get(), &dict, records, opts);
  const bool metrics_ok = metrics_out.Final();
  if (flags.Has("report")) {
    std::fputs(core::RenderReport(result, dict).c_str(), stdout);
  } else {
    const std::size_t top = static_cast<std::size_t>(
        flags.GetInt("top", static_cast<long>(result.events.size())));
    for (std::size_t i = 0; i < result.events.size() && i < top; ++i) {
      std::printf("%s\n", result.events[i].Format().c_str());
    }
  }
  if (flags.Has("csv") &&
      !WriteTextFile(flags.Get("csv"), core::ToCsv(result))) {
    return 1;
  }
  return metrics_ok ? 0 : 1;
}

// Streaming mode over an archive file: events print the moment they
// close.  Records route through the engine's Collector first — the same
// reorder/dedup/loss-accounting front the live UDP mode uses — so the
// run is a faithful end-to-end simulation and the collector_* metrics
// reconcile: accepted = released + buffered, and ingested
// (accepted + late + malformed + duplicates) equals the archive size.
int CmdStream(Flags& flags) {
  const std::string configs = flags.Require("configs");
  const std::string kb_path = flags.Require("kb");
  const std::string in_path = flags.Require("in");
  if (!flags.ok()) return 2;
  obs::Registry metrics;
  MetricsWriter metrics_out(flags, &metrics);
  engine::EngineOptions opts;
  opts.shards =
      static_cast<std::size_t>(std::max(1L, flags.GetInt("shards", 1)));
  opts.hold_ms = flags.GetInt("hold-ms", 5000);
  opts.idle_close_ms = flags.GetInt("idle-close-s", 1800) * kMsPerSecond;
  opts.metrics = metrics_out.enabled() ? &metrics : nullptr;
  std::string error;
  const auto eng = engine::Engine::Load(configs, kb_path, opts, &error);
  if (eng == nullptr) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  bool ok = true;
  const auto records =
      ReadRecordsCli(in_path, metrics_out.enabled() ? &metrics : nullptr, ok);
  if (!ok) return 1;
  eng->SetEventSink([](const core::DigestEvent& ev) {
    std::printf("%s\n", ev.Format().c_str());
  });
  for (const auto& rec : records) {
    eng->IngestRecord(rec);
    eng->Pump();
    metrics_out.Periodic();
  }
  eng->Finish();
  const bool metrics_ok = metrics_out.Final();
  std::fprintf(stderr, "%zu records -> %zu events\n", records.size(),
               eng->event_count());
  return metrics_ok ? 0 : 1;
}

// Live collector mode: listen for RFC 3164 datagrams on UDP and print
// events as they close.  One network with --configs/--kb/--port, or many
// with repeated --tenant NAME:CONFIGS:KB[:PORT] specs — each tenant gets
// its own engine (KB, collector, digest state) and its own socket, all
// multiplexed by one EngineHost over a shared thread pool and registry.
// Exits after --max-datagrams across all tenants (for scripting) or runs
// until killed.
int CmdServe(Flags& flags) {
  obs::Registry metrics;
  MetricsWriter metrics_out(flags, &metrics);
  engine::EngineOptions base;
  base.shards =
      static_cast<std::size_t>(std::max(1L, flags.GetInt("shards", 1)));
  base.hold_ms = flags.GetInt("hold-ms", 5000);
  base.year = static_cast<int>(flags.GetInt("year", 2009));
  base.idle_close_ms = flags.GetInt("idle-close-s", 1800) * kMsPerSecond;
  // Crash-consistent restarts need the resend of already-seen datagrams
  // to be idempotent, which is what the collector's duplicate window
  // provides; checkpointed deployments should run with --dedup on.
  base.suppress_duplicates = flags.Has("dedup");

  std::vector<engine::TenantSpec> specs;
  const bool multi = flags.Has("tenant");
  if (multi) {
    for (const std::string& text : flags.GetAll("tenant")) {
      engine::TenantSpec spec;
      std::string error;
      if (!engine::ParseTenantSpec(text, &spec, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
      }
      spec.options = base;
      specs.push_back(std::move(spec));
    }
  } else {
    engine::TenantSpec spec;
    spec.configs_dir = flags.Require("configs");
    spec.kb_path = flags.Require("kb");
    if (!flags.ok()) return 2;
    spec.port = static_cast<std::uint16_t>(flags.GetInt("port", 5514));
    spec.options = base;
    specs.push_back(std::move(spec));
  }

  engine::HostOptions host_opts;
  host_opts.metrics = metrics_out.enabled() ? &metrics : nullptr;
  engine::EngineHost host(host_opts);
  std::string error;
  if (!host.LoadTenants(std::move(specs), &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  const std::string ckpt_dir = flags.Get("checkpoint-dir");
  if (!ckpt_dir.empty()) {
    for (std::size_t i = 0; i < host.tenant_count(); ++i) {
      engine::Engine* eng = host.engine(i);
      // Each tenant snapshots independently under its own subdirectory.
      const std::string dir =
          multi ? ckpt_dir + "/" + eng->tenant() : ckpt_dir;
      if (!eng->OpenDurable(dir, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
      }
      if (eng->replay_cursor() > 0) {
        std::fprintf(stderr, "%s%srestored; replay cursor at %llu\n",
                     eng->tenant().c_str(), eng->tenant().empty() ? "" : ": ",
                     static_cast<unsigned long long>(eng->replay_cursor()));
      }
    }
  }
  if (!host.BindAll(&error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  // One mutex serializes event lines across tenants; each tenant's own
  // subsequence stays its deterministic close order.  Multi-tenant lines
  // are prefixed "NAME|"; single-tenant output is byte-identical to the
  // historical serve mode.
  std::mutex out_mutex;
  for (std::size_t i = 0; i < host.tenant_count(); ++i) {
    engine::Engine* eng = host.engine(i);
    const std::string prefix = multi ? eng->tenant() + "|" : "";
    eng->SetEventSink([prefix, &out_mutex](const core::DigestEvent& ev) {
      const std::lock_guard<std::mutex> lock(out_mutex);
      std::printf("%s%s\n", prefix.c_str(), ev.Format().c_str());
      std::fflush(stdout);
    });
    if (multi) {
      std::fprintf(stderr, "tenant %s listening on 127.0.0.1:%u\n",
                   eng->tenant().c_str(), host.port_of(i));
    } else {
      std::fprintf(stderr, "listening on 127.0.0.1:%u\n", host.port_of(i));
    }
  }
  engine::EngineHost::ServeOptions serve;
  serve.max_datagrams = flags.GetInt("max-datagrams", 0);
  // After traffic has been seen, an idle stretch of this many seconds
  // ends the server (0 = run forever); makes scripted runs robust to UDP
  // loss under bursts.
  serve.idle_exit_s = flags.GetInt("idle-exit-s", 0);
  if (!ckpt_dir.empty()) {
    serve.checkpoint_interval_s = flags.GetInt("checkpoint-interval-s", 30);
  }
  serve.on_tick = [&metrics_out] { metrics_out.Periodic(); };
  host.Serve(serve);
  const bool metrics_ok = metrics_out.Final();
  for (std::size_t i = 0; i < host.tenant_count(); ++i) {
    const syslog::Collector& c = host.engine(i)->collector();
    if (multi) {
      std::fprintf(stderr, "tenant %s done: %zu datagrams (%zu malformed)\n",
                   host.engine(i)->tenant().c_str(),
                   c.accepted_count() + c.malformed_count(),
                   c.malformed_count());
    } else {
      std::fprintf(stderr, "done: %zu datagrams (%zu malformed)\n",
                   c.accepted_count() + c.malformed_count(),
                   c.malformed_count());
    }
  }
  return metrics_ok ? 0 : 1;
}

// Replays an archive as RFC 3164 datagrams to a UDP collector ("router
// side" of the serve mode; real time is not simulated — datagrams are
// sent back-to-back).
int CmdReplay(Flags& flags) {
  const std::string in_path = flags.Require("in");
  if (!flags.ok()) return 2;
  const auto port = static_cast<std::uint16_t>(flags.GetInt("port", 5514));
  auto sender =
      syslog::UdpSender::Open(flags.Get("host", "127.0.0.1"), port);
  if (!sender) {
    std::fprintf(stderr, "cannot open UDP sender\n");
    return 1;
  }
  bool ok = true;
  const auto records = ReadRecordsCli(in_path, nullptr, ok);
  if (!ok) return 1;
  // Pace the replay so the receiver's socket buffer keeps up (UDP has no
  // flow control); default ~20k datagrams/s.
  const long pace_us = flags.GetInt("pace-us", 50);
  std::size_t sent = 0;
  std::string datagram;
  for (const auto& rec : records) {
    datagram.clear();
    syslog::AppendRfc3164(rec, &datagram);
    sent += sender->Send(datagram);
    if (pace_us > 0) ::usleep(static_cast<useconds_t>(pace_us));
  }
  std::fprintf(stderr, "replayed %zu/%zu records to port %u\n", sent,
               records.size(), port);
  return sent == records.size() ? 0 : 1;
}

// Dumps a durable event log as "seq|event" lines: the operator's (and
// the crash tests') view of exactly what a checkpointed server emitted.
int CmdEvents(Flags& flags) {
  const std::string dir = flags.Require("checkpoint-dir");
  if (!flags.ok()) return 2;
  std::string error;
  std::size_t undecodable = 0;
  const bool ok = ckpt::EventLog::ForEach(
      dir + "/events.log",
      [&undecodable](std::uint64_t seq, std::string_view payload) {
        ckpt::Reader r(payload);
        core::DigestEvent ev;
        if (!ckpt::ReadEvent(&r, &ev)) {
          ++undecodable;
          return;
        }
        std::printf("%llu|%s\n", static_cast<unsigned long long>(seq),
                    ev.Format().c_str());
      },
      &error);
  if (!ok) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (undecodable > 0) {
    std::fprintf(stderr, "%zu undecodable event record(s)\n", undecodable);
    return 1;
  }
  return 0;
}

int CmdInspect(Flags& flags) {
  const std::string kb_path = flags.Require("kb");
  if (!flags.ok()) return 2;
  std::string error;
  const auto loaded = engine::LoadKnowledgeBase(kb_path, &error);
  if (loaded == nullptr) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const core::KnowledgeBase& kb = *loaded;
  std::printf("knowledge base: %zu templates, %zu rules, %llu historical "
              "messages\n",
              kb.templates.size(), kb.rules.size(),
              static_cast<unsigned long long>(kb.history_message_count));
  std::printf("temporal: alpha=%g beta=%g smin=%llds smax=%llds\n",
              kb.temporal_params.alpha, kb.temporal_params.beta,
              static_cast<long long>(kb.temporal_params.smin / 1000),
              static_cast<long long>(kb.temporal_params.smax / 1000));
  std::printf("rules: W=%llds SP_min=%g Conf_min=%g\n\n",
              static_cast<long long>(kb.rule_params.window_ms / 1000),
              kb.rule_params.min_support, kb.rule_params.min_confidence);
  std::printf("templates:\n");
  for (const core::Template& tmpl : kb.templates.All()) {
    const auto prior = kb.temporal_priors.find(tmpl.id);
    if (prior != kb.temporal_priors.end()) {
      std::printf("  [%3u] %-90s ~%.0fs period\n", tmpl.id,
                  tmpl.Canonical().c_str(), prior->second / 1000.0);
    } else {
      std::printf("  [%3u] %s\n", tmpl.id, tmpl.Canonical().c_str());
    }
  }
  std::printf("\nassociation rules (conf, supp):\n");
  for (const core::Rule& rule : kb.rules.All()) {
    std::printf("  (%.2f, %.2e) %s  <->  %s\n", rule.confidence,
                rule.support, kb.templates.Get(rule.a).Canonical().c_str(),
                kb.templates.Get(rule.b).Canonical().c_str());
  }
  return 0;
}

void Usage() {
  std::fputs(
      "usage: sldigest <gen|learn|digest|stream|serve|replay|inspect|events> "
      "[flags]\n"
      "  gen     --dataset A|B --days N [--day0 N] [--seed S] --out FILE "
      "--configs DIR\n"
      "  learn   --configs DIR --history FILE --kb FILE [--window-s N] "
      "[--sweep]\n"
      "  digest  --configs DIR --kb FILE --in FILE [--report] [--csv FILE] "
      "[--top N]\n"
      "          [--shards N]\n"
      "  stream  --configs DIR --kb FILE --in FILE [--idle-close-s N] "
      "[--shards N]\n"
      "          [--hold-ms N]\n"
      "  serve   --configs DIR --kb FILE [--port N] [--year N]\n"
      "          or repeatable --tenant NAME:CONFIGS:KB[:PORT] to serve "
      "several\n"
      "          networks in one process (events print as \"NAME|event\"; "
      "every\n"
      "          metric series carries a tenant label)\n"
      "          [--shards N] [--hold-ms N] [--idle-close-s N]\n"
      "          [--max-datagrams N] [--idle-exit-s N] [--dedup]\n"
      "          [--checkpoint-dir DIR] [--checkpoint-interval-s N]\n"
      "          --checkpoint-dir restores state at start and snapshots "
      "every N\n"
      "          seconds (default 30) with a durable event log; resends "
      "after a\n"
      "          crash are idempotent when --dedup is on (multi-tenant "
      "runs use\n"
      "          DIR/NAME per tenant)\n"
      "  replay  --in FILE [--host IP] [--port N] [--pace-us N]\n"
      "  inspect --kb FILE\n"
      "  events  --checkpoint-dir DIR  (dumps the durable event log as "
      "\"seq|event\")\n"
      "common flags:\n"
      "  --metrics-out FILE writes metric snapshots as FILE (JSON) and "
      "FILE.prom\n"
      "    (Prometheus text); --metrics-interval-s N rewrites them at most "
      "every\n"
      "    N seconds (learn/digest/stream/serve)\n"
      "  --shards N digests with N shard workers (digest/stream/serve; "
      "N=1 runs\n"
      "    inline; same events at any N)\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string cmd = argv[1];
  Flags flags(argc, argv, 2);
  for (const std::string& name : flags.Names()) {
    if (std::find(std::begin(kKnownFlags), std::end(kKnownFlags), name) ==
        std::end(kKnownFlags)) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      return 2;
    }
  }
  if (cmd == "gen") return CmdGen(flags);
  if (cmd == "learn") return CmdLearn(flags);
  if (cmd == "digest") return CmdDigest(flags);
  if (cmd == "stream") return CmdStream(flags);
  if (cmd == "serve") return CmdServe(flags);
  if (cmd == "replay") return CmdReplay(flags);
  if (cmd == "inspect") return CmdInspect(flags);
  if (cmd == "events") return CmdEvents(flags);
  Usage();
  return 2;
}
