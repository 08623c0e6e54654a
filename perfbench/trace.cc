// The traced run: in-process replays of `sldigest serve` and `sldigest
// learn` with a span around every call into a layer's public functions.
// Each replay runs in pairs, spans off then on, so the run also reports
// what tracing costs.  Spans are recorded on the serving (or learning)
// thread only; the closed-loop generator runs on its own thread.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "ckpt/eventlog.h"
#include "core/learn.h"
#include "engine/engine.h"
#include "engine/host.h"
#include "harness.h"
#include "obs/registry.h"
#include "syslog/ingest.h"
#include "wirefront/wirefront.h"

namespace perfbench {
namespace fs = std::filesystem;
using namespace sld;
namespace {

// In-memory span store: one record per timed call, written out at the
// end.  Disabled, Begin/End cost nothing but a branch, which is how the
// traced run measures its own overhead.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start;
    double end;
    std::int32_t parent;  // index into spans(), -1 at the root
  };

  Tracer(bool enabled, int run_id) : enabled_(enabled), run_(run_id) {}

  int Begin(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back({name, Now(), 0.0, open_});
    open_ = static_cast<std::int32_t>(spans_.size() - 1);
    return open_;
  }
  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = Now();
    open_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Total and self (total minus direct children) seconds per span name.
  std::map<std::string, double> Totals() const;
  std::map<std::string, double> SelfTimes() const;
  // Writes the spans as JSON lines to `path`.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  int run_;
  std::int32_t open_ = -1;
  std::vector<Span> spans_;
};

// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), id_(t.Begin(name)) {}
  ~Scope() { t_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

std::map<std::string, double> Tracer::Totals() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += s.end - s.start;
  return out;
}

std::map<std::string, double> Tracer::SelfTimes() const {
  std::map<std::string, double> out = Totals();
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      out[spans_[static_cast<std::size_t>(s.parent)].name] -= s.end - s.start;
    }
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"run\": %d, \"id\": %zu, \"parent\": %d, "
                  "\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f}\n",
                  run_, i, s.parent, s.name, s.start, s.end);
    out << line;
  }
  return static_cast<bool>(out);
}

double Get(const std::map<std::string, double>& m, const char* key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

// The spans of the per-layer table.  Their self times, generator wait
// included (it is inside wirefront.poll), should account for a pass's
// wall time; the other spans (construction, bind, metrics snapshots, the
// checkpoint-age tick, sampling, teardown) are summed apart.
bool IsLayerSpan(const std::string& name) {
  static const std::set<std::string> kLayers = {
      "net.config_parse", "core.dict_build",     "core.kb_load",
      "ckpt.open",        "wirefront.poll",      "syslog.collector",
      "engine.pump",      "engine.sink",         "engine.finish",
      "ckpt.snapshot",    "syslog.archive_read", "core.learn",
      "core.kb_serialize"};
  return kLayers.count(name) != 0;
}

// Parses the configs and builds the location dictionary, as both serve
// (Engine::Load) and learn do first.
std::unique_ptr<core::LocationDict> LoadDict(const InputPaths& paths,
                                             Tracer& tr) {
  std::vector<net::ParsedConfig> configs;
  {
    Scope s(tr, "net.config_parse");
    configs = engine::LoadConfigDir(paths.Configs());
  }
  Scope s(tr, "core.dict_build");
  return std::make_unique<core::LocationDict>(
      core::LocationDict::Build(configs));
}

// One replay: its throughput, its wall time and its per-layer metrics.
struct Pass {
  bool ok = false;
  std::string error;
  double throughput = 0.0;
  double wall = 0.0;  // setup start .. teardown end
  std::uint64_t messages = 0;
  std::map<std::string, double> metrics;
};

// ---- serve -----------------------------------------------------------------

// Replays CmdServe + EngineHost::Serve for one durable tenant with
// serve's defaults: parse configs, build the dictionary, load the KB,
// open the checkpoint dir, bind, then poll / ingest / pump until the
// last datagram, finish, take the final checkpoint and tear down.
Pass RunServePass(const InputPaths& paths,
                  const std::vector<std::string>& datagrams,
                  const std::string& reference, const std::string& work,
                  Tracer& tr) {
  Pass pass;
  fs::remove_all(work);
  fs::create_directories(work);
  const std::string metrics_path = work + "/metrics.json";
  obs::Registry metrics;
  std::string error;

  const double t0 = Now();
  const std::unique_ptr<core::LocationDict> dict = LoadDict(paths, tr);
  std::unique_ptr<core::KnowledgeBase> kb;
  {
    Scope s(tr, "core.kb_load");
    kb = std::make_unique<core::KnowledgeBase>(
        core::KnowledgeBase::Deserialize(ReadFile(paths.Kb())));
  }
  std::unique_ptr<engine::EngineHost> host;
  {
    Scope s(tr, "engine.host");
    host = std::make_unique<engine::EngineHost>(
        engine::HostOptions{0, &metrics});
  }
  engine::Engine* eng = nullptr;
  {
    Scope s(tr, "engine.construct");
    engine::EngineOptions opts;
    opts.hold_ms = kHoldMs;
    opts.year = kYear;
    opts.idle_close_ms = kIdleCloseMs;
    opts.metrics = &metrics;
    eng = host->AddEngine(
        std::make_unique<engine::Engine>(kb.get(), dict.get(), opts));
  }
  bool opened = false;
  {
    Scope s(tr, "ckpt.open");
    opened = eng->OpenDurable(work + "/ckpt", &error);
  }
  bool bound = false;
  {
    Scope s(tr, "wirefront.open");
    bound = opened && host->BindAll(wirefront::WireOptions{}, &error);
  }
  if (!bound) {
    pass.error = error;
    return pass;
  }
  std::uint64_t events = 0;
  std::FILE* out = std::fopen((work + "/events.out").c_str(), "w");
  if (out == nullptr) {
    pass.error = "cannot write " + work + "/events.out";
    return pass;
  }
  eng->SetEventSink([&](const core::DigestEvent& ev) {
    Scope s(tr, "engine.sink");
    std::fprintf(out, "%s\n", ev.Format().c_str());
    std::fflush(out);
    ++events;
  });

  const std::size_t templates_before = eng->kb().templates.size();
  LoopStats loop;
  const std::uint16_t port = host->port_of(0);
  std::thread generator([&] { loop = RunClosedLoop(datagrams, port); });

  std::uint64_t seen = 0;
  std::uint64_t polls = 0;
  std::uint64_t released_in_pumps = 0;
  std::size_t buffered_max = 0;
  std::size_t open_groups_max = 0;
  std::int64_t open_messages_max = 0;
  double last_snapshot = 0.0;
  double last_sample = 0.0;
  double last_checkpoint = Now();
  const auto sample_open_messages = [&] {
    Scope s(tr, "trace.sample");
    open_messages_max = std::max(
        open_messages_max, metrics.Collect().Value("tracker_open_messages"));
    last_sample = Now();
  };
  const wirefront::WireFront::Sink sink = [&](std::size_t,
                                              std::string_view datagram) {
    Scope s(tr, "syslog.collector");
    eng->IngestDatagram(datagram);
  };
  const std::size_t limit = datagrams.size();
  while (seen < limit) {
    std::ptrdiff_t got = 0;
    {
      Scope s(tr, "wirefront.poll");
      got = host->front()->PollOnce(1000, limit - seen, sink);
    }
    ++polls;
    if (got == wirefront::WireFront::kInterrupted) continue;
    if (got == wirefront::WireFront::kError) {
      pass.error = "wire front poll failed";
      break;
    }
    // serve's on_tick: a metrics snapshot at most every 10 s.
    if (Now() - last_snapshot >= 10.0) {
      Scope s(tr, "obs.snapshot");
      obs::WriteSnapshotFiles(metrics.Collect(), metrics_path);
      last_snapshot = Now();
    }
    // serve's periodic checkpoint (every 30 s) and checkpoint-age tick.
    if (Now() - last_checkpoint >= 30.0) {
      Scope s(tr, "ckpt.periodic");
      host->CheckpointAll();
      last_checkpoint = Now();
    }
    {
      Scope s(tr, "ckpt.age");
      eng->SecondsSinceCheckpoint();
    }
    if (got <= 0) continue;
    seen += static_cast<std::uint64_t>(got);
    buffered_max = std::max(buffered_max, eng->collector().buffered());
    const std::size_t released_before = eng->collector().released_count();
    {
      Scope s(tr, "engine.pump");
      host->PumpAll();
    }
    released_in_pumps += eng->collector().released_count() - released_before;
    open_groups_max = std::max(open_groups_max, eng->open_group_count());
    if (Now() - last_sample >= 0.01) sample_open_messages();
  }
  sample_open_messages();
  {
    Scope s(tr, "engine.finish");
    host->FinishAll();
  }
  {
    Scope s(tr, "ckpt.snapshot");
    host->CheckpointAll();
  }
  const obs::MetricsSnapshot final_snapshot = metrics.Collect();
  {
    Scope s(tr, "obs.snapshot");
    obs::WriteSnapshotFiles(final_snapshot, metrics_path);
  }
  const std::size_t templates_minted =
      eng->kb().templates.size() - templates_before;
  {
    Scope s(tr, "engine.teardown");
    host.reset();
  }
  const double end = Now();
  generator.join();
  std::fclose(out);

  // The run's event log, re-appended into a scratch log: the fsynced
  // append cost per event, apart from the serve loop.
  std::vector<std::string> payloads;
  ckpt::EventLog::ForEach(
      work + "/ckpt/events.log",
      [&payloads](std::uint64_t, std::string_view p) {
        payloads.emplace_back(p);
      },
      &error);
  double append_s = 0.0;
  {
    ckpt::EventLog::OpenStats stats;
    auto scratch = ckpt::EventLog::Open(work + "/append.log", &stats, &error);
    if (scratch == nullptr) pass.error = "cannot open a scratch event log";
    const double a0 = Now();
    for (std::size_t i = 0; scratch != nullptr && i < payloads.size(); ++i) {
      scratch->Append(i, payloads[i], nullptr, &error);
    }
    append_s = Now() - a0;
  }

  if (pass.error.empty() && !loop.ok) pass.error = loop.error;
  if (pass.error.empty() && ReadFile(work + "/events.out") != reference) {
    pass.error = "traced serve events differ from the reference";
  }
  if (pass.error.empty() && payloads.size() != events) {
    pass.error = "event log holds " + std::to_string(payloads.size()) +
                 " events, served " + std::to_string(events);
  }
  std::uint64_t closed_flush = 0;
  std::uint64_t closed_all = 0;
  for (const obs::SeriesSnapshot& s : final_snapshot.series) {
    if (s.name != "tracker_groups_closed_total") continue;
    closed_all += static_cast<std::uint64_t>(s.ivalue);
    for (const auto& [k, v] : s.labels) {
      if (k == "reason" && v == "flush") closed_flush += s.ivalue;
    }
  }

  pass.ok = pass.error.empty();
  pass.messages = loop.sent;
  pass.throughput =
      Ratio(static_cast<double>(loop.sent), end - loop.first_send);
  pass.wall = end - t0;

  const auto totals = tr.Totals();
  const auto self = tr.SelfTimes();
  const double msgs = static_cast<double>(loop.sent);
  auto& m = pass.metrics;
  m["net.config_parse_s"] = Get(totals, "net.config_parse");
  m["core.dict_build_s"] = Get(totals, "core.dict_build");
  m["core.kb_load_s"] = Get(totals, "core.kb_load");
  m["ckpt.open_s"] = Get(totals, "ckpt.open");
  m["wirefront.poll_us_per_msg"] =
      1e6 * Ratio(Get(self, "wirefront.poll"), msgs);
  m["wirefront.msgs_per_poll"] = Ratio(msgs, static_cast<double>(polls));
  m["syslog.collector_us_per_msg"] =
      1e6 * Ratio(Get(totals, "syslog.collector"), msgs);
  m["engine.pump_us_per_msg"] =
      1e6 * Ratio(Get(self, "engine.pump"),
                  static_cast<double>(released_in_pumps));
  m["engine.sink_us_per_event"] =
      1e6 * Ratio(Get(totals, "engine.sink"), static_cast<double>(events));
  m["engine.finish_s"] = Get(self, "engine.finish");
  m["ckpt.append_us_per_event"] =
      1e6 * Ratio(append_s, static_cast<double>(payloads.size()));
  m["ckpt.snapshot_s"] = Get(totals, "ckpt.snapshot");
  m["pipeline.open_groups_max"] = static_cast<double>(open_groups_max);
  m["pipeline.open_messages_max"] = static_cast<double>(open_messages_max);
  m["pipeline.flush_close_ratio"] = Ratio(static_cast<double>(closed_flush),
                                          static_cast<double>(closed_all));
  m["syslog.collector_buffered_max"] = static_cast<double>(buffered_max);
  m["core.templates_minted"] = static_cast<double>(templates_minted);
  m["loadgen.server_starved_ratio"] =
      Ratio(static_cast<double>(loop.starved_polls),
            static_cast<double>(loop.polls));
  m["loadgen.peak_backlog_bytes"] = static_cast<double>(loop.peak_backlog);
  return pass;
}

// ---- learn -----------------------------------------------------------------

// Replays CmdLearn at its defaults: parse configs, build the dictionary,
// read the archive, learn serially, serialize and write the KB.
Pass RunLearnPass(const InputPaths& paths, const std::string& reference,
                  const std::string& work, Tracer& tr) {
  Pass pass;
  fs::remove_all(work);
  fs::create_directories(work);
  const double t0 = Now();
  std::unique_ptr<core::LocationDict> dict = LoadDict(paths, tr);
  syslog::IngestStats stats;
  std::vector<syslog::SyslogRecord> records;
  {
    Scope s(tr, "syslog.archive_read");
    bool ok = true;
    records = syslog::ReadArchiveFileParallel(
        paths.History(), syslog::IngestOptions{}, &stats, &ok);
    if (!ok) pass.error = "cannot read the history";
  }
  core::OfflineLearnerParams params;
  params.rules.window_ms = kRuleWindowMs;
  params.threads = 1;
  core::LearnTimings timings;
  std::unique_ptr<core::KnowledgeBase> kb;
  {
    Scope s(tr, "core.learn");
    kb = std::make_unique<core::KnowledgeBase>(
        core::OfflineLearner(params).Learn(records, *dict, nullptr, &timings));
  }
  std::string text;
  {
    Scope s(tr, "core.kb_serialize");
    text = kb->Serialize();
    std::ofstream(work + "/kb.txt") << text;
  }
  {
    Scope s(tr, "core.teardown");
    kb.reset();
    records = {};
    dict.reset();
  }
  const double end = Now();
  if (pass.error.empty() && text != reference) {
    pass.error = "traced learn KB differs from the reference";
  }
  pass.ok = pass.error.empty();
  pass.wall = end - t0;
  pass.messages = stats.records;
  pass.throughput = Ratio(static_cast<double>(stats.records), pass.wall);

  const auto totals = tr.Totals();
  auto& m = pass.metrics;
  m["net.config_parse_s"] = Get(totals, "net.config_parse");
  m["core.dict_build_s"] = Get(totals, "core.dict_build");
  m["syslog.archive_read_s"] = Get(totals, "syslog.archive_read");
  m["syslog.ingest_read_s"] = stats.read_s;
  m["syslog.ingest_parse_s"] = stats.parse_s;
  m["syslog.ingest_assemble_s"] = stats.assemble_s;
  m["core.learn_templates_s"] = timings.templates_s;
  m["core.learn_augment_s"] = timings.augment_s;
  m["core.learn_priors_s"] = timings.priors_s;
  m["core.learn_rules_s"] = timings.rules_s;
  m["core.learn_freq_s"] = timings.freq_s;
  m["core.kb_serialize_s"] = Get(totals, "core.kb_serialize");
  return pass;
}

// Runs (spans off, spans on) pairs after one untimed warm-up pass until
// `seconds` have passed, at least one pair.  Reports each per-layer
// metric's median over the traced passes, the median over pairs of
// traced / untraced throughput (a pair's passes run back to back, so slow
// drift of the host cancels), the share of each traced pass's wall time
// that the table's layer spans and the other spans account for, and
// writes the last traced pass's spans.
int RunPairs(const std::string& spans_path, double seconds,
             const std::function<Pass(Tracer&)>& run_pass) {
  const auto failed = [](const Pass& pass) {
    std::fprintf(stderr, "traced run failed: %s\n", pass.error.c_str());
    return 1;
  };
  {
    Tracer warm_up(false, -1);
    const Pass pass = run_pass(warm_up);
    if (!pass.ok) return failed(pass);
  }
  std::vector<double> on_over_off;
  std::map<std::string, std::vector<double>> layers;
  std::unique_ptr<Tracer> last;
  std::uint64_t messages = 0;
  const double start = Now();
  for (int pair = 0; pair == 0 || Now() - start < seconds; ++pair) {
    double throughput[2] = {0.0, 0.0};  // spans off, spans on
    // Alternate which pass of the pair goes first.
    for (const bool enabled : {pair % 2 == 1, pair % 2 == 0}) {
      auto tr =
          std::make_unique<Tracer>(enabled, 2 * pair + (enabled ? 1 : 0));
      const Pass pass = run_pass(*tr);
      if (!pass.ok) return failed(pass);
      messages += pass.messages;
      throughput[enabled ? 1 : 0] = pass.throughput;
      if (!enabled) continue;
      for (const auto& [name, value] : pass.metrics) {
        layers[name].push_back(value);
      }
      double layer_self = 0.0;
      double other_self = 0.0;
      for (const auto& [name, self] : tr->SelfTimes()) {
        (IsLayerSpan(name) ? layer_self : other_self) += self;
      }
      layers["trace.accounted_ratio"].push_back(Ratio(layer_self, pass.wall));
      layers["trace.unlisted_ratio"].push_back(Ratio(other_self, pass.wall));
      last = std::move(tr);
    }
    on_over_off.push_back(Ratio(throughput[1], throughput[0]));
  }
  if (!last->Write(spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
    return 1;
  }
  JsonObject out;
  for (const auto& [name, values] : layers) out.Num(name, Median(values));
  out.Num("trace.overhead_ratio", Median(on_over_off));
  out.Int("trace.messages", messages);
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

}  // namespace

int TraceServe(const InputPaths& paths, const std::string& workload,
               const std::string& work_dir, const std::string& spans_path,
               double seconds) {
  const std::vector<std::string> datagrams =
      ReadDatagrams(paths.Datagrams(workload));
  const std::string reference = ReadFile(paths.Reference(workload));
  return RunPairs(spans_path, seconds, [&](Tracer& tr) {
    return RunServePass(paths, datagrams, reference, work_dir + "/pass", tr);
  });
}

int TraceLearn(const InputPaths& paths, const std::string& work_dir,
               const std::string& spans_path, double seconds) {
  const std::string reference = ReadFile(paths.Kb());
  return RunPairs(spans_path, seconds, [&](Tracer& tr) {
    return RunLearnPass(paths, reference, work_dir + "/pass", tr);
  });
}

}  // namespace perfbench
