// Seeded input generation.  Nothing here is timed: a workload's inputs
// are generated once per seed and cached, and every run of that seed
// reuses them.
#include <sys/socket.h>
#include <sys/uio.h>

#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <unordered_map>

#include "core/learn.h"
#include "engine/engine.h"
#include "harness.h"
#include "loadgen/loadgen.h"
#include "sim/generator.h"
#include "syslog/archive.h"
#include "syslog/ingest.h"
#include "syslog/wire.h"

namespace perfbench {
namespace fs = std::filesystem;
using namespace sld;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

bool WriteFile(const std::string& path, std::string_view data) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    if (!out) return false;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  return !ec;
}

std::vector<std::string> ReadDatagrams(const std::string& path) {
  std::vector<std::string> out;
  std::ifstream in(path, std::ios::binary);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

namespace {

// One dataset-A network of a few hundred routers; its unscaled history
// feeds `learn` and the KB that `sim` and `dense` serve with.
// Generated streams are cut to a fixed length so every seed does the same
// amount of work; only the content varies.
constexpr int kRouters = 400;
constexpr int kHistoryDays = 15;
constexpr std::size_t kHistoryRecords = 400000;
// `sim`: the same network's next day with every scenario rate scaled the
// way bench_ckpt scales them, cut to kSimDatagrams.
constexpr double kSimRateScale = 36.0;
constexpr std::size_t kSimDatagrams = 300000;
// `dense`: slgen's message mix from routers absent from the configs.  At
// 200 messages per virtual second over 20 routers, each router's 120 s
// rule window fills to about 1200 entries.
constexpr int kDenseRouters = 20;
constexpr std::int64_t kDenseMsgsPerVsec = 200;
constexpr std::uint64_t kDenseDatagrams = 100000;

// The cross-router grouping window the input statistics count against.
constexpr std::int64_t kCrossWindowMs = 1000;

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over (seed, stream): distinct, well-mixed seeds
  // for the topology, history, live period and dense stream.
  std::uint64_t z =
      seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

sim::DatasetSpec NetworkSpec(std::uint64_t seed) {
  sim::DatasetSpec spec = sim::DatasetASpec();
  spec.topo.num_routers = kRouters;
  spec.topo.seed = SubSeed(seed, 0) & 0xffffffffu;
  return spec;
}

// Multiplies every scenario rate and the uncorrelated noise by `s`, as
// bench_ckpt does for its live period.
void ScaleRates(sim::ScenarioRates& r, double s) {
  for (sim::Rate* rate :
       {&r.link_flap, &r.controller_flap, &r.bundle_flap, &r.bgp_vpn_flap,
        &r.ibgp_flap, &r.cpu_spike, &r.bad_auth_scan, &r.login_scan,
        &r.config_change, &r.env_alarm, &r.card_oir, &r.maintenance_window,
        &r.rp_switchover, &r.sap_churn, &r.service_churn,
        &r.pim_dual_failure, &r.duplex_mismatch}) {
    rate->per_day *= s;
  }
  r.random_noise_per_day *= s;
}

// Configs, history archive and the KB `sldigest learn` would write at
// its defaults, learned serially in process from the files on disk.
bool GenerateNetwork(const InputPaths& paths, std::uint64_t seed) {
  const sim::DatasetSpec spec = NetworkSpec(seed);
  sim::Dataset ds =
      sim::GenerateDataset(spec, 0, kHistoryDays, SubSeed(seed, 1));
  if (ds.messages.size() > kHistoryRecords) {
    ds.messages.resize(kHistoryRecords);
  }
  fs::create_directories(paths.Configs());
  for (std::size_t i = 0; i < ds.configs.size(); ++i) {
    if (!WriteFile(paths.Configs() + "/" + ds.topo.routers[i].name + ".cfg",
                   ds.configs[i])) {
      return false;
    }
  }
  if (!syslog::WriteArchiveFile(paths.History() + ".tmp", ds.messages)) {
    return false;
  }
  fs::rename(paths.History() + ".tmp", paths.History());

  // Mirrors CmdLearn: configs and history come back through the same
  // readers the CLI uses, so the KB is byte-identical to its output.
  std::string error;
  const auto configs = engine::LoadConfigDir(paths.Configs(), &error);
  if (!error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return false;
  }
  const core::LocationDict dict = core::LocationDict::Build(configs);
  bool ok = true;
  const auto records = syslog::ReadArchiveFileParallel(
      paths.History(), syslog::IngestOptions{}, nullptr, &ok);
  if (!ok) return false;
  core::OfflineLearnerParams params;
  params.rules.window_ms = kRuleWindowMs;
  params.threads = 1;
  const core::KnowledgeBase kb =
      core::OfflineLearner(params).Learn(records, dict);
  return WriteFile(paths.Kb(), kb.Serialize());
}

std::vector<std::string> SimDatagrams(std::uint64_t seed) {
  sim::DatasetSpec spec = NetworkSpec(seed);
  ScaleRates(spec.rates, kSimRateScale);
  const sim::Dataset live =
      sim::GenerateDataset(spec, kHistoryDays, 1, SubSeed(seed, 2));
  std::vector<std::string> out;
  std::string buf;
  for (const syslog::SyslogRecord& rec : live.messages) {
    if (out.size() == kSimDatagrams) break;
    buf.clear();
    syslog::AppendRfc3164(rec, &buf);
    out.push_back(buf);
  }
  return out;
}

std::vector<std::string> DenseDatagrams(std::uint64_t seed) {
  loadgen::StreamOptions opts;
  opts.seed = SubSeed(seed, 3);
  opts.routers = kDenseRouters;
  opts.msgs_per_vsec = kDenseMsgsPerVsec;
  opts.epoch = sim::DatasetEpoch() + kHistoryDays * kMsPerDay;
  std::atomic<std::uint64_t> cursor{0};
  loadgen::Stream stream(opts, &cursor, kDenseDatagrams);
  std::vector<std::string> out;
  out.reserve(kDenseDatagrams);
  while (stream.RenderRound() > 0) {
    for (const loadgen::WireSlot& slot : stream.wire_slots()) {
      out.emplace_back(stream.SlotPayload(slot));
    }
  }
  return out;
}

// Event lines of the datagrams run through an in-process Engine with
// serve's options, pumped after every wire-front-sized batch.
std::string ReferenceEvents(const InputPaths& paths,
                            const std::vector<std::string>& datagrams) {
  engine::EngineOptions opts;
  opts.hold_ms = kHoldMs;
  opts.year = kYear;
  opts.idle_close_ms = kIdleCloseMs;
  std::string error;
  auto eng = engine::Engine::Load(paths.Configs(), paths.Kb(), opts, &error);
  if (eng == nullptr) {
    std::fprintf(stderr, "reference: %s\n", error.c_str());
    return {};
  }
  std::string lines;
  eng->SetEventSink([&lines](const core::DigestEvent& ev) {
    lines += ev.Format();
    lines += '\n';
  });
  for (std::size_t i = 0; i < datagrams.size(); ++i) {
    eng->IngestDatagram(datagrams[i]);
    if (i % kSendBatch == kSendBatch - 1) eng->Pump();
  }
  eng->Pump();
  eng->Finish();
  return lines;
}

// Properties of the input that explain the digest stage's cost: how many
// earlier same-router datagrams sit in the 120 s rule window, how many
// datagrams sit in the 1 s cross-router window, and how many come from
// routers with no config.
std::string InputStats(const InputPaths& paths,
                       const std::vector<std::string>& datagrams) {
  std::set<std::string> known;
  for (const auto& entry : fs::directory_iterator(paths.Configs())) {
    known.insert(entry.path().stem().string());
  }
  std::unordered_map<std::string, std::deque<TimeMs>> per_router;
  std::deque<TimeMs> recent;
  double rule_sum = 0.0;
  double cross_sum = 0.0;
  std::uint64_t unknown = 0;
  std::uint64_t decoded = 0;
  for (const std::string& d : datagrams) {
    const auto rec = syslog::DecodeRfc3164(d, kYear);
    if (!rec) continue;
    ++decoded;
    if (known.count(rec->router) == 0) ++unknown;
    auto& window = per_router[rec->router];
    while (!window.empty() && window.front() < rec->time - kRuleWindowMs) {
      window.pop_front();
    }
    rule_sum += static_cast<double>(window.size());
    window.push_back(rec->time);
    while (!recent.empty() && recent.front() < rec->time - kCrossWindowMs) {
      recent.pop_front();
    }
    cross_sum += static_cast<double>(recent.size());
    recent.push_back(rec->time);
  }
  const double n = decoded == 0 ? 1.0 : static_cast<double>(decoded);
  return JsonObject()
      .Int("datagrams", datagrams.size())
      .Int("decoded", decoded)
      .Int("routers", per_router.size())
      .Num("input.rule_window_per_msg", rule_sum / n)
      .Num("input.cross_window_per_msg", cross_sum / n)
      .Num("input.unknown_router_share", static_cast<double>(unknown) / n)
      .Render();
}

bool WriteDatagrams(const std::string& path,
                    const std::vector<std::string>& datagrams) {
  std::string text;
  for (const std::string& d : datagrams) {
    text += d;
    text += '\n';
  }
  return WriteFile(path, text);
}

}  // namespace

bool GenerateInputs(const InputPaths& paths, const std::string& workload,
                    std::uint64_t seed) {
  fs::create_directories(paths.dir);
  // kb.txt is written last, so its presence marks a complete network.
  if (!fs::exists(paths.Kb()) && !GenerateNetwork(paths, seed)) {
    std::fprintf(stderr, "cannot generate the network inputs\n");
    return false;
  }
  if (workload == "learn") return true;
  // The reference is written last, so its presence marks complete inputs.
  if (fs::exists(paths.Reference(workload))) return true;
  const std::vector<std::string> datagrams =
      workload == "sim" ? SimDatagrams(seed) : DenseDatagrams(seed);
  const std::string ref = ReferenceEvents(paths, datagrams);
  if (ref.empty() || !WriteDatagrams(paths.Datagrams(workload), datagrams) ||
      !WriteFile(paths.Stats(workload), InputStats(paths, datagrams)) ||
      !WriteFile(paths.Reference(workload), ref)) {
    std::fprintf(stderr, "cannot generate the %s inputs\n", workload.c_str());
    return false;
  }
  return true;
}

}  // namespace perfbench
