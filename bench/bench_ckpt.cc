// Checkpoint/restore recovery cost (DESIGN.md §14): how long a durable
// engine takes to snapshot its full live state and how long a cold
// restart takes to come back, swept over open-group counts.  Recovery
// time is the operational metric the checkpoint subsystem exists for —
// a crash loses at most one checkpoint interval of work, and the
// restart pays exactly the restore time measured here before it can
// accept datagrams again.  Written to BENCH_ckpt.json.
//
// Every sweep point also proves the snapshot is *faithful*, not just
// fast: the original engine and a restored-from-disk twin are fed the
// same continuation of the live stream and must close the same groups
// into byte-identical events in the same order ("identical" in the
// JSON; the gate refuses false).  A steady-state allocation audit
// covers the other side of the durability hot path: AppendRfc3164 into
// a reused buffer (the replay/generator encode loop) must not allocate.
//
// The event-log leg prices the serve path's durable write.  The events
// the first sweep point closes are appended into a scratch log one
// record per commit (one fsync each, the pre-group-commit engine) and
// in commits of 16 and 256 records, and each commit size reports
// microseconds per event.  Every batched log must be byte-identical to
// the per-record one ("eventlog_identical"; the gate refuses false).
//
// Open groups are keyed by root location, so their count is bounded by
// how many distinct spots the workload has touched — not by message
// volume.  To sweep into the tens of thousands the bench widens the
// topology (--routers) and multiplies the live-side scenario rates
// (--rate-scale), while learning on ordinary rates over the same
// network; that models the operational worst case (a large network
// melting down everywhere at once) without distorting the learned
// knowledge base.
//
//   bench_ckpt                            # defaults: sweep 1000,10000
//   bench_ckpt --reps 3 --sweep 1000 --live-days 1   # CI smoke
//   bench_ckpt --json=FILE                # default BENCH_ckpt.json
#include <stdlib.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ckpt/event_codec.h"
#include "ckpt/eventlog.h"
#include "common.h"
#include "engine/engine.h"
#include "syslog/wire.h"

using namespace sld;

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ", ";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v[i]);
    out += buf;
  }
  out += "]";
  return out;
}

// The serve configuration a durable tenant runs with, except that group
// closing is disabled (no idle horizon, effectively infinite age cap) so
// open groups accumulate to the sweep target instead of draining.
engine::EngineOptions DurableOptions() {
  engine::EngineOptions opts;
  opts.shards = 1;
  opts.suppress_duplicates = true;
  opts.hold_ms = 1000;
  opts.idle_close_ms = 0;
  opts.max_group_age_ms = TimeMs{400} * 24 * kMsPerHour;
  return opts;
}

struct SweepPoint {
  std::size_t target = 0;       // requested open-group count
  std::size_t open_groups = 0;  // actual count at checkpoint time
  std::size_t msgs_fed = 0;
  std::uintmax_t snapshot_bytes = 0;
  std::vector<double> save_reps;     // seconds per Checkpoint()
  std::vector<double> restore_reps;  // seconds per OpenDurable() restore
};

std::vector<double> RateReps(const std::vector<double>& seconds,
                             std::size_t groups) {
  std::vector<double> rates;
  rates.reserve(seconds.size());
  for (const double s : seconds) {
    rates.push_back(static_cast<double>(groups) / s);
  }
  return rates;
}

// Event-log commit sizes the leg times; 1 is one fsync per event.
constexpr std::size_t kCommitSizes[] = {1, 16, 256};
// Payloads the leg appends at most, so a large sweep point stays quick.
constexpr std::size_t kMaxLogEvents = 4096;

struct CommitLeg {
  std::size_t batch = 0;
  std::vector<double> us_per_event_reps;
};

// Appends `payloads` into a fresh log at `path` in commits of `batch`
// records and returns the seconds taken, or a negative value on an I/O
// error.
double AppendLog(const std::string& path,
                 const std::vector<std::string_view>& payloads,
                 std::size_t batch) {
  std::filesystem::remove(path);
  std::string error;
  ckpt::EventLog::OpenStats stats;
  auto log = ckpt::EventLog::Open(path, &stats, &error);
  if (log == nullptr) {
    std::fprintf(stderr, "FAIL: event log: %s\n", error.c_str());
    return -1.0;
  }
  const std::span<const std::string_view> all(payloads);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < all.size(); i += batch) {
    if (!log->AppendBatch(i, all.subspan(i, std::min(batch, all.size() - i)),
                          nullptr, &error)) {
      std::fprintf(stderr, "FAIL: event log append: %s\n", error.c_str());
      return -1.0;
    }
  }
  return Seconds(start);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Multiplies every scenario rate (and the uncorrelated noise) by `s`.
void ScaleRates(sim::ScenarioRates& r, double s) {
  for (sim::Rate* rate :
       {&r.link_flap, &r.controller_flap, &r.bundle_flap, &r.bgp_vpn_flap,
        &r.ibgp_flap, &r.cpu_spike, &r.bad_auth_scan, &r.login_scan,
        &r.config_change, &r.env_alarm, &r.card_oir,
        &r.maintenance_window, &r.rp_switchover, &r.sap_churn,
        &r.service_churn, &r.pim_dual_failure, &r.duplex_mismatch}) {
    rate->per_day *= s;
  }
  r.random_noise_per_day *= s;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 5;
  int live_days = 4;
  int routers = 400;
  double rate_scale = 100.0;
  std::vector<std::size_t> sweep = {1000, 10000};
  std::string json = "BENCH_ckpt.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--live-days") == 0 && i + 1 < argc) {
      live_days = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--routers") == 0 && i + 1 < argc) {
      routers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--rate-scale") == 0 && i + 1 < argc) {
      rate_scale = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--sweep") == 0 && i + 1 < argc) {
      sweep.clear();
      for (const char* tok = std::strtok(argv[++i], ","); tok != nullptr;
           tok = std::strtok(nullptr, ",")) {
        sweep.push_back(static_cast<std::size_t>(std::atoll(tok)));
      }
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json = argv[i] + 7;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (reps < 1) reps = 1;
  if (live_days < 1) live_days = 1;
  if (routers < 2) routers = 2;
  if (rate_scale < 1.0) rate_scale = 1.0;
  if (sweep.empty()) sweep = {1000};
  std::sort(sweep.begin(), sweep.end());

  bench::Header("ckpt", "checkpoint save / crash-restart restore",
                "recovery time scales linearly in open groups; a restored "
                "engine continues bit-identically to one that never died");

  // Learn at ordinary rates, serve a rate-scaled live period; both sides
  // render the same topology (same topo params + seed), so the location
  // dictionary built from the history configs covers the live stream.
  const int learn_days = 3;
  sim::DatasetSpec spec = sim::DatasetASpec();
  spec.topo.num_routers = routers;
  sim::DatasetSpec live_spec = spec;
  ScaleRates(live_spec.rates, rate_scale);

  bench::Pipeline p;
  p.history = sim::GenerateDataset(spec, 0, learn_days, bench::kOfflineSeed);
  p.live = sim::GenerateDataset(live_spec, learn_days, live_days,
                                bench::kOnlineSeed);
  p.dict = bench::BuildDict(p.history);
  core::OfflineLearnerParams learn_params;
  learn_params.rules = bench::PaperRuleParams(spec);
  learn_params.threads = bench::LearnThreadsFromEnv();
  core::OfflineLearner learner(learn_params);
  p.kb = learner.Learn(p.history.messages, p.dict);

  const std::vector<syslog::SyslogRecord>& live = p.live.messages;
  std::printf("live stream: %zu records (%d days, %d routers, rates "
              "x%.0f)\n",
              live.size(), live_days, routers, rate_scale);

  // Scratch checkpoint directories under TMPDIR.
  std::string tmpl =
      (std::filesystem::temp_directory_path() / "bench_ckpt.XXXXXX")
          .string();
  if (mkdtemp(tmpl.data()) == nullptr) {
    std::fprintf(stderr, "FAIL: cannot create scratch dir %s\n",
                 tmpl.c_str());
    return 1;
  }
  const std::filesystem::path scratch(tmpl);

  // Steady-state encode audit: AppendRfc3164 into a reused buffer must
  // stop allocating once the buffer has grown to the longest datagram.
  double encode_allocs_per_msg = 0.0;
  {
    std::string buf;
    for (std::size_t i = 0; i < std::min<std::size_t>(live.size(), 4096);
         ++i) {
      buf.clear();
      syslog::AppendRfc3164(live[i], &buf);  // warm the buffer capacity
    }
    const std::uint64_t before = bench::AllocationCount();
    for (const syslog::SyslogRecord& rec : live) {
      buf.clear();
      syslog::AppendRfc3164(rec, &buf);
    }
    const std::uint64_t allocs = bench::AllocationCount() - before;
    encode_allocs_per_msg =
        static_cast<double>(allocs) / static_cast<double>(live.size());
    std::printf("AppendRfc3164 steady state: %.4f allocs/msg over %zu "
                "encodes\n",
                encode_allocs_per_msg, live.size());
  }

  bool identical = true;
  std::vector<SweepPoint> points;
  // Encoded events of the first sweep point's continuation: the payloads
  // of the event-log leg.
  std::vector<std::string> log_payloads;
  for (const std::size_t target : sweep) {
    SweepPoint point;
    point.target = target;
    const std::filesystem::path dir = scratch / ("live_" +
                                                 std::to_string(target));
    const std::filesystem::path image =
        scratch / ("image_" + std::to_string(target));
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(image);
    std::filesystem::create_directories(image);

    engine::Engine a(&p.kb, &p.dict, DurableOptions());
    std::string error;
    if (!a.OpenDurable(dir.string(), &error)) {
      std::fprintf(stderr, "FAIL: OpenDurable: %s\n", error.c_str());
      return 1;
    }
    // Feed until the live stage holds `target` open groups.  Closing is
    // disabled, so the count only grows; the stream must be long enough
    // (--live-days) to reach the target before it runs dry.
    std::size_t fed = 0;
    while (a.open_group_count() < target && fed < live.size()) {
      a.IngestRecord(live[fed++]);
      if (fed % 512 == 0) a.Pump();
    }
    a.Pump();
    if (a.open_group_count() < target) {
      std::fprintf(stderr,
                   "FAIL: stream dry at %zu open groups (target %zu); "
                   "raise --live-days\n",
                   a.open_group_count(), target);
      return 1;
    }
    point.open_groups = a.open_group_count();
    point.msgs_fed = fed;

    // One untimed save warms the serializer and the page cache so the
    // timed reps measure the steady state the serve loop's periodic
    // tick actually pays.
    for (int r = -1; r < reps; ++r) {
      const auto start = std::chrono::steady_clock::now();
      if (!a.Checkpoint(&error)) {
        std::fprintf(stderr, "FAIL: Checkpoint: %s\n", error.c_str());
        return 1;
      }
      if (r >= 0) point.save_reps.push_back(Seconds(start));
    }
    point.snapshot_bytes = std::filesystem::file_size(dir / "snapshot");

    // Photograph the checkpoint the way a crash leaves it, then time
    // cold restarts against the image.
    std::filesystem::copy_file(dir / "snapshot", image / "snapshot");
    if (std::filesystem::exists(dir / "events.log")) {
      std::filesystem::copy_file(dir / "events.log", image / "events.log");
    }
    for (int r = -1; r < reps; ++r) {
      engine::Engine b(&p.kb, &p.dict, DurableOptions());
      const auto start = std::chrono::steady_clock::now();
      if (!b.OpenDurable(image.string(), &error)) {
        std::fprintf(stderr, "FAIL: restore: %s\n", error.c_str());
        return 1;
      }
      if (r >= 0) point.restore_reps.push_back(Seconds(start));
      if (b.open_group_count() != point.open_groups) {
        identical = false;
        std::fprintf(stderr,
                     "FAIL: restore came back with %zu open groups, "
                     "checkpoint had %zu\n",
                     b.open_group_count(), point.open_groups);
      }
    }

    // Fidelity: feed the SAME continuation of the live stream to the
    // original engine and to a restored twin; both must close the same
    // groups into byte-identical events in the same order.
    const std::size_t tail_end =
        std::min(live.size(), fed + std::size_t{4000});
    engine::Engine b(&p.kb, &p.dict, DurableOptions());
    if (!b.OpenDurable(image.string(), &error)) {
      std::fprintf(stderr, "FAIL: restore: %s\n", error.c_str());
      return 1;
    }
    for (std::size_t i = fed; i < tail_end; ++i) {
      a.IngestRecord(live[i]);
      b.IngestRecord(live[i]);
    }
    a.Pump();
    b.Pump();
    const std::vector<core::DigestEvent> fa = a.Finish();
    const std::vector<core::DigestEvent> fb = b.Finish();
    if (fa.size() != fb.size()) {
      identical = false;
      std::fprintf(stderr,
                   "FAIL: continuation closed %zu events live vs %zu "
                   "restored\n",
                   fa.size(), fb.size());
    } else {
      for (std::size_t i = 0; i < fa.size(); ++i) {
        if (fa[i].Format() != fb[i].Format()) {
          identical = false;
          std::fprintf(stderr,
                       "FAIL: continuation event %zu differs after "
                       "restore\n",
                       i);
          break;
        }
      }
    }

    if (log_payloads.empty()) {
      for (std::size_t i = 0; i < std::min(fa.size(), kMaxLogEvents); ++i) {
        ckpt::Writer w;
        ckpt::WriteEvent(fa[i], &w);
        log_payloads.push_back(std::move(w).Take());
      }
    }

    const double save_mid = Median(point.save_reps);
    const double restore_mid = Median(point.restore_reps);
    std::printf("%6zu open groups (%zu msgs):  save %8.2f ms  restore "
                "%8.2f ms  snapshot %8.1f KiB  (%zu events on close, "
                "%s)\n",
                point.open_groups, point.msgs_fed, save_mid * 1e3,
                restore_mid * 1e3,
                static_cast<double>(point.snapshot_bytes) / 1024.0,
                fa.size(), identical ? "identical" : "DIVERGED");
    points.push_back(std::move(point));
  }

  // Event-log leg: the same payloads at every commit size.  One untimed
  // pass per size warms the page cache and the file system's metadata.
  const std::vector<std::string_view> log_views(log_payloads.begin(),
                                                log_payloads.end());
  bool eventlog_identical = !log_views.empty();
  if (log_views.empty()) {
    std::fprintf(stderr, "FAIL: the sweep closed no events to log\n");
  }
  std::vector<CommitLeg> legs;
  const std::string per_record_log = (scratch / "per_record.log").string();
  for (const std::size_t batch : kCommitSizes) {
    if (log_views.empty()) break;
    CommitLeg leg;
    leg.batch = batch;
    const std::string path =
        (scratch / ("batch_" + std::to_string(batch) + ".log")).string();
    for (int r = -1; r < reps; ++r) {
      const double s = AppendLog(path, log_views, batch);
      if (s < 0) return 1;
      if (r >= 0) {
        leg.us_per_event_reps.push_back(
            s * 1e6 / static_cast<double>(log_views.size()));
      }
    }
    if (batch == 1) {
      std::filesystem::rename(path, per_record_log);
    } else if (ReadFile(path) != ReadFile(per_record_log)) {
      eventlog_identical = false;
      std::fprintf(stderr,
                   "FAIL: the log of %zu-record commits differs from the "
                   "per-record log\n",
                   batch);
    }
    std::printf("event log, %3zu-record commits: %8.2f us/event over %zu "
                "events\n",
                batch, Median(leg.us_per_event_reps), log_views.size());
    legs.push_back(std::move(leg));
  }

  std::ofstream out(json);
  out << "{\n  \"benchmark\": \"ckpt\",\n  \"dataset\": \"A\",\n"
      << "  \"cpus\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"shards\": 1,\n"
      << "  \"routers\": " << routers << ",\n"
      << "  \"rate_scale\": " << rate_scale << ",\n"
      << "  \"live_days\": " << live_days << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"identical\": " << (identical ? "true" : "false") << ",\n"
      << "  \"encode_allocs_per_msg\": " << encode_allocs_per_msg << ",\n"
      << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& pt = points[i];
    const std::vector<double> save_rates =
        RateReps(pt.save_reps, pt.open_groups);
    const std::vector<double> restore_rates =
        RateReps(pt.restore_reps, pt.open_groups);
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"open_groups\": %zu, \"msgs_fed\": %zu, "
        "\"snapshot_bytes\": %llu,\n"
        "     \"save_s\": %.6g, \"restore_s\": %.6g,\n"
        "     \"save_groups_per_sec\": %.6g, "
        "\"restore_groups_per_sec\": %.6g,\n",
        pt.open_groups, pt.msgs_fed,
        static_cast<unsigned long long>(pt.snapshot_bytes),
        Median(pt.save_reps), Median(pt.restore_reps), Median(save_rates),
        Median(restore_rates));
    out << buf << "     \"save_rate_reps\": " << JsonArray(save_rates)
        << ",\n     \"restore_rate_reps\": " << JsonArray(restore_rates)
        << "}" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"eventlog_identical\": "
      << (eventlog_identical ? "true" : "false") << ",\n"
      << "  \"eventlog_events\": " << log_views.size() << ",\n"
      << "  \"eventlog\": [\n";
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const CommitLeg& leg = legs[i];
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "    {\"batch\": %zu, \"us_per_event\": %.6g,\n",
                  leg.batch, Median(leg.us_per_event_reps));
    out << buf << "     \"us_per_event_reps\": "
        << JsonArray(leg.us_per_event_reps) << "}"
        << (i + 1 < legs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", json.c_str());

  std::filesystem::remove_all(scratch);
  const bool alloc_ok = encode_allocs_per_msg <= 0.01;
  if (!alloc_ok) {
    std::fprintf(stderr,
                 "FAIL: AppendRfc3164 allocates %.4f/msg with a reused "
                 "buffer\n",
                 encode_allocs_per_msg);
  }
  return identical && alloc_ok && eventlog_identical ? 0 : 1;
}
