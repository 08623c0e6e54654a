// §5.3 — "it generally takes less than one hour to digest one day's
// syslog".  Online digest throughput of one day, in messages/second: a
// pipeline shard sweep (shards=1 runs inline, no threads), written to
// BENCH_throughput.json.
// The sweep run also digests a dense leg at shards=1: slgen's message
// mix from 20 routers absent from the configs, whose rule windows hold
// about a thousand entries each.  Template learning and rule mining are
// timed per phase by bench_learn.
//
//   bench_throughput                 # sweep 1/2/4/8
//   bench_throughput --threads 4     # one sharded measurement
//   bench_throughput --json=FILE     # output path (default
//                                    # BENCH_throughput.json)
//   bench_throughput --sweep 1,2 --reps 5 --learn-days 2
//                                    # CI smoke: per-rep rates for the
//                                    # bench_gate noise model
#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "loadgen/loadgen.h"
#include "obs/registry.h"
#include "pipeline/pipeline.h"
#include "syslog/wire.h"

using namespace sld;

namespace {

// Fixture knobs, set in main() before the first Shared() call.
int g_learn_days = 14;

// Keeps each run's result observable so the work cannot be elided.
volatile std::size_t g_events_sink = 0;

// The dense leg: 20 unconfigured routers at 200 messages per virtual
// second, 200 virtual seconds, so the 120 s rule windows fill to about
// 1,200 entries.
constexpr int kDenseRouters = 20;
constexpr std::int64_t kDenseMsgsPerVsec = 200;
constexpr std::uint64_t kDenseMessages = 40000;

std::vector<syslog::SyslogRecord> DenseRecords(TimeMs epoch) {
  loadgen::StreamOptions opts;
  opts.seed = 1;
  opts.routers = kDenseRouters;
  opts.msgs_per_vsec = kDenseMsgsPerVsec;
  opts.epoch = epoch;
  std::atomic<std::uint64_t> cursor{0};
  loadgen::Stream stream(opts, &cursor, kDenseMessages);
  std::vector<syslog::SyslogRecord> records;
  records.reserve(kDenseMessages);
  while (stream.RenderRound() > 0) {
    for (const loadgen::WireSlot& slot : stream.wire_slots()) {
      auto rec = syslog::DecodeRfc3164(stream.SlotPayload(slot), 2009);
      if (rec.has_value()) records.push_back(std::move(*rec));
    }
  }
  return records;
}

struct Fixture {
  Fixture() {
    p = bench::BuildPipeline(sim::DatasetASpec(), g_learn_days, 1);
    dense = DenseRecords(p.live.messages.front().time);
  }
  bench::Pipeline p;
  std::vector<syslog::SyslogRecord> dense;
};

Fixture& Shared() {
  static Fixture fixture;
  return fixture;
}

// `records` through the sharded pipeline; returns seconds.
double RunRecords(Fixture& f, const std::vector<syslog::SyslogRecord>& records,
                  std::size_t threads, obs::Registry* metrics = nullptr) {
  pipeline::PipelineOptions opts;
  opts.shards = threads;
  opts.metrics = metrics;
  pipeline::ShardedPipeline p(&f.p.kb, &f.p.dict, opts);
  const auto start = std::chrono::steady_clock::now();
  p.Push(records);
  const core::DigestResult result = p.Finish();
  const auto stop = std::chrono::steady_clock::now();
  g_events_sink = result.events.size();
  return std::chrono::duration<double>(stop - start).count();
}

// One full live day through the sharded pipeline; returns seconds.
double RunSharded(Fixture& f, std::size_t threads,
                  obs::Registry* metrics = nullptr) {
  return RunRecords(f, f.p.live.messages, threads, metrics);
}

// Per-rep msgs/sec of the dense leg at shards=1.
std::vector<double> MeasureDenseReps(Fixture& f, int reps) {
  std::vector<double> rates;
  for (int rep = 0; rep < reps; ++rep) {
    rates.push_back(static_cast<double>(f.dense.size()) /
                    RunRecords(f, f.dense, 1));
  }
  return rates;
}

// Per-rep wall-clock messages/second at a given shard count; the summary
// rate is the best rep (scheduler noise only ever slows a run down), the
// full list feeds the bench_gate median-of-N noise model.
std::vector<double> MeasureShardedReps(Fixture& f, std::size_t threads,
                                       int reps) {
  std::vector<double> rates;
  rates.reserve(static_cast<std::size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    rates.push_back(static_cast<double>(f.p.live.messages.size()) /
                    RunSharded(f, threads));
  }
  return rates;
}

double BestOf(const std::vector<double>& rates) {
  double best = 0;
  for (const double r : rates) best = std::max(best, r);
  return best;
}

struct SweepPoint {
  std::size_t threads = 1;
  std::vector<double> reps;  // per-rep msgs/sec, in run order
};

void WriteSweepJson(const std::string& path, std::size_t messages,
                    int learn_days, const std::vector<SweepPoint>& sweep,
                    const std::vector<double>* dense,
                    const obs::MetricsSnapshot& metrics) {
  std::ofstream out(path);
  // cpus matters for reading the sweep: speedup is bounded by the cores
  // actually available, not the thread count requested.
  out << "{\n  \"benchmark\": \"throughput\",\n  \"dataset\": \"A\",\n"
      << "  \"cpus\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"messages\": " << messages << ",\n"
      << "  \"learn_days\": " << learn_days << ",\n  \"sweep\": [\n";
  const double base = BestOf(sweep.front().reps);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const double rate = BestOf(sweep[i].reps);
    out << "    {\"threads\": " << sweep[i].threads
        << ", \"msgs_per_sec\": " << rate
        << ", \"speedup\": " << rate / base << ", \"reps\": [";
    for (std::size_t r = 0; r < sweep[i].reps.size(); ++r) {
      out << (r != 0 ? ", " : "") << sweep[i].reps[r];
    }
    out << "]}" << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  // The dense leg: bench_gate compares its rate with this run's own
  // threads=1 sweep rate, a ratio that does not depend on the host.
  if (dense != nullptr) {
    out << "  \"dense\": {\"routers\": " << kDenseRouters
        << ", \"msgs_per_vsec\": " << kDenseMsgsPerVsec
        << ", \"messages\": " << kDenseMessages
        << ", \"msgs_per_sec\": " << BestOf(*dense) << ", \"reps\": [";
    for (std::size_t r = 0; r < dense->size(); ++r) {
      out << (r != 0 ? ", " : "") << (*dense)[r];
    }
    out << "]},\n";
  }
  // Pipeline-internals snapshot (DESIGN.md §9) from an instrumented run
  // at the highest shard count: queue depths, cache hit ratio, merge
  // backlog — context for interpreting a sweep regression.
  out << "  \"metrics\": " << metrics.RenderJson() << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  long threads = 0;
  int reps = 3;
  std::vector<std::size_t> sweep_threads = {1, 2, 4, 8};
  std::string json = "BENCH_throughput.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--learn-days") == 0 && i + 1 < argc) {
      g_learn_days = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--sweep") == 0 && i + 1 < argc) {
      sweep_threads.clear();
      for (const char* tok = std::strtok(argv[++i], ","); tok != nullptr;
           tok = std::strtok(nullptr, ",")) {
        const long v = std::atol(tok);
        if (v > 0) sweep_threads.push_back(static_cast<std::size_t>(v));
      }
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json = argv[i] + 7;
    } else {
      std::fprintf(stderr, "bench_throughput: unknown argument %s\n",
                   argv[i]);
      return 2;
    }
  }
  if (g_learn_days < 1) g_learn_days = 1;
  if (reps < 1) reps = 1;
  if (sweep_threads.empty()) sweep_threads = {1, 2, 4, 8};

  Fixture& f = Shared();
  if (threads > 0) {
    // Single measurement mode: the pipeline at the requested shard
    // count, no sweep and no dense leg.
    const std::vector<double> rates =
        MeasureShardedReps(f, static_cast<std::size_t>(threads), reps);
    std::printf("sharded_pipeline threads=%ld msgs_per_sec=%.0f\n", threads,
                BestOf(rates));
    obs::Registry metrics;
    RunSharded(f, static_cast<std::size_t>(threads), &metrics);
    WriteSweepJson(json, f.p.live.messages.size(), g_learn_days,
                   {{static_cast<std::size_t>(threads), rates}}, nullptr,
                   metrics.Collect());
    return 0;
  }

  std::vector<SweepPoint> sweep;
  for (const std::size_t n : sweep_threads) {
    sweep.push_back({n, MeasureShardedReps(f, n, reps)});
    std::printf("sharded_pipeline threads=%zu msgs_per_sec=%.0f\n", n,
                BestOf(sweep.back().reps));
  }
  const std::vector<double> dense = MeasureDenseReps(f, reps);
  std::printf("dense threads=1 msgs_per_sec=%.0f\n", BestOf(dense));
  obs::Registry metrics;
  RunSharded(f, sweep.back().threads, &metrics);
  WriteSweepJson(json, f.p.live.messages.size(), g_learn_days, sweep, &dense,
                 metrics.Collect());
  std::printf("wrote %s\n", json.c_str());
  return 0;
}
