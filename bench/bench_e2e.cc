// End-to-end soak (DESIGN.md §16): the slgen load generator blasting a
// live Engine over loopback UDP, with ingest-to-emit latency percentiles
// read off the engine's e2e_latency_seconds histogram.  Written to
// BENCH_e2e.json.
//
// Three measurements:
//
//   1. Sender throughput.  The slgen path (N threads, sendmmsg batches
//      from a reused payload slab, one flow per thread into one
//      socket) against the seed's sender: `sldigest replay`,
//      whose loop is one send() per datagram paced by usleep(--pace-us,
//      default 50) because an unpaced single socket just overflows the
//      receiver (UDP has no flow control).  slgen replaces open-loop
//      sleep pacing with a token bucket + batched sends, which is where
//      the >= 5x floor comes from.  An unpaced copy+send loop is also
//      measured: slgen must at least match it (>= 0.9x, a same-process
//      floor that holds even on single-core hosts where the thread
//      fan-out cannot help).
//
//   2. Allocation audit.  After warm-up, render + transmit rounds must
//      not allocate: the slab, slot table, scratch record/message and
//      sendmmsg arrays all keep their capacity (allocs_per_msg ~ 0).
//
//   3. Ledger + latency soak.  slgen with the fault knobs on sends into
//      an Engine draining a UdpReceiver; at the end the books must
//      close exactly:
//        sent = generated + duplicates = wire + injected_drops
//        wire = received + kernel_drops
//        received = accepted + late + malformed + dedup_duplicates
//      and the e2e_latency_seconds histogram yields p50/p99.
//
//   bench_e2e                          # defaults: 3 reps, 100k msgs
//   bench_e2e --reps 2 --total 40000   # CI smoke
//   bench_e2e --json=FILE              # default BENCH_e2e.json
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "engine/engine.h"
#include "loadgen/loadgen.h"
#include "obs/registry.h"
#include "sim/workload.h"
#include "syslog/udp.h"

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

// The seed's transmit shape (sldigest replay): one send() per datagram,
// single-threaded, paced by usleep(pace_us) — pace_us 0 gives the
// unpaced copy+send variant.  Rendering goes through the same
// loadgen::Stream as the batched path so the comparison isolates the
// transmit discipline.
double LegacyRep(std::uint16_t port, std::uint64_t total, long pace_us,
                 const loadgen::StreamOptions& stream_options) {
  std::atomic<std::uint64_t> cursor{0};
  loadgen::Stream stream(stream_options, &cursor, total);
  auto sender = syslog::UdpSender::Open("127.0.0.1", port);
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t sent = 0;
  while (stream.RenderRound() > 0) {
    for (const loadgen::WireSlot& slot : stream.wire_slots()) {
      const std::string datagram(stream.SlotPayload(slot));
      sender->Send(datagram);
      ++sent;
      if (pace_us > 0) ::usleep(static_cast<useconds_t>(pace_us));
    }
  }
  return static_cast<double>(sent) / Seconds(start);
}

double SlgenRep(std::uint16_t port, std::uint64_t total, int threads,
                const loadgen::StreamOptions& stream_options) {
  loadgen::RunOptions options;
  options.port = port;
  options.total = total;
  options.threads = threads;
  options.stream = stream_options;
  const loadgen::RunResult result = loadgen::Run(options);
  if (!result.ok || result.elapsed_seconds <= 0) return 0.0;
  return static_cast<double>(result.stats.wire) / result.elapsed_seconds;
}

const obs::SeriesSnapshot* FindSeries(const obs::MetricsSnapshot& snapshot,
                                      const char* name) {
  for (const obs::SeriesSnapshot& s : snapshot.series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  int threads = 4;
  std::uint64_t total = 100000;
  std::uint64_t soak_total = 0;  // 0 = same as total
  double soak_rate = 60000.0;
  std::string json = "BENCH_e2e.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--total") == 0 && i + 1 < argc) {
      total = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--soak-total") == 0 && i + 1 < argc) {
      soak_total = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--soak-rate") == 0 && i + 1 < argc) {
      soak_rate = std::atof(argv[++i]);
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json = argv[i] + 7;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (reps < 1) reps = 1;
  if (threads < 1) threads = 1;
  if (total < 4096) total = 4096;
  if (soak_total == 0) soak_total = total;

  bench::Header("e2e", "load generator + engine soak over loopback UDP",
                "batched multi-thread sender >= 5x the seed's one-sendto "
                "loop at 0 allocs/msg; ledger closes exactly; ingest-to-"
                "emit latency has finite p50/p99");

  loadgen::StreamOptions stream_options;
  stream_options.seed = bench::kOnlineSeed;
  stream_options.epoch = sim::DatasetEpoch();

  // --- 1. Sender throughput: slgen vs the seed replay sender. ---
  // The destination is one socket (the `serve` shape), bound but never
  // drained: loopback UDP sends succeed (the kernel drops on delivery
  // once its buffer fills), so the measurement is pure sender-side
  // cost.
  std::vector<double> legacy_reps;
  std::vector<double> unpaced_reps;
  std::vector<double> slgen_reps;
  {
    auto sink = syslog::UdpReceiver::Bind(0);
    if (!sink) {
      std::fprintf(stderr, "FAIL: sink bind\n");
      return 1;
    }
    const std::uint16_t port = sink->port();
    LegacyRep(port, total / 8, 0, stream_options);  // warm-up
    // The paced comparator is sleep-bound (~1e6/pace_us msgs/s), so a
    // small slice of the workload gives the same rate without stalling
    // the bench.
    const long pace_us = 50;
    const std::uint64_t paced_total = std::max<std::uint64_t>(
        512, total / 16);
    for (int r = 0; r < reps; ++r) {
      legacy_reps.push_back(
          LegacyRep(port, paced_total, pace_us, stream_options));
      unpaced_reps.push_back(LegacyRep(port, total, 0, stream_options));
      slgen_reps.push_back(SlgenRep(port, total, threads, stream_options));
    }
  }
  const double speedup = Median(slgen_reps) / Median(legacy_reps);
  const double speedup_unpaced = Median(slgen_reps) / Median(unpaced_reps);
  std::printf("%-14s %12.0f msgs/sec (1 thread, 1 sendto/msg + usleep)\n",
              "seed replay", Median(legacy_reps));
  std::printf("%-14s %12.0f msgs/sec (1 thread, 1 sendto/msg)\n",
              "seed unpaced", Median(unpaced_reps));
  std::printf("%-14s %12.0f msgs/sec (%d threads, sendmmsg)  %.2fx replay, "
              "%.2fx unpaced\n",
              "slgen", Median(slgen_reps), threads, speedup,
              speedup_unpaced);

  // --- 2. Allocation audit: render + transmit after warm-up. ---
  double allocs_per_msg = 0.0;
  {
    auto sink = syslog::UdpReceiver::Bind(0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(sink->port());
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr)) != 0) {
      std::fprintf(stderr, "FAIL: audit socket\n");
      return 1;
    }
    // A fault-heavy stream so every branch (duplicate, drop, reorder)
    // runs inside the audited window.
    loadgen::StreamOptions audit = stream_options;
    audit.faults = {0.05, 0.05, 0.10};
    std::atomic<std::uint64_t> cursor{0};
    loadgen::Stream stream(audit, &cursor, total);
    const std::uint64_t warm = 64;
    for (std::uint64_t i = 0; i < warm; ++i) {
      if (stream.RenderRound() == 0) break;
      stream.Transmit(fd);
    }
    const std::uint64_t before_msgs = stream.stats().generated;
    const std::uint64_t before = bench::AllocationCount();
    while (stream.RenderRound() > 0) {
      stream.Transmit(fd);
    }
    const std::uint64_t allocs = bench::AllocationCount() - before;
    const std::uint64_t msgs = stream.stats().generated - before_msgs;
    ::close(fd);
    allocs_per_msg =
        msgs > 0 ? static_cast<double>(allocs) / static_cast<double>(msgs)
                 : -1.0;
    std::printf("steady-state render+transmit: %.4f allocs/msg over %llu "
                "msgs\n",
                allocs_per_msg, static_cast<unsigned long long>(msgs));
  }

  // --- 3. Ledger + latency soak against a live Engine. ---
  // A short learn pass gives the engine a real knowledge base; the
  // loadgen routers are unknown to the dictionary, which is the honest
  // production shape for a generic load test (catch-all templates).
  sim::DatasetSpec spec = sim::DatasetASpec();
  spec.topo.num_routers = 10;
  bench::Pipeline fixture = bench::BuildPipeline(spec, 1, 0);

  obs::Registry registry;
  engine::EngineOptions engine_options;
  engine_options.shards = 1;
  engine_options.hold_ms = 5000;
  // No dedup: the virtual clock packs msgs_per_vsec messages into each
  // stream second, so benign byte-identical same-second messages are
  // common — the soak ledger counts every datagram the kernel delivered
  // (sent = accepted + kernel_drops + malformed + injected_drops).
  engine_options.suppress_duplicates = false;
  engine_options.metrics = &registry;
  engine::Engine engine(&fixture.kb, &fixture.dict, engine_options);
  engine.SetEventSink([](const core::DigestEvent&) {});

  syslog::UdpReceiver::BindOptions bind_options;
  bind_options.rcvbuf_bytes = 8 * 1024 * 1024;
  auto receiver = syslog::UdpReceiver::Bind(0, bind_options);
  if (!receiver) {
    std::fprintf(stderr, "FAIL: soak receiver bind\n");
    return 1;
  }

  std::atomic<bool> sender_done{false};
  std::uint64_t ingest_calls = 0;
  std::thread drain([&] {
    std::string datagram;
    std::uint64_t since_pump = 0;
    for (;;) {
      datagram.clear();
      if (receiver->Receive(&datagram, 20)) {
        engine.IngestDatagram(datagram);
        ++ingest_calls;
        if (++since_pump >= 2048) {
          engine.Pump();
          since_pump = 0;
        }
      } else {
        engine.Pump();
        since_pump = 0;
        // Drained after the sender finished: the soak is over.
        if (sender_done.load(std::memory_order_acquire)) break;
      }
    }
  });

  loadgen::RunOptions soak;
  soak.port = receiver->port();
  soak.total = soak_total;
  soak.threads = threads;
  soak.rate = soak_rate;
  soak.stream = stream_options;
  soak.stream.faults = {0.02, 0.01, 0.05};
  const loadgen::RunResult run = loadgen::Run(soak);
  sender_done.store(true, std::memory_order_release);
  drain.join();
  engine.Finish();
  if (!run.ok) {
    std::fprintf(stderr, "FAIL: soak sender: %s\n", run.error.c_str());
    return 1;
  }

  const obs::MetricsSnapshot snapshot = registry.Collect();
  const std::uint64_t accepted =
      static_cast<std::uint64_t>(snapshot.Value("collector_accepted_total"));
  const std::uint64_t late =
      static_cast<std::uint64_t>(snapshot.Value("collector_late_total"));
  const std::uint64_t malformed =
      static_cast<std::uint64_t>(snapshot.Value("collector_malformed_total"));
  const std::uint64_t dedup_dups =
      static_cast<std::uint64_t>(snapshot.Value("collector_duplicate_total"));
  const std::uint64_t received = receiver->received_count();
  const loadgen::StreamStats& s = run.stats;
  const std::uint64_t kernel_drops = s.wire >= received ? s.wire - received
                                                        : 0;

  bool ledger_ok = true;
  const auto require = [&ledger_ok](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "FAIL: ledger: %s\n", what);
      ledger_ok = false;
    }
  };
  require(s.sent() == s.generated + s.duplicates,
          "sent != generated + duplicates");
  require(s.sent() == s.wire + s.injected_drops,
          "sent != wire + injected_drops");
  require(s.wire >= received, "received more datagrams than were sent");
  require(received == ingest_calls,
          "receiver datagrams != engine ingest calls");
  require(received == accepted + late + malformed + dedup_dups,
          "received != accepted + late + malformed + duplicates");
  require(s.sent() == accepted + late + malformed + dedup_dups +
                          kernel_drops + s.injected_drops,
          "sent != accepted + late + malformed + duplicates + "
          "kernel_drops + injected_drops");

  double p50 = 0.0;
  double p99 = 0.0;
  std::uint64_t latency_samples = engine.e2e_latency_samples();
  if (const obs::SeriesSnapshot* latency =
          FindSeries(snapshot, "e2e_latency_seconds")) {
    p50 = latency->Quantile(0.50);
    p99 = latency->Quantile(0.99);
  }
  require(latency_samples > 0, "no ingest-to-emit latency samples");
  require(!(latency_samples > 0 && (p50 < 0 || p99 < p50)),
          "latency percentiles out of order");

  std::printf(
      "soak: sent=%llu wire=%llu received=%llu kernel_drops=%llu "
      "accepted=%llu late=%llu malformed=%llu dedup_dups=%llu "
      "events=%zu -- %s\n",
      static_cast<unsigned long long>(s.sent()),
      static_cast<unsigned long long>(s.wire),
      static_cast<unsigned long long>(received),
      static_cast<unsigned long long>(kernel_drops),
      static_cast<unsigned long long>(accepted),
      static_cast<unsigned long long>(late),
      static_cast<unsigned long long>(malformed),
      static_cast<unsigned long long>(dedup_dups), engine.event_count(),
      ledger_ok ? "ledger closed" : "LEDGER OPEN");
  std::printf("latency: %llu samples, p50 %.4fs, p99 %.4fs\n",
              static_cast<unsigned long long>(latency_samples), p50, p99);

  std::ofstream out(json);
  out << "{\n"
      << "  \"benchmark\": \"e2e\",\n"
      << "  \"cpus\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"threads\": " << threads << ",\n"
      << "  \"total\": " << total << ",\n"
      << "  \"soak_total\": " << soak_total << ",\n"
      << "  \"soak_rate\": " << soak_rate << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"legacy_msgs_per_s\": " << Median(legacy_reps) << ",\n"
      << "  \"legacy_reps\": " << JsonArray(legacy_reps) << ",\n"
      << "  \"unpaced_msgs_per_s\": " << Median(unpaced_reps) << ",\n"
      << "  \"unpaced_reps\": " << JsonArray(unpaced_reps) << ",\n"
      << "  \"slgen_msgs_per_s\": " << Median(slgen_reps) << ",\n"
      << "  \"slgen_reps\": " << JsonArray(slgen_reps) << ",\n"
      << "  \"speedup_vs_legacy\": " << speedup << ",\n"
      << "  \"speedup_vs_unpaced\": " << speedup_unpaced << ",\n"
      << "  \"allocs_per_msg\": " << allocs_per_msg << ",\n"
      << "  \"ledger_ok\": " << (ledger_ok ? "true" : "false") << ",\n"
      << "  \"ledger\": {\"sent\": " << s.sent()
      << ", \"generated\": " << s.generated
      << ", \"duplicates\": " << s.duplicates
      << ",\n             \"injected_drops\": " << s.injected_drops
      << ", \"reorders\": " << s.reorders << ", \"wire\": " << s.wire
      << ",\n             \"received\": " << received
      << ", \"kernel_drops\": " << kernel_drops
      << ", \"accepted\": " << accepted << ",\n             \"late\": "
      << late << ", \"malformed\": " << malformed
      << ", \"dedup_duplicates\": " << dedup_dups
      << ", \"events\": " << engine.event_count() << "},\n"
      << "  \"latency\": {\"samples\": " << latency_samples
      << ", \"p50_s\": " << p50 << ", \"p99_s\": " << p99 << "}\n"
      << "}\n";
  std::printf("wrote %s\n", json.c_str());
  return ledger_ok ? 0 : 1;
}
