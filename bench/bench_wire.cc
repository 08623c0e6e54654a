// Wire-front ingest cost (DESIGN.md §15): loopback datagrams/sec for the
// batched poll + recvmmsg front against the seed's
// one-poll-one-recvfrom-one-string path, plus a steady-state allocation
// audit and a byte-parity check between the two.  Written to
// BENCH_wire.json.
//
// Method: prefill-drain cycles.  A burst of pre-encoded RFC 3164 frames
// is blasted into the listener's kernel receive buffer while the
// receiver is idle, then the drain alone is timed — that isolates the
// receiver-side cost (syscall count, copies, allocations) from sender
// pacing, which is what the wire front changes.  Kernel drops during
// the blast are fine: only datagrams actually delivered are counted,
// and each rep keeps cycling until it has drained a fixed quota.  The
// legacy comparator reproduces the seed receive loop in-process (one
// poll + one recv + one fresh std::string per datagram), so the
// speedup is a same-process relative measure that holds on any host.
//
//   bench_wire                         # defaults: 5 reps, 16384/rep
//   bench_wire --reps 3 --target 6000  # CI smoke
//   bench_wire --json=FILE             # default BENCH_wire.json
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "syslog/udp.h"
#include "syslog/wire.h"
#include "wirefront/wirefront.h"

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

// The seed's receive shape: one poll wakeup, one recv, one fresh
// std::string per datagram (udp.cc at the growth seed).
std::optional<std::string> LegacyReceive(syslog::UdpReceiver& receiver,
                                         int timeout_ms) {
  std::string datagram;
  if (!receiver.Receive(&datagram, timeout_ms)) return std::nullopt;
  return datagram;
}

struct RepResult {
  std::size_t delivered = 0;
  double drain_seconds = 0;
  std::uint64_t allocs = 0;
};

// One rep over the wire front: prefill `burst` frames, drain with
// PollOnce, repeat until `target` datagrams have been drained.
RepResult FrontRep(wirefront::WireFront& front, syslog::UdpSender& sender,
                   const std::vector<std::string>& frames, std::size_t burst,
                   std::size_t target) {
  RepResult rep;
  std::size_t consumed_bytes = 0;
  const wirefront::WireFront::Sink sink =
      [&consumed_bytes](std::size_t, std::string_view datagram) {
        consumed_bytes += datagram.size();
      };
  std::size_t next = 0;
  const std::uint64_t allocs_before = bench::AllocationCount();
  while (rep.delivered < target) {
    for (std::size_t i = 0; i < burst; ++i) {
      sender.Send(frames[next++ % frames.size()]);
    }
    const auto start = std::chrono::steady_clock::now();
    std::ptrdiff_t got;
    while ((got = front.PollOnce(0, 0, sink)) > 0) {
      rep.delivered += static_cast<std::size_t>(got);
    }
    rep.drain_seconds += Seconds(start);
  }
  rep.allocs = bench::AllocationCount() - allocs_before;
  (void)consumed_bytes;
  return rep;
}

// Same cycle over the seed path.
RepResult LegacyRep(syslog::UdpReceiver& receiver, syslog::UdpSender& sender,
                    const std::vector<std::string>& frames, std::size_t burst,
                    std::size_t target) {
  RepResult rep;
  std::size_t consumed_bytes = 0;
  std::size_t next = 0;
  while (rep.delivered < target) {
    for (std::size_t i = 0; i < burst; ++i) {
      sender.Send(frames[next++ % frames.size()]);
    }
    const auto start = std::chrono::steady_clock::now();
    while (auto datagram = LegacyReceive(receiver, 0)) {
      consumed_bytes += datagram->size();
      ++rep.delivered;
    }
    rep.drain_seconds += Seconds(start);
  }
  (void)consumed_bytes;
  return rep;
}

// Byte-parity: every frame through `deliver_one` with retransmit-until-
// delivered, so both receive paths see the identical in-order stream;
// returns the delivered payload sequence.
template <typename DeliverOne>
std::vector<std::string> ParityStream(const std::vector<std::string>& frames,
                                      DeliverOne&& deliver_one) {
  std::vector<std::string> got;
  got.reserve(frames.size());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(2);
  for (const std::string& frame : frames) {
    const std::size_t before = got.size();
    while (got.size() == before &&
           std::chrono::steady_clock::now() < deadline) {
      deliver_one(frame, got);
    }
    if (got.size() == before) break;  // deadline: caller sees a mismatch
  }
  return got;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 5;
  std::size_t burst = 256;
  std::size_t target = 16384;
  std::size_t parity_frames = 2048;
  std::string json = "BENCH_wire.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--burst") == 0 && i + 1 < argc) {
      burst = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--target") == 0 && i + 1 < argc) {
      target = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json = argv[i] + 7;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (reps < 1) reps = 1;
  if (burst < 16) burst = 16;
  if (target < burst) target = burst;

  bench::Header("wire", "UDP wire front: batched drain vs per-datagram poll",
                "batched recvmmsg drains loopback bursts >= 2x faster than the seed loop, with 0 "
                "allocs/datagram");

  // Realistic frames: one day of dataset A, pre-encoded.
  sim::DatasetSpec spec = sim::DatasetASpec();
  spec.topo.num_routers = 20;
  const sim::Dataset day =
      sim::GenerateDataset(spec, 0, 1, bench::kOnlineSeed);
  std::vector<std::string> frames;
  for (const syslog::SyslogRecord& rec : day.messages) {
    frames.push_back(syslog::EncodeRfc3164(rec));
    if (frames.size() == 4096) break;
  }
  if (frames.size() < 64) {
    std::fprintf(stderr, "FAIL: generator produced only %zu frames\n",
                 frames.size());
    return 1;
  }

  std::vector<double> legacy_reps;

  // Legacy comparator: the seed's one-datagram-per-poll loop.
  {
    auto receiver = syslog::UdpReceiver::Bind(0);
    if (!receiver) {
      std::fprintf(stderr, "FAIL: legacy bind\n");
      return 1;
    }
    auto sender = syslog::UdpSender::Open("127.0.0.1", receiver->port());
    LegacyRep(*receiver, *sender, frames, burst, burst);  // warm-up
    for (int r = 0; r < reps; ++r) {
      const RepResult rep = LegacyRep(*receiver, *sender, frames, burst,
                                      target);
      legacy_reps.push_back(static_cast<double>(rep.delivered) /
                            rep.drain_seconds);
    }
    std::printf("%-10s %12.0f datagrams/sec (drain only)\n", "legacy",
                Median(legacy_reps));
  }

  // The wire front.
  std::vector<double> front_reps;
  double allocs_per_datagram = 0;
  {
    wirefront::WireOptions options;
    options.rcvbuf_bytes = 8 * 1024 * 1024;
    std::string error;
    auto front =
        wirefront::WireFront::Open(options, {wirefront::TenantPort{}}, &error);
    if (front == nullptr) {
      std::fprintf(stderr, "FAIL: wirefront open: %s\n", error.c_str());
      return 1;
    }
    auto sender = syslog::UdpSender::Open("127.0.0.1", front->port_of(0));
    FrontRep(*front, *sender, frames, burst, burst);  // warm-up
    std::uint64_t audit_allocs = 0;
    std::size_t audit_delivered = 0;
    for (int r = 0; r < reps; ++r) {
      const RepResult rep = FrontRep(*front, *sender, frames, burst, target);
      front_reps.push_back(static_cast<double>(rep.delivered) /
                           rep.drain_seconds);
      audit_allocs += rep.allocs;
      audit_delivered += rep.delivered;
    }
    allocs_per_datagram = static_cast<double>(audit_allocs) /
                          static_cast<double>(audit_delivered);
    std::printf("%-10s %12.0f datagrams/sec  %.2fx legacy  %.4f "
                "allocs/datagram\n",
                "poll", Median(front_reps),
                Median(front_reps) / Median(legacy_reps),
                allocs_per_datagram);
  }

  // Parity: the front must deliver the identical byte stream from the
  // identical in-order send sequence as the legacy loop.
  bool identical = true;
  {
    std::vector<std::string> parity(frames.begin(),
                                    frames.begin() +
                                        std::min(parity_frames,
                                                 frames.size()));
    // Frames must be unique for retransmit-until-delivered to be
    // idempotent on the comparison (a duplicate arrival is detectable).
    std::set<std::string> unique(parity.begin(), parity.end());
    parity.assign(unique.begin(), unique.end());

    std::vector<std::string> want;
    {
      auto receiver = syslog::UdpReceiver::Bind(0);
      auto sender = syslog::UdpSender::Open("127.0.0.1", receiver->port());
      want = ParityStream(parity, [&](const std::string& frame,
                                      std::vector<std::string>& got) {
        sender->Send(frame);
        if (auto datagram = LegacyReceive(*receiver, 100)) {
          if (got.empty() || got.back() != *datagram) {
            got.push_back(std::move(*datagram));
          }
        }
      });
    }
    {
      std::string error;
      auto front = wirefront::WireFront::Open(
          wirefront::WireOptions{}, {wirefront::TenantPort{}}, &error);
      auto sender = syslog::UdpSender::Open("127.0.0.1", front->port_of(0));
      const std::vector<std::string> got = ParityStream(
          parity, [&](const std::string& frame,
                      std::vector<std::string>& acc) {
            sender->Send(frame);
            const wirefront::WireFront::Sink sink =
                [&acc](std::size_t, std::string_view datagram) {
                  if (acc.empty() || acc.back() != datagram) {
                    acc.emplace_back(datagram);
                  }
                };
            front->PollOnce(100, 0, sink);
          });
      if (got != want) {
        identical = false;
        std::fprintf(stderr,
                     "FAIL: the wire front delivered a different byte "
                     "stream (%zu vs %zu frames)\n",
                     got.size(), want.size());
      }
    }
    std::printf("parity over %zu unique frames: %s\n", parity.size(),
                identical ? "identical" : "DIVERGED");
  }

  std::ofstream out(json);
  out << "{\n"
      << "  \"benchmark\": \"wire\",\n"
      << "  \"cpus\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"burst\": " << burst << ",\n"
      << "  \"target\": " << target << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"identical\": " << (identical ? "true" : "false") << ",\n"
      << "  \"legacy_dgrams_per_sec\": " << Median(legacy_reps) << ",\n"
      << "  \"legacy_reps\": " << JsonArray(legacy_reps) << ",\n"
      << "  \"backends\": [\n";
  char speedup[64];
  std::snprintf(speedup, sizeof(speedup), "%.6g",
                Median(front_reps) / Median(legacy_reps));
  out << "    {\"backend\": \"poll\", \"dgrams_per_sec\": "
      << Median(front_reps) << ",\n     \"speedup_vs_legacy\": " << speedup
      << ", \"allocs_per_datagram\": " << allocs_per_datagram
      << ",\n     \"reps\": " << JsonArray(front_reps) << "}\n";
  out << "  ]\n}\n";
  std::printf("wrote %s\n", json.c_str());
  return identical ? 0 : 1;
}
