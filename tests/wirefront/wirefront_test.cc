// Wire-front behavior over real loopback sockets: batched delivery, the
// exact max cap, kernel-drop accounting, and the acceptance invariant
// that every ingest path (direct, legacy one-at-a-time receive, the
// batched recvmmsg front) produces a byte-identical event log from the
// same replayed stream at 1/4/16 shards.
//
// Loopback UDP drops datagrams when the receiver is slow (routine under
// sanitizers), so nothing here asserts on a single send/receive
// exchange: streams use ack-window flow control with retransmission and
// duplicate suppression, all bounded by wall-clock deadlines.
#include "wirefront/wirefront.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/learn.h"
#include "engine/engine.h"
#include "net/config_parser.h"
#include "obs/registry.h"
#include "sim/generator.h"
#include "syslog/collector.h"
#include "syslog/udp.h"
#include "syslog/wire.h"

namespace sld::wirefront {
namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point Deadline(int seconds = 60) {
  return Clock::now() + std::chrono::seconds(seconds);
}

TEST(WireFrontTest, OpenValidatesOptions) {
  std::string error;
  EXPECT_EQ(WireFront::Open(WireOptions{}, {}, &error), nullptr);
  EXPECT_NE(error.find("no tenants"), std::string::npos);

  // Two tenants cannot share one explicit port.
  std::vector<TenantPort> dup(2);
  dup[0].port = 45678;
  dup[1].port = 45678;
  EXPECT_EQ(WireFront::Open(WireOptions{}, dup, &error), nullptr);
  EXPECT_NE(error.find("duplicate"), std::string::npos);
}

// Sends `frames` one at a time with retransmit-until-delivered, so the
// front sees the identical arrival sequence every run; delivered payloads are
// appended through `sink`.
void SendAllInOrder(WireFront& front, syslog::UdpSender& sender,
                    const std::vector<std::string>& frames,
                    const WireFront::Sink& sink) {
  const auto deadline = Deadline(120);
  for (const std::string& frame : frames) {
    const std::uint64_t before = front.datagrams();
    while (front.datagrams() == before) {
      ASSERT_LT(Clock::now(), deadline) << "frame never delivered";
      ASSERT_TRUE(sender.Send(frame));
      const std::ptrdiff_t got = front.PollOnce(250, 1, sink);
      ASSERT_NE(got, WireFront::kError);
    }
  }
}

TEST(WireFrontTest, DeliversBatchesAndCountsDatagrams) {
  obs::Registry metrics;
  TenantPort port;
  port.metrics = &metrics;
  std::string error;
  auto front = WireFront::Open(WireOptions{}, {port}, &error);
  ASSERT_NE(front, nullptr) << error;
  ASSERT_NE(front->port_of(0), 0);
  auto sender = syslog::UdpSender::Open("127.0.0.1", front->port_of(0));
  ASSERT_TRUE(sender.has_value());

  std::vector<std::string> frames;
  for (int i = 0; i < 50; ++i) frames.push_back("payload " + std::to_string(i));

  std::vector<std::string> got;
  const WireFront::Sink sink = [&](std::size_t tenant,
                                   std::string_view datagram) {
    EXPECT_EQ(tenant, 0u);
    got.emplace_back(datagram);
  };
  SendAllInOrder(*front, *sender, frames, sink);
  EXPECT_EQ(got, frames);
  EXPECT_EQ(front->datagrams(), frames.size());
  EXPECT_EQ(metrics.Collect().Value("wire_datagrams_total"),
            static_cast<std::int64_t>(frames.size()));
}

TEST(WireFrontTest, MaxCapIsExact) {
  // A capped PollOnce must deliver at most `max` datagrams and leave the
  // rest queued — the host's --max-datagrams contract depends on it.
  // The recvmmsg batch (64) is larger than the cap: the cap must win.
  std::string error;
  auto front = WireFront::Open(WireOptions{}, {TenantPort{}}, &error);
  ASSERT_NE(front, nullptr) << error;
  auto sender = syslog::UdpSender::Open("127.0.0.1", front->port_of(0));
  ASSERT_TRUE(sender.has_value());

  constexpr std::size_t kFrames = 10;
  std::set<std::string> seen;
  const WireFront::Sink sink = [&](std::size_t, std::string_view datagram) {
    seen.emplace(datagram);
  };
  const auto deadline = Deadline(120);
  while (seen.size() < kFrames) {
    ASSERT_LT(Clock::now(), deadline);
    for (std::size_t i = 0; i < kFrames; ++i) {
      ASSERT_TRUE(sender->Send("frame " + std::to_string(i)));
    }
    std::ptrdiff_t got;
    do {
      got = front->PollOnce(250, 3, sink);
      ASSERT_NE(got, WireFront::kError);
      ASSERT_LE(got, 3);  // the cap, exactly
    } while (got > 0 && Clock::now() < deadline);
  }
  EXPECT_EQ(seen.size(), kFrames);
}

TEST(WireFrontTest, KernelDropAccountingClosesTheLedger) {
  // Overrun a deliberately tiny receive buffer, then verify the loss
  // ledger balances: delivered + kernel_drops == sent.  SO_RXQ_OVFL
  // attaches the cumulative drop count to the NEXT datagram that fits,
  // so after the burst we keep nudging single datagrams through until
  // the counter surfaces the tail loss.
  WireOptions options;
  options.rcvbuf_bytes = 4096;  // the kernel clamps to its minimum
  std::string error;
  auto front = WireFront::Open(options, {TenantPort{}}, &error);
  ASSERT_NE(front, nullptr) << error;
  auto sender = syslog::UdpSender::Open("127.0.0.1", front->port_of(0));
  ASSERT_TRUE(sender.has_value());

  const WireFront::Sink sink = [](std::size_t, std::string_view) {};

  // Burst without draining: most of this overflows the socket buffer.
  const std::string payload(1024, 'x');
  std::size_t sent = 0;
  for (int i = 0; i < 512; ++i) {
    if (sender->Send(payload)) ++sent;
  }
  ASSERT_GT(sent, 0u);

  const auto deadline = Deadline(60);
  while (front->datagrams() + front->kernel_drops() < sent &&
         Clock::now() < deadline) {
    while (front->PollOnce(100, 0, sink) > 0) {
    }
    if (front->datagrams() + front->kernel_drops() >= sent) break;
    // The queue has space now; a nudge datagram carries the counter.
    if (sender->Send(payload)) ++sent;
  }
  EXPECT_EQ(front->datagrams() + front->kernel_drops(), sent);
  EXPECT_GT(front->kernel_drops(), 0u)
      << "a 512 KiB burst into a ~4 KiB buffer must drop";
}

// ---- Ingest-path parity ----------------------------------------------------

struct ParityFixture {
  sim::Dataset history;
  sim::Dataset live;
  core::LocationDict dict;
  core::KnowledgeBase kb;
  std::vector<std::string> frames;  // unique wire frames, send order

  ParityFixture() {
    sim::DatasetSpec spec = sim::DatasetASpec();
    spec.topo.num_routers = 8;
    history = sim::GenerateDataset(spec, 0, 5, 601);
    live = sim::GenerateDataset(spec, 5, 1, 602);
    std::vector<net::ParsedConfig> parsed;
    for (const std::string& cfg : history.configs) {
      parsed.push_back(net::ParseConfig(cfg));
    }
    dict = core::LocationDict::Build(parsed);
    core::OfflineLearner learner;
    kb = learner.Learn(history.messages, dict);
    std::set<std::string> seen;
    for (const auto& rec : live.messages) {
      std::string frame = syslog::EncodeRfc3164(rec);
      if (seen.insert(frame).second) frames.push_back(std::move(frame));
      if (frames.size() == 600) break;
    }
  }

  engine::EngineOptions Options(std::size_t shards) const {
    engine::EngineOptions opts;
    opts.shards = shards;
    opts.hold_ms = 5000;
    opts.year = 2009;
    opts.suppress_duplicates = true;  // retransmissions must be harmless
    return opts;
  }
};

// One run: every frame through `ingest` (retransmitting until the
// collector accepts it), pumping as we go; returns the formatted event
// log.
template <typename IngestOnce>
std::vector<std::string> RunEngine(const ParityFixture& fx, std::size_t shards,
                                   IngestOnce&& ingest_once) {
  // Each run gets a private KB (learning is deterministic): a live
  // engine may add catch-all templates, which must not leak across runs.
  core::OfflineLearner learner;
  core::KnowledgeBase kb = learner.Learn(fx.history.messages, fx.dict);
  engine::Engine eng(&kb, &fx.dict, fx.Options(shards));
  std::vector<std::string> events;
  eng.SetEventSink([&events](const core::DigestEvent& ev) {
    events.push_back(ev.Format());
  });
  const auto deadline = Deadline(180);
  for (const std::string& frame : fx.frames) {
    const std::size_t before = eng.collector().accepted_count();
    while (eng.collector().accepted_count() == before) {
      if (Clock::now() >= deadline) {
        ADD_FAILURE() << "frame never accepted";
        return events;
      }
      ingest_once(eng, frame);
    }
    eng.Pump();
  }
  for (auto& ev : eng.Finish()) events.push_back(ev.Format());
  // Events close on the merge thread at shards > 1; sort for a stable
  // comparison across shard counts and ingest paths.
  std::sort(events.begin(), events.end());
  return events;
}

TEST(WireFrontParityTest, AllBackendsByteIdenticalEventLogs) {
  const ParityFixture fx;
  ASSERT_GT(fx.frames.size(), 100u);

  for (const std::size_t shards : {1u, 4u, 16u}) {
    SCOPED_TRACE(testing::Message() << shards << " shard(s)");

    // Reference: direct ingest, no sockets.
    const std::vector<std::string> want =
        RunEngine(fx, shards, [](engine::Engine& eng, const std::string& f) {
          eng.IngestDatagram(f);
        });
    ASSERT_GT(want.size(), 0u);

    // Legacy receive path: the one-datagram-per-poll UdpReceiver loop.
    {
      auto receiver = syslog::UdpReceiver::Bind(0);
      ASSERT_TRUE(receiver.has_value());
      auto sender = syslog::UdpSender::Open("127.0.0.1", receiver->port());
      ASSERT_TRUE(sender.has_value());
      std::string buffer;
      const std::vector<std::string> got = RunEngine(
          fx, shards, [&](engine::Engine& eng, const std::string& f) {
            ASSERT_TRUE(sender->Send(f));
            buffer.clear();
            if (receiver->Receive(&buffer, 250)) eng.IngestDatagram(buffer);
          });
      EXPECT_EQ(got, want) << "legacy receive path diverged";
    }

    // The wire front: poll + batched recvmmsg.
    {
      std::string error;
      auto front = WireFront::Open(WireOptions{}, {TenantPort{}}, &error);
      ASSERT_NE(front, nullptr) << error;
      auto sender = syslog::UdpSender::Open("127.0.0.1", front->port_of(0));
      ASSERT_TRUE(sender.has_value());
      const std::vector<std::string> got = RunEngine(
          fx, shards, [&](engine::Engine& eng, const std::string& f) {
            ASSERT_TRUE(sender->Send(f));
            const WireFront::Sink sink = [&eng](std::size_t,
                                                std::string_view datagram) {
              eng.IngestDatagram(datagram);
            };
            ASSERT_NE(front->PollOnce(250, 0, sink), WireFront::kError);
          });
      EXPECT_EQ(got, want) << "wire front diverged";
    }
  }
}

}  // namespace
}  // namespace sld::wirefront
