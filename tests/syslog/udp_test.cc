#include "syslog/udp.h"

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>

#include "syslog/collector.h"
#include "syslog/wire.h"

namespace sld::syslog {
namespace {

// Loopback UDP is reliable in practice, but the kernel may still drop
// datagrams when a receiver is slow -- which is exactly what happens
// under sanitizer builds.  Tests therefore never assert on a single
// send/receive exchange: they retransmit on receive timeout until an
// overall bounded deadline, and let the Collector's duplicate
// suppression absorb any copies that arrive twice.
constexpr int kMaxAttempts = 40;
constexpr int kReceiveTimeoutMs = 250;

std::optional<std::string> SendUntilReceived(UdpSender& sender,
                                             UdpReceiver& receiver,
                                             const std::string& payload) {
  std::string got;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (!sender.Send(payload)) return std::nullopt;
    got.clear();
    if (receiver.Receive(&got, kReceiveTimeoutMs)) return got;
  }
  return std::nullopt;
}

TEST(UdpTest, LoopbackRoundTrip) {
  auto receiver = UdpReceiver::Bind(0);
  ASSERT_TRUE(receiver.has_value());
  ASSERT_NE(receiver->port(), 0);
  auto sender = UdpSender::Open("127.0.0.1", receiver->port());
  ASSERT_TRUE(sender.has_value());

  const std::string frame = "<187>Jan 10 00:00:15 r1 %LINK-3-UPDOWN: down";
  const auto got = SendUntilReceived(*sender, *receiver, frame);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, frame);
  EXPECT_GE(sender->sent_count(), 1u);
  EXPECT_GE(receiver->received_count(), 1u);
  EXPECT_LE(receiver->received_count(), sender->sent_count());
}

TEST(UdpTest, ReceiveAppendsToCallerBuffer) {
  // The reuse-buffer overload appends: existing bytes stay put, the
  // datagram lands behind them, and a timeout leaves the buffer alone.
  auto receiver = UdpReceiver::Bind(0);
  ASSERT_TRUE(receiver.has_value());
  auto sender = UdpSender::Open("127.0.0.1", receiver->port());
  ASSERT_TRUE(sender.has_value());

  std::string buffer = "prefix|";
  EXPECT_FALSE(receiver->Receive(&buffer, 0));  // quiet socket: untouched
  EXPECT_EQ(buffer, "prefix|");

  const std::string payload = "appended datagram";
  bool delivered = false;
  for (int attempt = 0; attempt < kMaxAttempts && !delivered; ++attempt) {
    ASSERT_TRUE(sender->Send(payload));
    delivered = receiver->Receive(&buffer, kReceiveTimeoutMs);
  }
  ASSERT_TRUE(delivered);
  EXPECT_EQ(buffer, "prefix|" + payload);
}

TEST(UdpTest, BindReadsBackReceiveBuffer) {
  // The kernel clamps (and typically doubles) the SO_RCVBUF request; the
  // readback must report something positive and at least as large as a
  // modest request so under-provisioned kernels are visible.
  UdpReceiver::BindOptions options;
  options.rcvbuf_bytes = 128 * 1024;
  auto receiver = UdpReceiver::Bind(0, options);
  ASSERT_TRUE(receiver.has_value());
  EXPECT_GT(receiver->rcvbuf_bytes(), 0);
  EXPECT_GE(receiver->rcvbuf_bytes(), 128 * 1024);
}

TEST(UdpTest, ReceiveTimesOutWhenQuiet) {
  auto receiver = UdpReceiver::Bind(0);
  ASSERT_TRUE(receiver.has_value());
  std::string buffer;
  EXPECT_FALSE(receiver->Receive(&buffer, 50));
  EXPECT_TRUE(buffer.empty());
}

TEST(UdpTest, OpenRejectsBadAddress) {
  EXPECT_FALSE(UdpSender::Open("not-an-address", 9).has_value());
  EXPECT_FALSE(UdpSender::Open("300.1.1.1", 9).has_value());
}

TEST(UdpTest, MoveTransfersOwnership) {
  auto receiver = UdpReceiver::Bind(0);
  ASSERT_TRUE(receiver.has_value());
  const std::uint16_t port = receiver->port();
  UdpReceiver moved = std::move(*receiver);
  EXPECT_EQ(moved.port(), port);
  auto sender = UdpSender::Open("127.0.0.1", port);
  ASSERT_TRUE(sender.has_value());
  UdpSender moved_sender = std::move(*sender);
  EXPECT_TRUE(SendUntilReceived(moved_sender, moved, "x").has_value());
}

TEST(UdpTest, EndToEndWireIntoCollector) {
  // Router side: encode records and fire them over loopback UDP.
  // Collector side: receive, decode, reorder, release in time order.
  auto receiver = UdpReceiver::Bind(0);
  ASSERT_TRUE(receiver.has_value());
  auto sender = UdpSender::Open("127.0.0.1", receiver->port());
  ASSERT_TRUE(sender.has_value());

  std::vector<SyslogRecord> sent;
  for (int i = 0; i < 20; ++i) {
    SyslogRecord rec;
    rec.time = ToTimeMs(CivilTime{2009, 9, 1, 12, 0, i, 0});
    rec.router = "cr01.dllstx";
    rec.code = "LINK-3-UPDOWN";
    rec.detail = "Interface Serial1/0, changed state to down";
    sent.push_back(rec);
  }
  // Ship slightly out of order.
  std::swap(sent[3], sent[4]);
  std::swap(sent[10], sent[12]);

  // Deliver each record with retransmit-on-timeout: the collector's
  // duplicate window discards the extra copy when both the original and
  // a retransmission arrive.  One datagram buffer serves the whole run.
  Collector collector(/*hold_ms=*/5000, /*year=*/2009,
                      /*suppress_duplicates=*/true);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::string datagram;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const std::string frame = EncodeRfc3164(sent[i]);
    while (collector.accepted_count() == i) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "record " << i << " never delivered";
      ASSERT_TRUE(sender->Send(frame));
      datagram.clear();
      if (receiver->Receive(&datagram, kReceiveTimeoutMs)) {
        collector.IngestDatagram(datagram);
      }
    }
  }
  EXPECT_EQ(collector.accepted_count(), sent.size());
  EXPECT_EQ(collector.malformed_count(), 0u);

  const auto records = collector.Flush();
  ASSERT_EQ(records.size(), 20u);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].time, records[i].time);
  }
}

}  // namespace
}  // namespace sld::syslog
