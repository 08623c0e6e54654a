// UDP transport for syslog datagrams (the syslog protocol's classic
// carrier): a move-only RAII sender/receiver pair over IPv4.
//
// In deployment, routers fire RFC 3164 datagrams at the collector's UDP
// port; the receiver hands each datagram to a Collector, which decodes,
// reorders, and feeds the digest pipeline.  These wrappers are
// deliberately minimal — blocking receive with a timeout, no threads —
// so callers own their event loop.  The batched wire front
// (src/wirefront/) binds each tenant's socket with UdpReceiver::Bind and
// drains it with recvmmsg instead of Receive().
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace sld::syslog {

// Owns a connected UDP socket for sending datagrams.
class UdpSender {
 public:
  // `host` is an IPv4 dotted quad ("127.0.0.1").  Returns nullopt when
  // the socket cannot be created or the address is invalid.
  static std::optional<UdpSender> Open(std::string_view host,
                                      std::uint16_t port);

  UdpSender(UdpSender&& other) noexcept;
  UdpSender& operator=(UdpSender&& other) noexcept;
  UdpSender(const UdpSender&) = delete;
  UdpSender& operator=(const UdpSender&) = delete;
  ~UdpSender();

  // Sends one datagram; false on send failure.
  bool Send(std::string_view datagram);

  std::size_t sent_count() const noexcept { return sent_; }

 private:
  explicit UdpSender(int fd) : fd_(fd) {}
  int fd_ = -1;
  std::size_t sent_ = 0;
};

// Owns a bound UDP socket for receiving datagrams.
class UdpReceiver {
 public:
  struct BindOptions {
    // Requested kernel receive buffer.  The kernel clamps (and usually
    // doubles) the request; rcvbuf_bytes() reports what it actually
    // granted, so an under-provisioned net.core.rmem_max is visible
    // instead of silently dropping bursts.
    int rcvbuf_bytes = 4 * 1024 * 1024;
    // SO_RXQ_OVFL: attach the kernel's cumulative receive-queue drop
    // counter to each datagram as ancillary data, so overflow loss is
    // accounted instead of invisible.
    bool track_overflow = false;
  };

  // Binds 127.0.0.1:`port`; port 0 picks an ephemeral port (see port()).
  static std::optional<UdpReceiver> Bind(std::uint16_t port,
                                         const BindOptions& options);
  static std::optional<UdpReceiver> Bind(std::uint16_t port) {
    return Bind(port, BindOptions{});
  }

  UdpReceiver(UdpReceiver&& other) noexcept;
  UdpReceiver& operator=(UdpReceiver&& other) noexcept;
  UdpReceiver(const UdpReceiver&) = delete;
  UdpReceiver& operator=(const UdpReceiver&) = delete;
  ~UdpReceiver();

  std::uint16_t port() const noexcept { return port_; }

  // The underlying socket, for callers multiplexing several receivers
  // through one poll()/recvmmsg loop (the wire front); -1 when
  // moved-from.
  int fd() const noexcept { return fd_; }

  // The receive buffer the kernel actually granted (getsockopt readback
  // after Bind applied BindOptions::rcvbuf_bytes); 0 when unknown.
  int rcvbuf_bytes() const noexcept { return rcvbuf_bytes_; }

  // Waits up to `timeout_ms` for one datagram and APPENDS it to
  // `*reuse`; returns false on timeout or error (leaving `*reuse`
  // untouched).  Callers that want only the new datagram clear the
  // buffer first; reusing one buffer across calls keeps the steady
  // state allocation-free once its capacity has grown.  Datagrams
  // longer than 64 KiB are truncated (UDP limit).  `timeout_ms` 0
  // polls: an already-queued datagram is appended immediately, an
  // empty socket returns false.
  bool Receive(std::string* reuse, int timeout_ms);

  std::size_t received_count() const noexcept { return received_; }

 private:
  UdpReceiver(int fd, std::uint16_t port, int rcvbuf)
      : fd_(fd), port_(port), rcvbuf_bytes_(rcvbuf) {}
  int fd_ = -1;
  std::uint16_t port_ = 0;
  int rcvbuf_bytes_ = 0;
  std::size_t received_ = 0;
};

}  // namespace sld::syslog
