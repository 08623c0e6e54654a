#include "syslog/udp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

namespace sld::syslog {
namespace {

bool ParseAddr(std::string_view host, std::uint16_t port,
               sockaddr_in& addr) {
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string host_str(host);
  return inet_pton(AF_INET, host_str.c_str(), &addr.sin_addr) == 1;
}

}  // namespace

// ---- UdpSender ------------------------------------------------------------

std::optional<UdpSender> UdpSender::Open(std::string_view host,
                                         std::uint16_t port) {
  sockaddr_in addr{};
  if (!ParseAddr(host, port, addr)) return std::nullopt;
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return std::nullopt;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  return UdpSender(fd);
}

UdpSender::UdpSender(UdpSender&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      sent_(std::exchange(other.sent_, 0)) {}

UdpSender& UdpSender::operator=(UdpSender&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    sent_ = std::exchange(other.sent_, 0);
  }
  return *this;
}

UdpSender::~UdpSender() {
  if (fd_ >= 0) ::close(fd_);
}

bool UdpSender::Send(std::string_view datagram) {
  if (fd_ < 0) return false;
  const ssize_t n = ::send(fd_, datagram.data(), datagram.size(), 0);
  if (n != static_cast<ssize_t>(datagram.size())) return false;
  ++sent_;
  return true;
}

// ---- UdpReceiver ------------------------------------------------------------

std::optional<UdpReceiver> UdpReceiver::Bind(std::uint16_t port,
                                             const BindOptions& options) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return std::nullopt;
  if (options.track_overflow) {
    const int one = 1;
    // Best-effort: a kernel without SO_RXQ_OVFL simply reports no drops.
    ::setsockopt(fd, SOL_SOCKET, SO_RXQ_OVFL, &one, sizeof(one));
  }
  // Deep receive buffer: syslog bursts arrive faster than a digest pump
  // can drain, and UDP has no flow control — a few MiB of kernel buffer
  // is what stands between a burst and silent loss.  The kernel clamps
  // the request to net.core.rmem_max, so the result is read back below
  // and surfaced (wire_rcvbuf_bytes gauge) instead of being assumed.
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &options.rcvbuf_bytes,
               sizeof(options.rcvbuf_bytes));
  int granted = 0;
  socklen_t granted_len = sizeof(granted);
  if (::getsockopt(fd, SOL_SOCKET, SO_RCVBUF, &granted, &granted_len) != 0) {
    granted = 0;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return std::nullopt;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  return UdpReceiver(fd, ntohs(addr.sin_port), granted);
}

UdpReceiver::UdpReceiver(UdpReceiver&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      port_(std::exchange(other.port_, 0)),
      rcvbuf_bytes_(std::exchange(other.rcvbuf_bytes_, 0)),
      received_(std::exchange(other.received_, 0)) {}

UdpReceiver& UdpReceiver::operator=(UdpReceiver&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
    rcvbuf_bytes_ = std::exchange(other.rcvbuf_bytes_, 0);
    received_ = std::exchange(other.received_, 0);
  }
  return *this;
}

UdpReceiver::~UdpReceiver() {
  if (fd_ >= 0) ::close(fd_);
}

bool UdpReceiver::Receive(std::string* reuse, int timeout_ms) {
  if (fd_ < 0) return false;
  pollfd pfd{fd_, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0 || (pfd.revents & POLLIN) == 0) return false;
  // Append in place: grow to the UDP maximum, recv into the tail, trim.
  // Once the buffer's capacity has grown past old_size + 64 KiB this
  // allocates nothing, which is what makes a reused buffer a zero-alloc
  // steady state.
  const std::size_t old_size = reuse->size();
  reuse->resize(old_size + 65536);
  const ssize_t n = ::recv(fd_, reuse->data() + old_size, 65536, 0);
  if (n < 0) {
    reuse->resize(old_size);
    return false;
  }
  reuse->resize(old_size + static_cast<std::size_t>(n));
  ++received_;
  return true;
}

}  // namespace sld::syslog
