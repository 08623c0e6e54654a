#include "wirefront/wirefront.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace sld::wirefront {
namespace {

// Datagrams harvested per recvmmsg call.
constexpr std::size_t kBatch = 64;

// Ancillary space for the one cmsg we ask for (SO_RXQ_OVFL's u32).
constexpr std::size_t kCmsgSpace = CMSG_SPACE(sizeof(std::uint32_t));

}  // namespace

// One bound socket plus its accounting; listeners_[t * K + i] is tenant
// t's i-th listener.
struct WireFront::Listener {
  syslog::UdpReceiver sock;
  std::size_t tenant = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t drops = 0;
  // SO_RXQ_OVFL is a cumulative per-socket counter; deltas are taken
  // against the last value seen.
  std::uint32_t last_ovfl = 0;
  obs::Counter* datagram_cell = nullptr;
  obs::Counter* drop_cell = nullptr;

  explicit Listener(syslog::UdpReceiver s) : sock(std::move(s)) {}
};

// recvmmsg scratch: headers/iovecs sized to one batch, reused forever.
struct WireFront::Scratch {
  std::vector<mmsghdr> msgs;
  std::vector<iovec> iovs;
  std::vector<pollfd> pollfds;
};

WireFront::~WireFront() = default;

std::unique_ptr<WireFront> WireFront::Open(
    const WireOptions& options, const std::vector<TenantPort>& tenants,
    std::string* error) {
  const auto fail = [error](std::string msg) -> std::unique_ptr<WireFront> {
    if (error) *error = std::move(msg);
    return nullptr;
  };
  if (tenants.empty()) return fail("wirefront: no tenants");
  if (options.listeners < 1 || options.listeners > 64) {
    return fail("wirefront: listeners must be in [1, 64]");
  }
  // Duplicate explicit ports would make two tenants share one flow hash
  // group; reject instead of silently interleaving streams.
  for (std::size_t a = 0; a < tenants.size(); ++a) {
    for (std::size_t b = a + 1; b < tenants.size(); ++b) {
      if (tenants[a].port != 0 && tenants[a].port == tenants[b].port) {
        return fail("wirefront: duplicate tenant port " +
                    std::to_string(tenants[a].port));
      }
    }
  }

  auto front = std::unique_ptr<WireFront>(new WireFront());
  front->tenants_ = tenants.size();
  front->listeners_per_tenant_ = options.listeners;

  const int k = options.listeners;
  front->listeners_.reserve(tenants.size() * static_cast<std::size_t>(k));
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    syslog::UdpReceiver::BindOptions bind;
    bind.rcvbuf_bytes = options.rcvbuf_bytes;
    bind.reuse_port = k > 1;
    bind.track_overflow = true;
    // Listener 0 resolves the port (possibly ephemeral); the rest of the
    // fan-out binds the resolved port with SO_REUSEPORT.
    std::uint16_t port = tenants[t].port;
    for (int i = 0; i < k; ++i) {
      auto sock = syslog::UdpReceiver::Bind(port, bind);
      if (!sock.has_value()) {
        return fail("wirefront: bind failed for tenant " + std::to_string(t) +
                    " listener " + std::to_string(i) + " port " +
                    std::to_string(port));
      }
      port = sock->port();
      Listener& ln = front->listeners_.emplace_back(std::move(*sock));
      ln.tenant = t;
      if (obs::Registry* reg = tenants[t].metrics) {
        const obs::Labels labels{{"listener", std::to_string(i)}};
        ln.datagram_cell = reg->AddCounter(
            "wire_datagrams_total", "Datagrams delivered by the wire front",
            labels);
        ln.drop_cell = reg->AddCounter(
            "wire_kernel_drops_total",
            "Datagrams dropped by the kernel receive queue (SO_RXQ_OVFL)",
            labels);
        reg->AddGauge("wire_rcvbuf_bytes",
                      "Kernel receive buffer actually granted per listener",
                      labels)
            ->Set(ln.sock.rcvbuf_bytes());
      }
    }
    if (obs::Registry* reg = tenants[t].metrics) {
      reg->AddGauge("wire_listeners", "SO_REUSEPORT listeners for this tenant")
          ->Set(k);
    }
  }

  front->payload_slab_.resize(kBatch * kMaxDatagram);
  front->cmsg_slab_.resize(kBatch * kCmsgSpace);
  front->scratch_ = std::make_unique<Scratch>();
  front->scratch_->msgs.resize(kBatch);
  front->scratch_->iovs.resize(kBatch);
  front->scratch_->pollfds.resize(front->listeners_.size());
  for (std::size_t i = 0; i < front->listeners_.size(); ++i) {
    front->scratch_->pollfds[i] = {front->listeners_[i].sock.fd(), POLLIN, 0};
  }
  return front;
}

std::uint16_t WireFront::port_of(std::size_t tenant) const noexcept {
  const std::size_t flat =
      tenant * static_cast<std::size_t>(listeners_per_tenant_);
  return flat < listeners_.size() ? listeners_[flat].sock.port() : 0;
}

std::size_t WireFront::listener_count() const noexcept {
  return listeners_.size();
}

std::uint64_t WireFront::listener_datagrams(std::size_t flat) const noexcept {
  return flat < listeners_.size() ? listeners_[flat].datagrams : 0;
}

void WireFront::Account(Listener& listener, std::uint64_t new_drops) {
  // `new_drops` is the kernel's cumulative counter at the time this
  // datagram was queued; cmsgs can repeat a value across a batch.
  if (new_drops <= listener.last_ovfl) return;
  const std::uint64_t delta = new_drops - listener.last_ovfl;
  listener.last_ovfl = static_cast<std::uint32_t>(new_drops);
  listener.drops += delta;
  total_drops_ += delta;
  if (listener.drop_cell != nullptr) listener.drop_cell->Inc(delta);
}

std::size_t WireFront::DrainListener(Listener& listener, std::size_t cap,
                                     const Sink& sink) {
  Scratch& s = *scratch_;
  std::size_t total = 0;
  for (;;) {
    std::size_t vlen = kBatch;
    if (cap != 0 && cap - total < vlen) vlen = cap - total;
    if (vlen == 0) break;
    // The kernel rewrites msg_controllen / msg_flags per message, so the
    // headers are re-armed each round — pointer setup only, no allocation.
    for (std::size_t i = 0; i < vlen; ++i) {
      s.iovs[i].iov_base = payload_slab_.data() + i * kMaxDatagram;
      s.iovs[i].iov_len = kMaxDatagram;
      msghdr& h = s.msgs[i].msg_hdr;
      std::memset(&h, 0, sizeof(h));
      h.msg_iov = &s.iovs[i];
      h.msg_iovlen = 1;
      h.msg_control = cmsg_slab_.data() + i * kCmsgSpace;
      h.msg_controllen = kCmsgSpace;
      s.msgs[i].msg_len = 0;
    }
    const int n = ::recvmmsg(listener.sock.fd(), s.msgs.data(),
                             static_cast<unsigned>(vlen), MSG_DONTWAIT,
                             nullptr);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN: this socket is drained
    }
    for (int i = 0; i < n; ++i) {
      msghdr& h = s.msgs[i].msg_hdr;
      for (cmsghdr* c = CMSG_FIRSTHDR(&h); c != nullptr;
           c = CMSG_NXTHDR(&h, c)) {
        if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SO_RXQ_OVFL) {
          std::uint32_t dropped = 0;
          std::memcpy(&dropped, CMSG_DATA(c), sizeof(dropped));
          Account(listener, dropped);
        }
      }
      ++listener.datagrams;
      ++total_datagrams_;
      if (listener.datagram_cell != nullptr) listener.datagram_cell->Inc();
      sink(listener.tenant,
           std::string_view(payload_slab_.data() + i * kMaxDatagram,
                            s.msgs[i].msg_len));
    }
    total += static_cast<std::size_t>(n);
    if (static_cast<std::size_t>(n) < vlen) break;
  }
  return total;
}

std::ptrdiff_t WireFront::PollOnce(int timeout_ms, std::size_t max,
                                   const Sink& sink) {
  Scratch& s = *scratch_;
  for (pollfd& p : s.pollfds) p.revents = 0;
  const int ready =
      ::poll(s.pollfds.data(), s.pollfds.size(), timeout_ms);
  if (ready < 0) return errno == EINTR ? kInterrupted : kError;
  if (ready == 0) return 0;
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < listeners_.size(); ++i) {
    if (max != 0 && delivered >= max) break;
    if ((s.pollfds[i].revents & POLLIN) == 0) continue;
    delivered += DrainListener(listeners_[i],
                               max == 0 ? 0 : max - delivered, sink);
  }
  return static_cast<std::ptrdiff_t>(delivered);
}

}  // namespace sld::wirefront
