// Batched wire front: the live ingest layer between the kernel's UDP
// sockets and the Engine layer.
//
// Topology.  Each tenant owns one UDP socket on its own port, and every
// datagram that socket receives goes to that tenant's sink.
//
// Drain.  One poll() across all tenant sockets per PollOnce, then
// batched recvmmsg with MSG_DONTWAIT on each ready socket, up to 64
// datagrams per call, into a preallocated slab.  Each datagram reaches
// the sink as a string_view into front-owned storage (valid only during
// the sink call), and nothing is allocated per datagram in steady state.
// Kernel receive-queue drops are accounted via SO_RXQ_OVFL ancillary
// data (the lossless-loopback invariant: accepted + kernel_drops +
// malformed = sent).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.h"
#include "syslog/udp.h"

namespace sld::wirefront {

// UDP's practical ceiling; each datagram is received into a slot this
// big.
inline constexpr std::size_t kMaxDatagram = 64 * 1024;

struct WireOptions {
  // Kernel receive buffer request per tenant socket (clamped by the
  // kernel; the grant is exported as the wire_rcvbuf_bytes gauge).
  int rcvbuf_bytes = 4 * 1024 * 1024;
};

struct TenantPort {
  std::uint16_t port = 0;          // 0 = ephemeral (see port_of())
  obs::Registry* metrics = nullptr;  // tenant-scoped view; may be null
};

class WireFront {
 public:
  // Called once per delivered datagram; `datagram` points into
  // front-owned storage and is valid only for the duration of the call.
  using Sink = std::function<void(std::size_t tenant, std::string_view datagram)>;

  // PollOnce status codes (returns >= 0 otherwise).
  static constexpr std::ptrdiff_t kInterrupted = -1;  // EINTR hit the wait
  static constexpr std::ptrdiff_t kError = -2;        // unrecoverable

  // Binds one socket per tenant.  Returns nullptr with a human-readable
  // *error on failure (no tenants, duplicate explicit ports, bind
  // failure).
  static std::unique_ptr<WireFront> Open(const WireOptions& options,
                                         const std::vector<TenantPort>& tenants,
                                         std::string* error);

  ~WireFront();
  WireFront(const WireFront&) = delete;
  WireFront& operator=(const WireFront&) = delete;

  std::uint16_t port_of(std::size_t tenant) const noexcept;

  // Waits up to timeout_ms for traffic on any tenant socket, then drains
  // every ready socket in batches, invoking `sink` once per datagram.
  // `max` bounds the datagrams delivered this round (0 = drain all that
  // are ready); undelivered datagrams stay queued for the next call.
  // Returns the count delivered (0 = quiet round), kInterrupted when a
  // signal cut the wait short, kError on unrecoverable failure.
  std::ptrdiff_t PollOnce(int timeout_ms, std::size_t max, const Sink& sink);

  // Cumulative totals across all tenants.
  std::uint64_t datagrams() const noexcept { return total_datagrams_; }
  std::uint64_t kernel_drops() const noexcept { return total_drops_; }

 private:
  struct Listener;

  WireFront() = default;

  // Drains tenant `tenant`'s socket with recvmmsg; `cap` 0 = unbounded.
  std::size_t DrainListener(std::size_t tenant, std::size_t cap,
                            const Sink& sink);
  void Account(Listener& listener, std::uint64_t new_drops);

  // listeners_[t] is tenant t's socket.
  std::vector<Listener> listeners_;
  // recvmmsg scratch, one batch of entries; see wirefront.cc.
  std::vector<char> payload_slab_;
  std::vector<char> cmsg_slab_;
  struct Scratch;
  std::unique_ptr<Scratch> scratch_;

  std::uint64_t total_datagrams_ = 0;
  std::uint64_t total_drops_ = 0;
};

}  // namespace sld::wirefront
