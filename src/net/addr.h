// IPv4 addresses and prefixes.
//
// The location dictionary keys layer-3 addresses, and the extractor must
// decide whether an address seen in free text belongs to the network.  An
// exact interface-address match is the common case; prefix containment
// handles addresses inside a configured link subnet that are not
// themselves configured locally (e.g. the far end of a /30 when only one
// side's config is available).  The extractor parses every word of every
// message, so Ipv4::Parse is one pass over the text with no allocation,
// and its answer doubles as the "is this an address" test.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace sld::net {

class Ipv4 {
 public:
  constexpr Ipv4() = default;
  constexpr explicit Ipv4(std::uint32_t value) : value_(value) {}

  // Parses dotted-quad notation in one allocation-free pass; nullopt on
  // malformed input.  Accepts exactly the strings LooksLikeIpv4 accepts
  // (leading zeros included: "010.0.0.1" is 10.0.0.1).
  static std::optional<Ipv4> Parse(std::string_view text) noexcept;

  std::string ToString() const;
  constexpr std::uint32_t value() const noexcept { return value_; }

  friend constexpr auto operator<=>(Ipv4, Ipv4) = default;

 private:
  std::uint32_t value_ = 0;
};

// An address block in CIDR form.
class Ipv4Prefix {
 public:
  constexpr Ipv4Prefix() = default;
  // Canonicalizes: host bits of `addr` are cleared.
  Ipv4Prefix(Ipv4 addr, int length) noexcept;

  // Parses "10.0.0.0/30"; nullopt on malformed input or length > 32.
  static std::optional<Ipv4Prefix> Parse(std::string_view text) noexcept;
  // Builds from an address and a dotted-quad netmask
  // ("10.0.0.1", "255.255.255.252"); nullopt for non-contiguous masks.
  static std::optional<Ipv4Prefix> FromMask(std::string_view addr,
                                            std::string_view mask) noexcept;

  constexpr Ipv4 network() const noexcept { return network_; }
  constexpr int length() const noexcept { return length_; }

  bool Contains(Ipv4 addr) const noexcept;
  std::string ToString() const;

  friend constexpr auto operator<=>(const Ipv4Prefix&,
                                    const Ipv4Prefix&) = default;

 private:
  Ipv4 network_;
  int length_ = 0;
};

// Prefix length of a contiguous dotted-quad netmask, or nullopt
// ("255.255.255.252" -> 30).
std::optional<int> MaskToPrefixLength(std::string_view mask) noexcept;

}  // namespace sld::net
