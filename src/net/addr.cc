#include "net/addr.h"

#include <cstdio>

#include "common/strings.h"

namespace sld::net {

std::optional<Ipv4> Ipv4::Parse(std::string_view text) noexcept {
  // One pass: four dot-separated octets of 1-3 digits, each at most 255
  // (leading zeros allowed: "010" is 10), exactly as LooksLikeIpv4.
  std::uint32_t value = 0;
  std::uint32_t octet = 0;
  int digits = 0;
  int dots = 0;
  for (const char c : text) {
    if (c >= '0' && c <= '9') {
      if (++digits > 3) return std::nullopt;
      octet = octet * 10 + static_cast<std::uint32_t>(c - '0');
    } else if (c == '.' && digits > 0 && octet <= 255 && dots < 3) {
      value = (value << 8) | octet;
      octet = 0;
      digits = 0;
      ++dots;
    } else {
      return std::nullopt;
    }
  }
  if (dots != 3 || digits == 0 || octet > 255) return std::nullopt;
  return Ipv4((value << 8) | octet);
}

std::string Ipv4::ToString() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (value_ >> 24) & 255,
                (value_ >> 16) & 255, (value_ >> 8) & 255, value_ & 255);
  return buf;
}

namespace {

constexpr std::uint32_t MaskBits(int length) noexcept {
  if (length <= 0) return 0;
  if (length >= 32) return 0xffffffffu;
  return ~((1u << (32 - length)) - 1);
}

}  // namespace

Ipv4Prefix::Ipv4Prefix(Ipv4 addr, int length) noexcept
    : network_(addr.value() & MaskBits(length)),
      length_(length < 0 ? 0 : (length > 32 ? 32 : length)) {}

std::optional<Ipv4Prefix> Ipv4Prefix::Parse(std::string_view text) noexcept {
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto addr = Ipv4::Parse(text.substr(0, slash));
  const auto length = ParseInt(text.substr(slash + 1));
  if (!addr || !length || *length > 32) return std::nullopt;
  return Ipv4Prefix(*addr, static_cast<int>(*length));
}

std::optional<Ipv4Prefix> Ipv4Prefix::FromMask(
    std::string_view addr, std::string_view mask) noexcept {
  const auto parsed = Ipv4::Parse(addr);
  const auto length = MaskToPrefixLength(mask);
  if (!parsed || !length) return std::nullopt;
  return Ipv4Prefix(*parsed, *length);
}

bool Ipv4Prefix::Contains(Ipv4 addr) const noexcept {
  return (addr.value() & MaskBits(length_)) == network_.value();
}

std::string Ipv4Prefix::ToString() const {
  return network_.ToString() + "/" + std::to_string(length_);
}

std::optional<int> MaskToPrefixLength(std::string_view mask) noexcept {
  const auto parsed = Ipv4::Parse(mask);
  if (!parsed) return std::nullopt;
  const std::uint32_t bits = parsed->value();
  // Must be ones followed by zeros.
  int length = 0;
  while (length < 32 && (bits & (1u << (31 - length)))) ++length;
  if (bits != MaskBits(length)) return std::nullopt;
  return length;
}

}  // namespace sld::net
