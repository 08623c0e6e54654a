// Small non-cryptographic hashing helpers.
//
// HashBytes is allocation-free, which is what the zero-allocation match
// hot path needs: the match memo cache keys (code, detail) pairs with it,
// since hashing the full detail is the single largest cost of a memo hit.
// StringHash is the transparent hasher for string-keyed hash maps.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <string_view>

namespace sld {

// Transparent string hasher.  A std::unordered_map keyed by std::string
// (or std::string_view) with StringHash and std::equal_to<> finds a
// std::string_view without building a key string.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

// HashBytes' default seed: the FNV-1a 64-bit offset basis.
inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ull;

// Multiplier of the word-chunked hash.
inline constexpr std::uint64_t kHashMul = 0x9e3779b97f4a7c15ull;

// Word-chunked multiply-xorshift hash, chainable through `seed`.  A
// byte-serial hash such as FNV-1a costs ~1 cycle/byte; syslog details run
// 40-80 bytes, so the per-message memo key eats 8 bytes per step instead.
// The length is folded into the seed, so concatenation ambiguity
// ("ab"+"c" vs "a"+"bc") cannot collide across chained calls.
inline std::uint64_t HashBytes(std::string_view bytes,
                               std::uint64_t seed = kFnv1aOffset) noexcept {
  std::uint64_t h =
      seed ^ (static_cast<std::uint64_t>(bytes.size()) * kHashMul);
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    h = (h ^ w) * kHashMul;
    h ^= h >> 29;
  }
  if (i < bytes.size()) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + i, bytes.size() - i);
    h = (h ^ w) * kHashMul;
    h ^= h >> 29;
  }
  return h;
}

}  // namespace sld
