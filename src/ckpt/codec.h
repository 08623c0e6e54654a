// Little-endian binary codec for checkpoint snapshots and the durable
// event log (DESIGN.md §14).  Header-only on purpose: every subsystem
// that persists state includes this from its .cc without adding a link
// edge, so the ckpt library depends on nothing above sld_common and
// nothing depends on it except the engine and the tools.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sld::ckpt {

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the same CRC
// used by zip/gzip.  Table built on first use; thread-safe since C++11
// magic statics.
inline std::uint32_t Crc32(std::string_view data,
                           std::uint32_t crc = 0) noexcept {
  struct Table {
    std::uint32_t entries[256];
    Table() noexcept {
      for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) {
          c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        }
        entries[i] = c;
      }
    }
  };
  static const Table table;
  crc = ~crc;
  for (const char ch : data) {
    crc = table.entries[(crc ^ static_cast<std::uint8_t>(ch)) & 0xFFu] ^
          (crc >> 8);
  }
  return ~crc;
}

// Append-only little-endian writer over a std::string buffer.
class Writer {
 public:
  void U8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void U32(std::uint32_t v) { PutLE(v); }
  void U64(std::uint64_t v) { PutLE(v); }

  void I64(std::int64_t v) { PutLE(static_cast<std::uint64_t>(v)); }

  void F64(double v) { PutLE(std::bit_cast<std::uint64_t>(v)); }

  void Str(std::string_view s) {
    U64(s.size());
    buf_.append(s.data(), s.size());
  }

  // A count, then the values: location lists, template and router ids.
  void U32List(std::span<const std::uint32_t> values) {
    U64(values.size());
    for (const std::uint32_t v : values) U32(v);
  }

  const std::string& data() const noexcept { return buf_; }
  std::string Take() && noexcept { return std::move(buf_); }
  // Empties the buffer and keeps its capacity, for a reused writer.
  void Clear() noexcept { buf_.clear(); }

 private:
  template <typename T>
  void PutLE(T v) {
    char bytes[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
    }
    buf_.append(bytes, sizeof(T));
  }

  std::string buf_;
};

// Bounds-checked reader.  On any short read the reader latches !ok()
// and every further accessor returns a zero value, so callers can
// decode a whole section and check ok() once at the end.
class Reader {
 public:
  explicit Reader(std::string_view data) noexcept : data_(data) {}

  std::uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint32_t U32() { return GetLE<std::uint32_t>(); }
  std::uint64_t U64() { return GetLE<std::uint64_t>(); }

  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }

  double F64() { return std::bit_cast<double>(U64()); }

  // An element count that is about to drive a container resize: fails
  // (returning 0) unless at least `elem_size` bytes per element remain,
  // so a corrupt length can never trigger a giant allocation.
  std::uint64_t Count(std::size_t elem_size) {
    const std::uint64_t n = U64();
    if (!ok_) return 0;
    if (elem_size == 0 || n > (data_.size() - pos_) / elem_size) {
      ok_ = false;
      return 0;
    }
    return n;
  }

  std::string Str() {
    const std::uint64_t n = U64();
    if (!Need(n)) return {};
    std::string out(data_.substr(pos_, n));
    pos_ += n;
    return out;
  }

  std::vector<std::uint32_t> U32List() {
    std::vector<std::uint32_t> values(Count(4));
    for (std::uint32_t& v : values) v = U32();
    return values;
  }

  bool ok() const noexcept { return ok_; }
  bool AtEnd() const noexcept { return pos_ == data_.size(); }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  bool Need(std::uint64_t n) {
    if (!ok_ || n > data_.size() - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  template <typename T>
  T GetLE() {
    if (!Need(sizeof(T))) return T{};
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<std::uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace sld::ckpt
