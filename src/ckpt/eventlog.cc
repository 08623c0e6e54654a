#include "ckpt/eventlog.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "ckpt/codec.h"

namespace sld::ckpt {
namespace {

constexpr std::size_t kFrameHeader = 4 + 4 + 8;

std::string Errno(const char* what, const std::string& path) {
  return std::string(what) + " " + path + ": " + std::strerror(errno);
}

std::uint32_t GetU32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[i]))
         << (8 * i);
  }
  return v;
}

template <typename T>
void PutLE(T v, std::string* out) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

std::uint64_t GetU64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(p[i]))
         << (8 * i);
  }
  return v;
}

bool ReadWhole(const std::string& path, std::string* out, bool* absent,
               std::string* error) {
  *absent = false;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      *absent = true;
      return true;
    }
    if (error) *error = Errno("cannot open", path);
    return false;
  }
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error) *error = Errno("cannot read", path);
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    out->append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return true;
}

// Walks the frames in `raw`.  Returns false (with *error) on mid-log
// corruption or a sequence gap; on success *valid_bytes is the length
// of the valid prefix, *records the record count, and *torn whether a
// crash-torn tail follows the prefix.
bool ScanLog(const std::string& path, std::string_view raw,
             const std::function<void(std::uint64_t, std::string_view)>* fn,
             std::size_t* valid_bytes, std::uint64_t* records, bool* torn,
             std::string* error) {
  std::size_t pos = 0;
  std::uint64_t expect = 0;
  *torn = false;
  while (pos < raw.size()) {
    const std::size_t left = raw.size() - pos;
    // An incomplete frame, or a CRC-bad frame that is the *last* frame,
    // is the one artifact a crash mid-append can leave: truncate it.  A
    // CRC-bad frame with more data after it is bitrot and gets refused.
    if (left < kFrameHeader) {
      *torn = true;
      break;
    }
    const std::uint32_t len = GetU32(raw.data() + pos);
    const std::size_t frame = kFrameHeader + len;
    if (left < frame) {
      *torn = true;
      break;
    }
    const std::uint32_t crc = GetU32(raw.data() + pos + 4);
    const std::string_view seq_and_payload(raw.data() + pos + 8, 8 + len);
    if (Crc32(seq_and_payload) != crc) {
      if (left == frame) {
        *torn = true;
        break;
      }
      if (error) {
        *error = "event log " + path + ": corrupt record at offset " +
                 std::to_string(pos);
      }
      return false;
    }
    const std::uint64_t seq = GetU64(raw.data() + pos + 8);
    if (seq != expect) {
      if (error) {
        *error = "event log " + path + ": sequence gap (record " +
                 std::to_string(expect) + " has seq " + std::to_string(seq) +
                 ")";
      }
      return false;
    }
    if (fn != nullptr) {
      const std::uint32_t len = GetU32(raw.data() + pos);
      (*fn)(seq, std::string_view(raw.data() + pos + kFrameHeader, len));
    }
    pos += frame;
    ++expect;
  }
  *valid_bytes = pos;
  *records = expect;
  return true;
}

}  // namespace

std::unique_ptr<EventLog> EventLog::Open(const std::string& path,
                                         OpenStats* stats,
                                         std::string* error) {
  std::string raw;
  bool absent = false;
  if (!ReadWhole(path, &raw, &absent, error)) return nullptr;

  std::size_t valid_bytes = 0;
  std::uint64_t records = 0;
  bool torn = false;
  if (!absent && !ScanLog(path, raw, nullptr, &valid_bytes, &records, &torn,
                          error)) {
    return nullptr;
  }

  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) {
    if (error) *error = Errno("cannot open for append", path);
    return nullptr;
  }
  if (torn) {
    if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0) {
      if (error) *error = Errno("cannot truncate torn tail of", path);
      ::close(fd);
      return nullptr;
    }
  }
  if (::lseek(fd, static_cast<off_t>(valid_bytes), SEEK_SET) < 0) {
    if (error) *error = Errno("cannot seek", path);
    ::close(fd);
    return nullptr;
  }
  if (stats != nullptr) {
    stats->records = records;
    stats->truncated_tail = torn;
  }
  return std::unique_ptr<EventLog>(new EventLog(fd, records));
}

EventLog::~EventLog() {
  if (fd_ >= 0) ::close(fd_);
}

bool EventLog::AppendBatch(std::uint64_t first_seq,
                           std::span<const std::string_view> payloads,
                           double* fsync_seconds, std::string* error) {
  if (first_seq != next_seq_) {
    if (error) {
      *error = "event log append out of order: got seq " +
               std::to_string(first_seq) + ", expected " +
               std::to_string(next_seq_);
    }
    return false;
  }
  if (payloads.empty()) return true;
  // Frame = len, crc(seq ++ payload), seq, payload.
  frames_.clear();
  std::uint64_t seq = first_seq;
  for (const std::string_view payload : payloads) {
    const std::size_t at = frames_.size();
    PutLE(static_cast<std::uint32_t>(payload.size()), &frames_);
    PutLE(std::uint32_t{0}, &frames_);  // the CRC, filled in below
    PutLE(seq++, &frames_);
    frames_.append(payload.data(), payload.size());
    const std::uint32_t crc =
        Crc32(std::string_view(frames_).substr(at + 8));
    for (int i = 0; i < 4; ++i) {
      frames_[at + 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xFFu);
    }
  }

  const char* data = frames_.data();
  std::size_t left = frames_.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error) *error = std::string("event log write: ") + std::strerror(errno);
      return false;
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (::fsync(fd_) != 0) {
    if (error) *error = std::string("event log fsync: ") + std::strerror(errno);
    return false;
  }
  if (fsync_seconds != nullptr) {
    *fsync_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  next_seq_ = seq;
  return true;
}

bool EventLog::Append(std::uint64_t seq, std::string_view payload,
                      double* fsync_seconds, std::string* error) {
  return AppendBatch(seq, std::span<const std::string_view>(&payload, 1),
                     fsync_seconds, error);
}

bool EventLog::ForEach(
    const std::string& path,
    const std::function<void(std::uint64_t seq, std::string_view payload)>& fn,
    std::string* error) {
  std::string raw;
  bool absent = false;
  if (!ReadWhole(path, &raw, &absent, error)) return false;
  if (absent) return true;
  std::size_t valid_bytes = 0;
  std::uint64_t records = 0;
  bool torn = false;
  return ScanLog(path, raw, &fn, &valid_bytes, &records, &torn, error);
}

}  // namespace sld::ckpt
