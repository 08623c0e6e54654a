#include "syslog/ingest.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/simd.h"
#include "obs/registry.h"

namespace sld::syslog {
namespace {

// Archive bytes per reserved record slot.  Dataset-A archive lines
// average ~104 bytes, so their records fit without a regrow; shorter
// lines cost one regrow.  A looser bound costs more than memory: at 64
// bytes per slot a 14-day archive's vector needs ~40 MB, which glibc
// serves with a fresh mmap on every call (above 32 MiB it always does),
// so each parse faults its pages in again; bench_ingest ran at ~3.6M
// instead of ~6M msgs/s.
constexpr std::size_t kReserveBytesPerRecord = 100;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// A read-only mapping of a whole file.  When mmap cannot serve (not a
// regular file, exotic filesystem), `fallback` holds the bytes instead.
class FileBytes {
 public:
  FileBytes() = default;
  FileBytes(const FileBytes&) = delete;
  FileBytes& operator=(const FileBytes&) = delete;
  ~FileBytes() {
    if (mapped_ != nullptr) ::munmap(mapped_, mapped_size_);
  }

  bool Open(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
      struct stat st{};
      if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
        if (st.st_size == 0) {
          ::close(fd);
          data_ = std::string_view();
          return true;
        }
        void* p = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                         PROT_READ, MAP_PRIVATE, fd, 0);
        if (p != MAP_FAILED) {
          ::close(fd);
          mapped_ = p;
          mapped_size_ = static_cast<std::size_t>(st.st_size);
          ::madvise(mapped_, mapped_size_, MADV_SEQUENTIAL);
          data_ = std::string_view(static_cast<const char*>(mapped_),
                                   mapped_size_);
          return true;
        }
      }
      ::close(fd);
    }
    // Fallback: plain buffered read (also the path for whatever open()
    // variant the mmap attempt rejected but ifstream can still serve).
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    fallback_.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    data_ = fallback_;
    return true;
  }

  std::string_view data() const { return data_; }

 private:
  void* mapped_ = nullptr;
  std::size_t mapped_size_ = 0;
  std::string fallback_;
  std::string_view data_;
};

void PublishMetrics(obs::Registry* reg, const IngestStats& stats) {
  if (reg == nullptr) return;
  reg->AddCounter("ingest_bytes_total", "Archive bytes ingested")
      ->Inc(stats.bytes);
  reg->AddCounter("ingest_records_total", "Archive records parsed")
      ->Inc(stats.records);
  reg->AddCounter("ingest_malformed_total",
                  "Malformed archive lines skipped")
      ->Inc(stats.malformed);
  const auto phase_us = [&](const char* phase, double seconds) {
    reg->AddCounter("ingest_phase_duration_us",
                    "Ingest wall clock by phase", {{"phase", phase}})
        ->Inc(static_cast<std::uint64_t>(seconds * 1e6));
  };
  phase_us("read", stats.read_s);
  phase_us("parse", stats.parse_s);
}

}  // namespace

std::vector<SyslogRecord> ParseArchive(std::string_view data,
                                       const IngestOptions& options,
                                       IngestStats* stats) {
  IngestStats local;
  local.bytes = data.size();
  const auto parse_start = std::chrono::steady_clock::now();
  std::vector<SyslogRecord> records;
  records.reserve(data.size() / kReserveBytesPerRecord + 1);
  TimestampMemo memo;
  // Line semantics replicate serial ReadArchive exactly: the raw line
  // (newline excluded, '\r' kept) is skipped when empty or '#'-led,
  // otherwise parsed and counted malformed on failure.
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t end = simd::FindNewlineFrom(data, pos);
    const std::string_view line = data.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line.front() == '#') continue;
    SyslogRecord rec;
    if (ParseRecordInto(line, rec, &memo)) {
      records.push_back(std::move(rec));
    } else {
      ++local.malformed;
    }
  }
  local.records = records.size();
  local.parse_s = Seconds(parse_start);

  PublishMetrics(options.metrics, local);
  if (stats != nullptr) *stats = local;
  return records;
}

std::vector<SyslogRecord> ReadArchiveFileParallel(
    const std::string& path, const IngestOptions& options,
    IngestStats* stats, bool* ok) {
  const auto read_start = std::chrono::steady_clock::now();
  FileBytes file;
  if (!file.Open(path)) {
    if (ok != nullptr) *ok = false;
    if (stats != nullptr) *stats = IngestStats{};
    return {};
  }
  if (ok != nullptr) *ok = true;
  const double read_s = Seconds(read_start);
  IngestStats local;
  auto records = ParseArchive(file.data(), options, &local);
  local.read_s = read_s;
  if (options.metrics != nullptr) {
    options.metrics
        ->AddCounter("ingest_phase_duration_us",
                     "Ingest wall clock by phase", {{"phase", "read"}})
        ->Inc(static_cast<std::uint64_t>(read_s * 1e6));
  }
  if (stats != nullptr) *stats = local;
  return records;
}

}  // namespace sld::syslog
