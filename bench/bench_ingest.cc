// Archive ingest throughput (§5.1 scale: "millions of messages per
// day"): records/sec from archive bytes to parsed SyslogRecords, legacy
// istream reader vs the one-pass reader, with bit-identical record
// verification on every rep.  Written to BENCH_ingest.json.
//
// The baseline ("legacy") is the pre-refactor serial ReadArchive
// reproduced verbatim below: std::getline into a line string, a
// double-Trim ParseRecordLine, three fresh string allocations per
// record.  The measured path is syslog::ParseArchive; its records and
// malformed count must equal the legacy reader's exactly or the bench
// exits non-zero.  A steady-state allocation audit asserts the parse
// adds ~0 allocations beyond the records' own string fields (counting
// operator new hook in bench_common).
//
//   bench_ingest                      # defaults: 14 days, 3 reps
//   bench_ingest --days 2 --reps 3    # CI smoke
//   bench_ingest --json=FILE          # output path (default
//                                     # BENCH_ingest.json)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/strings.h"
#include "obs/registry.h"
#include "syslog/ingest.h"

using namespace sld;

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The pre-refactor line parser, frozen verbatim as part of the baseline
// (same role the legacy matcher/learner play in bench_match/bench_learn).
std::optional<syslog::SyslogRecord> LegacyParseRecordLine(
    std::string_view line) {
  line = Trim(line);
  if (line.size() < 21) return std::nullopt;
  const auto time = ParseTimestamp(line.substr(0, 19));
  if (!time) return std::nullopt;
  std::string_view rest = Trim(line.substr(19));
  const std::size_t router_end = rest.find(' ');
  if (router_end == std::string_view::npos) return std::nullopt;
  syslog::SyslogRecord rec;
  rec.time = *time;
  rec.router = std::string(rest.substr(0, router_end));
  rest = Trim(rest.substr(router_end));
  const std::size_t code_end = rest.find(' ');
  if (code_end == std::string_view::npos) {
    rec.code = std::string(rest);
  } else {
    rec.code = std::string(rest.substr(0, code_end));
    rec.detail = std::string(Trim(rest.substr(code_end)));
  }
  if (rec.code.empty()) return std::nullopt;
  return rec;
}

// The pre-refactor serial reader, frozen verbatim.
std::vector<syslog::SyslogRecord> LegacyReadArchive(
    std::istream& in, std::size_t* malformed) {
  std::vector<syslog::SyslogRecord> records;
  std::size_t bad = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (auto rec = LegacyParseRecordLine(line)) {
      records.push_back(std::move(*rec));
    } else {
      ++bad;
    }
  }
  if (malformed != nullptr) *malformed = bad;
  return records;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ", ";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v[i]);
    out += buf;
  }
  out += "]";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int days = 14;
  int reps = 3;
  std::string json = "BENCH_ingest.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--days") == 0 && i + 1 < argc) {
      days = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json = argv[i] + 7;
    }
  }
  if (days < 1) days = 1;
  if (reps < 1) reps = 1;

  bench::Header("ingest", "one-pass archive ingest",
                "millions of syslog messages per day parse in seconds; "
                "records are bit-identical to the serial reader");

  // Archive text with deterministic impurities: comments, garbage lines
  // (counted malformed) and CRLF endings, so the equality check covers
  // the skip/malformed paths too.
  const sim::Dataset ds =
      sim::GenerateDataset(sim::DatasetASpec(), 0, days,
                           bench::kOfflineSeed);
  std::string text;
  text.reserve(ds.messages.size() * 96 + (1u << 16));
  for (std::size_t i = 0; i < ds.messages.size(); ++i) {
    if (i % 512 == 0) text += "# synthetic comment line\n";
    if (i % 1024 == 0) text += "not a syslog record line\n";
    syslog::AppendRecord(ds.messages[i], text);
    text += i % 2048 == 0 ? "\r\n" : "\n";
  }
  const double n = static_cast<double>(ds.messages.size());
  const double mb = static_cast<double>(text.size()) / (1024.0 * 1024.0);
  std::printf("archive: %zu records, %.1f MiB (%d days)\n",
              ds.messages.size(), mb, days);

  // Legacy baseline, whose records are the expected output.  The
  // istringstream is built outside the timer, so the measured window
  // covers exactly what the old ReadArchiveFile did after the open:
  // getline + parse.
  std::vector<double> legacy_reps;
  std::vector<syslog::SyslogRecord> expected;
  std::size_t expected_malformed = 0;
  for (int r = 0; r < reps; ++r) {
    std::istringstream in(text);
    const auto start = std::chrono::steady_clock::now();
    expected = LegacyReadArchive(in, &expected_malformed);
    legacy_reps.push_back(n / Seconds(start));
  }

  // Steady-state allocation audit: the parse may allocate only what the
  // records' own string fields cost, measured by copying those fields.
  bool identical = true;
  double extra_allocs_per_msg = 0.0;
  {
    const auto warm = syslog::ParseArchive(text);  // warm caches
    if (warm != expected) identical = false;
    std::vector<std::string> copies;
    copies.reserve(warm.size() * 3);
    std::uint64_t before = bench::AllocationCount();
    for (const syslog::SyslogRecord& rec : warm) {
      copies.push_back(rec.router);
      copies.push_back(rec.code);
      copies.push_back(rec.detail);
    }
    const std::uint64_t field_allocs = bench::AllocationCount() - before;
    copies.clear();
    before = bench::AllocationCount();
    const auto audit = syslog::ParseArchive(text);
    const std::uint64_t parse_allocs = bench::AllocationCount() - before;
    if (audit != expected) identical = false;
    extra_allocs_per_msg =
        parse_allocs > field_allocs
            ? static_cast<double>(parse_allocs - field_allocs) / n
            : 0.0;
    std::printf("steady-state allocations: %.4f/msg beyond the record "
                "fields (%llu parse vs %llu field)\n",
                extra_allocs_per_msg,
                static_cast<unsigned long long>(parse_allocs),
                static_cast<unsigned long long>(field_allocs));
  }

  std::vector<double> parse_reps;
  syslog::IngestStats stats;
  obs::Registry metrics;
  for (int r = 0; r < reps; ++r) {
    // Cells sum at Collect time, so bind only the very last rep (the
    // bench_learn convention).
    syslog::IngestOptions opts;
    opts.metrics = r == reps - 1 ? &metrics : nullptr;
    const auto start = std::chrono::steady_clock::now();
    const auto records = syslog::ParseArchive(text, opts, &stats);
    parse_reps.push_back(n / Seconds(start));
    if (records != expected || stats.malformed != expected_malformed) {
      identical = false;
      std::fprintf(stderr, "FAIL: records of rep %d differ from the serial "
                           "reader\n", r);
    }
  }
  const double legacy_rate = Median(legacy_reps);
  const double rate = Median(parse_reps);
  std::printf("legacy istream reader: %12.0f msgs/sec  (%zu records, "
              "%zu malformed)\n",
              legacy_rate, expected.size(), expected_malformed);
  std::printf("one-pass reader:       %12.0f msgs/sec  (%5.2fx legacy)\n",
              rate, rate / legacy_rate);

  std::ofstream out(json);
  out << "{\n  \"benchmark\": \"ingest\",\n  \"dataset\": \"A\",\n"
      << "  \"cpus\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"days\": " << days << ",\n"
      << "  \"bytes\": " << text.size() << ",\n"
      << "  \"records\": " << expected.size() << ",\n"
      << "  \"malformed\": " << expected_malformed << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"identical\": " << (identical ? "true" : "false") << ",\n"
      << "  \"extra_allocs_per_msg\": " << extra_allocs_per_msg << ",\n"
      << "  \"legacy_msgs_per_sec\": " << legacy_rate << ",\n"
      << "  \"legacy_reps\": " << JsonArray(legacy_reps) << ",\n"
      << "  \"parse_msgs_per_sec\": " << rate << ",\n"
      << "  \"parse_reps\": " << JsonArray(parse_reps) << ",\n"
      << "  \"mb_per_sec\": " << mb * rate / n << ",\n"
      << "  \"speedup\": " << rate / legacy_rate << ",\n"
      << "  \"metrics\": " << metrics.Collect().RenderJson() << "}\n";
  std::printf("wrote %s\n", json.c_str());
  const bool alloc_ok = extra_allocs_per_msg <= 0.01;
  if (!alloc_ok) {
    std::fprintf(stderr,
                 "FAIL: steady-state parse allocates %.4f/msg beyond the "
                 "record fields\n",
                 extra_allocs_per_msg);
  }
  return identical && alloc_ok ? 0 : 1;
}
