// One-pass archive ingest.
//
// The serial ReadArchive (archive.h) is a getline loop: one line copy,
// redundant Trim passes and an optional<SyslogRecord> round trip per
// record.  At the paper's "millions of messages per day" scale the
// ingest front is the first bottleneck, so this reader:
//
//   - maps (or, when mmap is unavailable, reads) the file into one
//     contiguous buffer,
//   - walks the buffer once with the SSE2 newline scan, parsing each
//     line in place (no line copy) into one output vector,
//   - carries one TimestampMemo, so the "YYYY-MM-DD" prefix is
//     re-derived only when the calendar date changes (syslog time is
//     near-monotonic, so this hits on almost every line).
//
// The result equals serial ReadArchive's on the same bytes: same
// records, same order, same malformed count (ingest_test compares every
// case; bench_ingest re-verifies on every rep).  It runs on one thread:
// splitting the buffer into blocks parsed on a pool ran at 0.64-0.97x of
// its own one-thread rate at 4 threads on a 4-vCPU host.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "syslog/record.h"

namespace sld::obs {
class Registry;
}  // namespace sld::obs

namespace sld::syslog {

struct IngestOptions {
  // When set, publishes the ingest_* series (bytes, records, malformed,
  // per-phase durations) into this registry.  Cold path only: cells are
  // registered once per read call.
  obs::Registry* metrics = nullptr;
};

// Phase breakdown and totals of one ingest call.
struct IngestStats {
  std::size_t bytes = 0;
  std::size_t records = 0;
  std::size_t malformed = 0;
  double read_s = 0.0;   // file map / read
  double parse_s = 0.0;  // the one-pass parse
  // Always 0: there is no gather step.  perfbench/ still reports it as
  // syslog.ingest_assemble_s, so the field goes with the next change to
  // the benchmark.
  double assemble_s = 0.0;
};

// Parses archive text already in memory (the zero-copy core; record
// fields are the only per-record allocations).  Blank lines and '#'
// comments are skipped; malformed lines are counted.
std::vector<SyslogRecord> ParseArchive(std::string_view data,
                                       const IngestOptions& options = {},
                                       IngestStats* stats = nullptr);

// Reads a file via mmap (fallback: buffered read) and parses it with
// ParseArchive.  Returns empty on open failure (and sets `*ok` to false
// when provided) — same convention as ReadArchiveFile.  The name is the
// block-parallel reader's; perfbench/ calls it as (path, IngestOptions{},
// &stats, &ok), so a rename waits for the next change to the benchmark.
std::vector<SyslogRecord> ReadArchiveFileParallel(
    const std::string& path, const IngestOptions& options = {},
    IngestStats* stats = nullptr, bool* ok = nullptr);

}  // namespace sld::syslog
