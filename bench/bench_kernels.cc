// Byte-kernel microbench: GB/s of each SSE2 kernel (common/simd.h) and of
// its scalar oracle, with in-process agreement verified on the full
// corpus every run and a steady-state allocation audit.  Written to
// BENCH_kernels.json and gated in CI by tools/bench_gate.py (kind
// "kernels"): agreement and the zero-alloc audit always; sse2-vs-scalar
// speedup floors when the build has the SSE2 kernels.
//
//   bench_kernels                     # defaults: ~8 MiB corpus, 5 reps
//   bench_kernels --mb 2 --reps 3     # CI smoke
//   bench_kernels --json=FILE         # output path (default
//                                     # BENCH_kernels.json)
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/simd.h"

using namespace sld;

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
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

// One kernel set: the scalar oracles or the SSE2 bodies.
struct KernelSet {
  const char* level;
  std::size_t (*find_byte)(const char*, std::size_t, std::size_t,
                           char) noexcept;
  void (*split_whitespace)(std::string_view, std::vector<std::string_view>*);
  bool (*equal_date10)(const char*, const char*) noexcept;
};

// Scalar first: it is the oracle and the speedup denominator.  The last
// entry is the set the library runs.
constexpr KernelSet kSets[] = {
    {"scalar", simd::FindByteScalar, simd::SplitWhitespaceScalar,
     simd::EqualDate10Scalar},
#if defined(__SSE2__)
    {"sse2", simd::FindByteSse2, simd::SplitWhitespaceSse2,
     simd::EqualDate10Sse2},
#endif
};

// Deterministic syslog-shaped corpus: newline-terminated lines of short
// space/tab-separated tokens (the byte distribution the kernels actually
// see), plus date pairs for the fixed-width compare.
struct Corpus {
  std::string lines;                       // find_newline input
  std::vector<std::string> details;        // split_whitespace input
  std::size_t detail_bytes = 0;
  std::vector<std::array<char, 16>> dates; // equal_date10 pairs (i, i+1)
};

Corpus BuildCorpus(std::size_t target_bytes) {
  Corpus c;
  std::mt19937_64 rng(bench::kOfflineSeed);
  static constexpr char kToken[] =
      "abcdefghijklmnopqrstuvwxyzABCDEF0123456789./:-";
  c.lines.reserve(target_bytes + 160);
  std::string detail;
  while (c.lines.size() < target_bytes) {
    detail.clear();
    const int tokens = 4 + static_cast<int>(rng() % 10);
    for (int t = 0; t < tokens; ++t) {
      if (t != 0) detail += (rng() % 16 == 0) ? '\t' : ' ';
      const int len = 2 + static_cast<int>(rng() % 11);
      for (int i = 0; i < len; ++i) {
        detail += kToken[rng() % (sizeof(kToken) - 1)];
      }
    }
    c.lines += detail;
    c.lines += '\n';
    c.detail_bytes += detail.size();
    c.details.push_back(detail);
  }
  // Date pairs: compare (i, i+1); runs of equal dates with a mismatch
  // roughly every 16 entries (the archive-scan hit pattern).
  std::array<char, 16> date{};
  std::memcpy(date.data(), "2010-01-10\0\0\0\0\0\0", 16);
  for (int i = 0; i < 4096; ++i) {
    if (rng() % 16 == 0) date[8] = static_cast<char>('0' + rng() % 10);
    c.dates.push_back(date);
  }
  return c;
}

// One timed pass per kernel.  Each returns a checksum (defeats dead-code
// elimination) and sets `bytes` to the volume processed.
std::uint64_t RunFindNewline(const KernelSet& t, const Corpus& c,
                             std::size_t& bytes) {
  const char* data = c.lines.data();
  const std::size_t n = c.lines.size();
  std::uint64_t sum = 0;
  std::size_t pos = 0;
  while (pos < n) {
    const std::size_t nl = t.find_byte(data, n, pos, '\n');
    sum += nl;
    pos = nl + 1;
  }
  bytes = n;
  return sum;
}

std::uint64_t RunSplitWhitespace(const KernelSet& t, const Corpus& c,
                                 std::vector<std::string_view>& scratch,
                                 std::size_t& bytes) {
  std::uint64_t sum = 0;
  for (const std::string& d : c.details) {
    t.split_whitespace(d, &scratch);
    sum += scratch.size();
    if (!scratch.empty()) sum += scratch.back().size();
  }
  bytes = c.detail_bytes;
  return sum;
}

std::uint64_t RunEqualDate10(const KernelSet& t, const Corpus& c,
                             std::size_t& bytes) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i + 1 < c.dates.size(); ++i) {
    sum += t.equal_date10(c.dates[i].data(), c.dates[i + 1].data()) ? 1 : 0;
  }
  bytes = (c.dates.size() - 1) * 10;
  return sum;
}

struct LevelResult {
  const char* level;
  double gb_per_sec = 0;
  std::vector<double> reps;
};

struct KernelResult {
  const char* name;
  std::vector<LevelResult> levels;
};

}  // namespace

int main(int argc, char** argv) {
  int reps = 5;
  std::size_t mb = 8;
  std::string json = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--mb") == 0 && i + 1 < argc) {
      mb = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json = argv[i] + 7;
    }
  }
  if (reps < 1) reps = 1;
  if (mb < 1) mb = 1;

  bench::Header("kernels", "SIMD byte-kernel throughput",
                "per-kernel GB/s of the SSE2 bodies and their scalar "
                "oracles; SSE2 byte-identical to scalar");

  const Corpus corpus = BuildCorpus(mb << 20);
  std::printf("corpus: %zu lines bytes, %zu details, %zu dates\n",
              corpus.lines.size(), corpus.details.size(),
              corpus.dates.size());

  const KernelSet& best = std::end(kSets)[-1];

  // Agreement: every kernel set must reproduce the scalar oracle's
  // results on the full corpus (checksums compare everything the runners
  // observe: positions, token counts/spans, verdicts).
  bool identical = true;
  std::vector<std::string_view> scratch;
  {
    const KernelSet& oracle = kSets[0];
    std::size_t bytes = 0;
    const std::uint64_t want_nl = RunFindNewline(oracle, corpus, bytes);
    const std::uint64_t want_split =
        RunSplitWhitespace(oracle, corpus, scratch, bytes);
    const std::uint64_t want_dates = RunEqualDate10(oracle, corpus, bytes);
    for (const KernelSet& t : kSets) {
      const bool ok =
          RunFindNewline(t, corpus, bytes) == want_nl &&
          RunSplitWhitespace(t, corpus, scratch, bytes) == want_split &&
          RunEqualDate10(t, corpus, bytes) == want_dates;
      if (!ok) {
        identical = false;
        std::fprintf(stderr, "FAIL: %s kernels disagree with scalar\n",
                     t.level);
      }
    }
  }

  // Steady-state allocation audit: with the scratch vector warmed, a full
  // pass over every kernel of the set the library runs must allocate
  // nothing.
  std::uint64_t steady_allocs = 0;
  {
    std::size_t bytes = 0;
    RunSplitWhitespace(best, corpus, scratch, bytes);  // warm scratch
    const std::uint64_t before = bench::AllocationCount();
    RunFindNewline(best, corpus, bytes);
    RunSplitWhitespace(best, corpus, scratch, bytes);
    RunEqualDate10(best, corpus, bytes);
    steady_allocs = bench::AllocationCount() - before;
    std::printf("steady-state allocations over all kernels: %llu\n",
                static_cast<unsigned long long>(steady_allocs));
  }

  using Runner = std::uint64_t (*)(const KernelSet&, const Corpus&,
                                   std::vector<std::string_view>&,
                                   std::size_t&);
  struct Spec {
    const char* name;
    Runner run;
  };
  // Uniform runner signature (the scratch is unused by most kernels).
  static const Spec kSpecs[] = {
      {"find_newline",
       [](const KernelSet& t, const Corpus& c,
          std::vector<std::string_view>&, std::size_t& b) {
         return RunFindNewline(t, c, b);
       }},
      {"split_whitespace",
       [](const KernelSet& t, const Corpus& c,
          std::vector<std::string_view>& s, std::size_t& b) {
         return RunSplitWhitespace(t, c, s, b);
       }},
      {"equal_date10",
       [](const KernelSet& t, const Corpus& c,
          std::vector<std::string_view>&, std::size_t& b) {
         return RunEqualDate10(t, c, b);
       }},
  };

  std::uint64_t sink = 0;
  std::vector<KernelResult> results;
  for (const Spec& spec : kSpecs) {
    KernelResult result;
    result.name = spec.name;
    for (const KernelSet& t : kSets) {
      LevelResult lr;
      lr.level = t.level;
      std::size_t bytes = 0;
      sink ^= spec.run(t, corpus, scratch, bytes);  // warm
      // Inner repeats so the short fixed-width corpora measure above
      // timer granularity.
      const int inner =
          std::max<int>(1, static_cast<int>((mb << 20) / (bytes + 1)));
      for (int r = 0; r < reps; ++r) {
        const auto start = std::chrono::steady_clock::now();
        for (int k = 0; k < inner; ++k) {
          sink ^= spec.run(t, corpus, scratch, bytes);
        }
        const double s = Seconds(start);
        lr.reps.push_back(static_cast<double>(bytes) * inner / s / 1e9);
      }
      lr.gb_per_sec = Median(lr.reps);
      result.levels.push_back(std::move(lr));
    }
    const LevelResult& scalar = result.levels.front();
    std::printf("%-17s", spec.name);
    for (const LevelResult& lr : result.levels) {
      std::printf("  %s %6.2f GB/s (%4.2fx)", lr.level,
                  lr.gb_per_sec, lr.gb_per_sec / scalar.gb_per_sec);
    }
    std::printf("\n");
    results.push_back(std::move(result));
  }

  std::ofstream out(json);
  out << "{\n  \"benchmark\": \"kernels\",\n"
      << "  \"cpus\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"best_level\": \"" << best.level << "\",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"corpus_mb\": " << mb << ",\n"
      << "  \"identical\": " << (identical ? "true" : "false") << ",\n"
      << "  \"steady_allocs\": " << steady_allocs << ",\n"
      << "  \"checksum\": " << (sink & 0xFFFF) << ",\n"
      << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const KernelResult& result = results[i];
    out << "    {\"name\": \"" << result.name << "\", \"levels\": [";
    for (std::size_t j = 0; j < result.levels.size(); ++j) {
      const LevelResult& lr = result.levels[j];
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"level\": \"%s\", \"gb_per_sec\": %.6g, "
                    "\"reps\": %s}",
                    j == 0 ? "" : ", ", lr.level,
                    lr.gb_per_sec, JsonArray(lr.reps).c_str());
      out << buf;
    }
    out << "]}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", json.c_str());

  const bool alloc_ok = steady_allocs == 0;
  if (!alloc_ok) {
    std::fprintf(stderr,
                 "FAIL: steady-state kernel pass allocated %llu times\n",
                 static_cast<unsigned long long>(steady_allocs));
  }
  return identical && alloc_ok ? 0 : 1;
}
