// Signature-matching hot path (§4.1): msgs/sec through the matcher alone,
// single-threaded and sharded, plus memo-cache hit rate and heap
// allocations per message in steady state.  Written to BENCH_match.json.
//
// The baseline ("legacy") is the pre-optimization matcher reproduced
// verbatim: a "<code>\x1f<len>" index key string built per message, a
// fresh token vector per probe, FixedCount() recomputed per candidate and
// the detail tokenized twice on the fallback path.  The optimized path is
// the real ConcurrentTemplateMatcher the pipeline shards run.
//
// The extract leg times LocationDict::Extract (§4.1.2) over the corpus's
// configured-router records against a frozen copy of the token walk
// before the name filter (every word probed the router's name table and
// the path table; an address was recognized, then split and parsed again
// for the prefix tables), and checks that both return the same locations
// for every record.
//
//   bench_match                       # defaults: 14 learn days, ~3 passes
//   bench_match --learn-days 2 --passes 50  # CI smoke
//   bench_match --json=FILE           # output path (default
//                                     # BENCH_match.json)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "common/strings.h"
#include "core/templates/token_class.h"
#include "net/addr.h"
#include "obs/registry.h"
#include "pipeline/matcher.h"

using namespace sld;

namespace {

// ---------------------------------------------------------------------------
// The pre-PR matcher, frozen here as the speedup baseline.

struct LegacyTemplate {
  core::TemplateId id = 0;
  std::string code;
  std::vector<std::string> tokens;

  bool Matches(const std::vector<std::string_view>& detail_tokens) const {
    if (detail_tokens.size() != tokens.size()) return false;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (tokens[i] != core::kMask && tokens[i] != detail_tokens[i]) {
        return false;
      }
    }
    return true;
  }

  std::size_t FixedCount() const noexcept {
    std::size_t n = 0;
    for (const std::string& tok : tokens) {
      if (tok != core::kMask) ++n;
    }
    return n;
  }

  std::string Canonical() const {
    std::string out = code;
    for (const std::string& tok : tokens) {
      out += ' ';
      out += tok;
    }
    return out;
  }
};

class LegacyTemplateSet {
 public:
  core::TemplateId Add(std::string code, std::vector<std::string> tokens) {
    LegacyTemplate probe;
    probe.code = code;
    probe.tokens = tokens;
    const std::string canonical = probe.Canonical();
    const auto it = by_canonical_.find(canonical);
    if (it != by_canonical_.end()) return it->second;
    LegacyTemplate tmpl;
    tmpl.id = static_cast<core::TemplateId>(templates_.size());
    tmpl.code = std::move(code);
    tmpl.tokens = std::move(tokens);
    index_[IndexKey(tmpl.code, tmpl.tokens.size())].push_back(tmpl.id);
    by_canonical_.emplace(tmpl.Canonical(), tmpl.id);
    templates_.push_back(std::move(tmpl));
    return templates_.back().id;
  }

  std::optional<core::TemplateId> Match(std::string_view code,
                                        std::string_view detail) const {
    const auto tokens = SplitWhitespace(detail);
    const auto it = index_.find(IndexKey(code, tokens.size()));
    if (it == index_.end()) return std::nullopt;
    const LegacyTemplate* best = nullptr;
    for (const core::TemplateId id : it->second) {
      const LegacyTemplate& tmpl = templates_[id];
      if (!tmpl.Matches(tokens)) continue;
      if (best == nullptr || tmpl.FixedCount() > best->FixedCount()) {
        best = &tmpl;
      }
    }
    if (best == nullptr) return std::nullopt;
    return best->id;
  }

  core::TemplateId MatchOrFallback(std::string_view code,
                                   std::string_view detail) {
    if (const auto id = Match(code, detail)) return *id;
    const std::vector<std::string_view> tokens = SplitWhitespace(detail);
    std::vector<std::string> masked(tokens.size(),
                                    std::string(core::kMask));
    return Add(std::string(code), std::move(masked));
  }

 private:
  static std::string IndexKey(std::string_view code, std::size_t len) {
    std::string key(code);
    key += '\x1f';
    key += std::to_string(len);
    return key;
  }

  std::vector<LegacyTemplate> templates_;
  std::unordered_map<std::string, std::vector<core::TemplateId>> index_;
  std::unordered_map<std::string, core::TemplateId> by_canonical_;
};

// ---------------------------------------------------------------------------
// LocationDict::Extract before the name filter, frozen here as the extract
// leg's baseline.  It calls the dictionary's public lookups.

std::optional<net::Ipv4> LegacyParseIpv4(std::string_view text) {
  if (!LooksLikeIpv4(text)) return std::nullopt;
  std::uint32_t value = 0;
  for (const std::string_view part : SplitChar(text, '.')) {
    value = (value << 8) | static_cast<std::uint32_t>(*ParseInt(part));
  }
  return net::Ipv4(value);
}

std::vector<core::LocationId> LegacyExtract(const core::LocationDict& dict,
                                            core::DictRouterId router,
                                            std::string_view detail) {
  std::vector<core::LocationId> out;
  const auto add = [&out](core::LocationId id) {
    if (std::find(out.begin(), out.end(), id) == out.end()) {
      out.push_back(id);
    }
  };
  add(dict.RouterLocation(router));
  std::vector<std::string_view>& tokens = TlsTokenScratch();
  SplitWhitespace(detail, &tokens);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string_view s = core::StripPunct(tokens[i]);
    if (s.empty()) continue;
    if (LooksLikeIpv4(s)) {
      if (const auto sess = dict.SessionOnRouter(router, s)) add(*sess);
      if (const auto owner = dict.ByIp(s)) {
        add(*owner);
      } else if (const auto ip = LegacyParseIpv4(s)) {
        if (const auto subnet = dict.ByIpInPrefix(*ip)) add(*subnet);
      }
      continue;
    }
    if (s.size() <= 3 && i + 1 < tokens.size()) {
      const std::string_view pos = core::StripPunct(tokens[i + 1]);
      if (LooksLikeIfPosition(pos)) {
        thread_local std::string name;
        name.assign(s).append(1, ' ').append(pos);
        if (const auto loc = dict.NameOnRouter(router, name)) {
          add(*loc);
          ++i;
          continue;
        }
      }
    }
    if (const auto loc = dict.NameOnRouter(router, s)) {
      add(*loc);
      continue;
    }
    if (const auto path = dict.PathByName(s)) {
      add(*path);
      continue;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------

struct Corpus {
  std::vector<const syslog::SyslogRecord*> msgs;
};

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Rebuilds a fresh TemplateSet from learned templates (TemplateSet is
// move-only, and each measurement wants its own catch-all state).
core::TemplateSet Rebuild(const core::TemplateSet& learned) {
  core::TemplateSet out;
  for (const core::Template& tmpl : learned.All()) {
    out.Add(tmpl.code, tmpl.tokens);
  }
  return out;
}

LegacyTemplateSet RebuildLegacy(const core::TemplateSet& learned) {
  LegacyTemplateSet out;
  for (const core::Template& tmpl : learned.All()) {
    out.Add(tmpl.code, tmpl.tokens);
  }
  return out;
}

double MeasureLegacy(const core::TemplateSet& learned, const Corpus& corpus,
                     int passes) {
  LegacyTemplateSet set = RebuildLegacy(learned);
  std::uint64_t sink = 0;
  for (const auto* rec : corpus.msgs) {  // warmup: create catch-alls
    sink += set.MatchOrFallback(rec->code, rec->detail);
  }
  const auto start = std::chrono::steady_clock::now();
  for (int p = 0; p < passes; ++p) {
    for (const auto* rec : corpus.msgs) {
      sink += set.MatchOrFallback(rec->code, rec->detail);
    }
  }
  const double secs = Seconds(start);
  std::printf("  (checksum %llu)\n", static_cast<unsigned long long>(sink));
  return static_cast<double>(corpus.msgs.size()) * passes / secs;
}

struct HotResult {
  double msgs_per_sec = 0;
  double hit_rate = 0;
  double allocs_per_message = 0;
  std::uint64_t messages = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t allocs = 0;
};

HotResult MeasureHot(const core::TemplateSet& learned, const Corpus& corpus,
                     int passes, bool use_cache) {
  core::TemplateSet set = Rebuild(learned);
  pipeline::ConcurrentTemplateMatcher matcher(&set);
  pipeline::ShardMatchCache cache;
  pipeline::ShardMatchCache* cache_ptr = use_cache ? &cache : nullptr;
  std::vector<std::string_view> scratch;
  std::uint64_t sink = 0;
  // Two warmup passes: the first creates every catch-all (each insertion
  // bumps the epoch and clears the memo, so entries cached before the last
  // bump are lost); the second refills the memo under the final epoch so
  // the measured passes see the true steady state.
  for (int w = 0; w < 2; ++w) {
    for (const auto* rec : corpus.msgs) {
      sink += matcher.MatchOrFallback(rec->code, rec->detail, cache_ptr,
                                      &scratch);
    }
  }
  const std::uint64_t lookups0 = cache.lookups();
  const std::uint64_t hits0 = cache.hits();
  const std::uint64_t allocs0 = bench::AllocationCount();
  const auto start = std::chrono::steady_clock::now();
  for (int p = 0; p < passes; ++p) {
    for (const auto* rec : corpus.msgs) {
      sink += matcher.MatchOrFallback(rec->code, rec->detail, cache_ptr,
                                      &scratch);
    }
  }
  const double secs = Seconds(start);
  const std::uint64_t allocs = bench::AllocationCount() - allocs0;
  const double n = static_cast<double>(corpus.msgs.size()) * passes;
  HotResult r;
  r.msgs_per_sec = n / secs;
  r.allocs_per_message = static_cast<double>(allocs) / n;
  r.messages = static_cast<std::uint64_t>(n);
  r.cache_lookups = cache.lookups() - lookups0;
  r.cache_hits = cache.hits() - hits0;
  r.allocs = allocs;
  if (use_cache && cache.lookups() > lookups0) {
    r.hit_rate = static_cast<double>(r.cache_hits) /
                 static_cast<double>(r.cache_lookups);
  }
  std::printf("  (checksum %llu)\n", static_cast<unsigned long long>(sink));
  return r;
}

// Sharded: T threads share one matcher (as pipeline shards do), each with
// its own cache and scratch, over a round-robin slice of the corpus.
double MeasureSharded(const core::TemplateSet& learned, const Corpus& corpus,
                      int passes, std::size_t shards) {
  core::TemplateSet set = Rebuild(learned);
  pipeline::ConcurrentTemplateMatcher matcher(&set);
  // Warm on the main thread: one full pass creates every catch-all, then
  // each shard's cache is filled with its own stride slice, so the timed
  // section is pure steady state (no writer-lock fallbacks, warm memos).
  std::vector<pipeline::ShardMatchCache> caches(shards);
  {
    std::vector<std::string_view> scratch;
    for (const auto* rec : corpus.msgs) {
      matcher.MatchOrFallback(rec->code, rec->detail, &caches[0], &scratch);
    }
    for (std::size_t t = 0; t < shards; ++t) {
      for (std::size_t i = t; i < corpus.msgs.size(); i += shards) {
        matcher.MatchOrFallback(corpus.msgs[i]->code,
                                corpus.msgs[i]->detail, &caches[t],
                                &scratch);
      }
    }
  }
  std::vector<std::thread> threads;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < shards; ++t) {
    threads.emplace_back([&, t] {
      pipeline::ShardMatchCache& cache = caches[t];
      std::vector<std::string_view> scratch;
      std::uint64_t sink = 0;
      for (int p = 0; p < passes; ++p) {
        for (std::size_t i = t; i < corpus.msgs.size(); i += shards) {
          sink += matcher.MatchOrFallback(corpus.msgs[i]->code,
                                          corpus.msgs[i]->detail, &cache,
                                          &scratch);
        }
      }
      volatile std::uint64_t keep = sink;
      (void)keep;
    });
  }
  for (auto& th : threads) th.join();
  const double secs = Seconds(start);
  return static_cast<double>(corpus.msgs.size()) * passes / secs;
}

// Interleaved reps of the extract leg; its speedup is a ratio of medians.
constexpr int kExtractReps = 5;

struct ExtractResult {
  std::vector<double> reps;  // msgs/sec of Extract, one per rep
  std::vector<double> legacy_reps;
  std::size_t records = 0;
  bool identical = true;
};

// Extract and the legacy walk over the configured-router records, in
// alternating order per rep, each rep `passes` passes over the records.
ExtractResult MeasureExtract(const core::LocationDict& dict,
                             const Corpus& corpus, int passes) {
  std::vector<std::pair<core::DictRouterId, std::string_view>> records;
  for (const auto* rec : corpus.msgs) {
    if (const auto rid = dict.RouterByName(rec->router)) {
      records.emplace_back(*rid, rec->detail);
    }
  }
  ExtractResult r;
  r.records = records.size();
  for (const auto& [rid, detail] : records) {
    if (dict.Extract(rid, detail) != LegacyExtract(dict, rid, detail)) {
      r.identical = false;
    }
  }
  std::uint64_t sink = 0;
  const auto time = [&](bool legacy) {
    const auto start = std::chrono::steady_clock::now();
    for (int p = 0; p < passes; ++p) {
      for (const auto& [rid, detail] : records) {
        sink += legacy ? LegacyExtract(dict, rid, detail).size()
                       : dict.Extract(rid, detail).size();
      }
    }
    return static_cast<double>(records.size()) * passes / Seconds(start);
  };
  time(false);  // warmup
  for (int rep = 0; rep < kExtractReps; ++rep) {
    const bool legacy_first = rep % 2 == 1;
    if (legacy_first) r.legacy_reps.push_back(time(true));
    r.reps.push_back(time(false));
    if (!legacy_first) r.legacy_reps.push_back(time(true));
  }
  std::printf("  (checksum %llu)\n", static_cast<unsigned long long>(sink));
  return r;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace

int main(int argc, char** argv) {
  int learn_days = 14;
  int passes = 3;
  std::string json = "BENCH_match.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--learn-days") == 0 && i + 1 < argc) {
      learn_days = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--passes") == 0 && i + 1 < argc) {
      passes = std::atoi(argv[++i]);
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json = argv[i] + 7;
    }
  }
  if (learn_days < 1) learn_days = 1;
  if (passes < 1) passes = 1;

  bench::Header("match", "signature-matching hot path",
                "online matching keeps up with millions of msgs/day; "
                "steady state should be allocation-free");

  bench::Pipeline p =
      bench::BuildPipeline(sim::DatasetASpec(), learn_days, 1);
  Corpus corpus;
  corpus.msgs.reserve(p.live.messages.size());
  for (const auto& rec : p.live.messages) corpus.msgs.push_back(&rec);
  std::printf("corpus: %zu messages, %zu learned templates\n",
              corpus.msgs.size(), p.kb.templates.size());

  const double legacy = MeasureLegacy(p.kb.templates, corpus, passes);
  std::printf("legacy matcher:        %12.0f msgs/sec\n", legacy);
  const HotResult nocache =
      MeasureHot(p.kb.templates, corpus, passes, /*use_cache=*/false);
  std::printf("optimized, no memo:    %12.0f msgs/sec  (%.3f allocs/msg)\n",
              nocache.msgs_per_sec, nocache.allocs_per_message);
  const HotResult cached =
      MeasureHot(p.kb.templates, corpus, passes, /*use_cache=*/true);
  std::printf(
      "optimized + memo:      %12.0f msgs/sec  (%.3f allocs/msg, "
      "%.4f hit rate)\n",
      cached.msgs_per_sec, cached.allocs_per_message, cached.hit_rate);
  std::printf("speedup vs legacy:     %12.2fx\n",
              cached.msgs_per_sec / legacy);

  std::vector<std::pair<std::size_t, double>> sweep;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    sweep.emplace_back(
        shards, MeasureSharded(p.kb.templates, corpus, passes, shards));
    std::printf("sharded x%zu:            %12.0f msgs/sec\n", shards,
                sweep.back().second);
  }

  const ExtractResult extract = MeasureExtract(p.dict, corpus, passes);
  const double extract_rate = Median(extract.reps);
  const double legacy_extract_rate = Median(extract.legacy_reps);
  std::printf("extract (%zu records): %12.0f msgs/sec  legacy %.0f  "
              "(%.2fx, %s)\n",
              extract.records, extract_rate, legacy_extract_rate,
              extract_rate / legacy_extract_rate,
              extract.identical ? "identical" : "DIVERGED");

  std::ofstream out(json);
  out << "{\n  \"benchmark\": \"match\",\n  \"dataset\": \"A\",\n"
      << "  \"cpus\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"corpus_messages\": " << corpus.msgs.size() << ",\n"
      << "  \"passes\": " << passes << ",\n"
      << "  \"legacy_msgs_per_sec\": " << legacy << ",\n"
      << "  \"nocache_msgs_per_sec\": " << nocache.msgs_per_sec << ",\n"
      << "  \"cached_msgs_per_sec\": " << cached.msgs_per_sec << ",\n"
      << "  \"speedup_vs_legacy\": " << cached.msgs_per_sec / legacy
      << ",\n"
      << "  \"cache_hit_rate\": " << cached.hit_rate << ",\n"
      << "  \"allocs_per_message\": " << cached.allocs_per_message << ",\n"
      << "  \"sharded\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    out << "    {\"threads\": " << sweep[i].first
        << ", \"msgs_per_sec\": " << sweep[i].second << "}"
        << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"extract_records\": " << extract.records << ",\n"
      << "  \"extract_msgs_per_sec\": " << extract_rate << ",\n"
      << "  \"extract_reps\": [";
  for (std::size_t i = 0; i < extract.reps.size(); ++i) {
    out << (i > 0 ? ", " : "") << extract.reps[i];
  }
  out << "],\n"
      << "  \"legacy_extract_msgs_per_sec\": " << legacy_extract_rate
      << ",\n"
      << "  \"extract_speedup\": " << extract_rate / legacy_extract_rate
      << ",\n"
      << "  \"extract_identical\": "
      << (extract.identical ? "true" : "false") << ",\n";
  // Counters from the timed memoized run, in the DESIGN.md §9 snapshot
  // schema so the same tooling reads bench and CLI output.
  obs::Registry metrics;
  metrics
      .AddCounter("bench_match_messages_total",
                   "messages matched in the timed memoized run")
      ->Inc(cached.messages);
  metrics
      .AddCounter("pipeline_match_cache_lookups_total",
                   "memo-cache lookups in the timed run")
      ->Inc(cached.cache_lookups);
  metrics
      .AddCounter("pipeline_match_cache_hits_total",
                   "memo-cache hits in the timed run")
      ->Inc(cached.cache_hits);
  metrics
      .AddCounter("bench_match_heap_allocations_total",
                   "heap allocations in the timed run (must stay 0)")
      ->Inc(cached.allocs);
  out << "  \"metrics\": " << metrics.Collect().RenderJson() << "}\n";
  std::printf("wrote %s\n", json.c_str());
  return extract.identical ? 0 : 1;
}
