// Shared harness for the per-table / per-figure benchmark binaries.
//
// Every bench regenerates its data deterministically (fixed seeds), builds
// the location dictionary from config text, learns a knowledge base
// offline, and reports the paper's metric next to the paper's reported
// shape.  Absolute values are NOT expected to match the paper (its
// substrate was two production networks); orderings, trends and orders of
// magnitude are.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/learn.h"
#include "net/config_parser.h"
#include "sim/generator.h"

namespace sld::bench {

// Seeds: offline/online streams are disjoint deterministic draws.
inline constexpr std::uint64_t kOfflineSeed = 1001;
inline constexpr std::uint64_t kOnlineSeed = 2002;

struct Pipeline {
  sim::Dataset history;
  sim::Dataset live;
  core::LocationDict dict;
  core::KnowledgeBase kb;
};

// The per-dataset rule-mining window the paper settles on (§5.2.2):
// W = 120 s for dataset A, 40 s for dataset B.
core::RuleMinerParams PaperRuleParams(const sim::DatasetSpec& spec);

// Generates `learn_days` of history starting at day 0 and `online_days`
// starting right after, learns the knowledge base, and returns everything.
// `online_days` may be 0 when a bench only needs the offline side.
Pipeline BuildPipeline(const sim::DatasetSpec& spec, int learn_days,
                       int online_days,
                       core::RuleEvolution* evolution = nullptr,
                       const core::OfflineLearnerParams* params = nullptr);

// Location dictionary from a dataset's rendered configs.
core::LocationDict BuildDict(const sim::Dataset& ds);

// Augments a dataset's messages against a knowledge base (fallback
// templates may be added to `kb`).
std::vector<core::Augmented> Augment(core::KnowledgeBase& kb,
                                     const core::LocationDict& dict,
                                     const sim::Dataset& ds);

// Section header for bench output.
void Header(const char* id, const char* title, const char* paper_shape);

// Shared CLI surface for the ablation benches.  Every ablation binary is
// deterministic (fixed seeds, no timing), so CI pins its numbers: the
// bench runs with shrunken day counts and --json, and tools/bench_gate.py
// deep-compares the emitted JSON against a committed baseline.
//
//   bench_ablation_* [--learn-days N] [--live-days N] [--json=FILE]
//
// Unknown arguments are fatal (exit 2) so a typo'd flag cannot silently
// produce a baseline with default day counts.
struct AblationArgs {
  int learn_days = 0;
  int live_days = 0;
  std::string json;  // empty = stdout table only
};
AblationArgs ParseAblationArgs(int argc, char** argv, int learn_days,
                               int live_days);

// Opens `path` for the ablation JSON and writes the shared preamble:
//   {"benchmark": "ablation", "name": NAME, "learn_days": N,
//    "live_days": N,
// The caller appends its result fields and the closing brace.  Streamed
// doubles round-trip (max_digits10) so the gate's float tolerance only
// has to absorb cross-libm jitter, not formatting loss.
std::ofstream OpenAblationJson(const std::string& path, const char* name,
                               const AblationArgs& args);

// Process-wide heap-allocation counter.  Bench binaries link a counting
// global operator new (defined in common.cc), so a hot loop can assert a
// zero-allocation steady state by differencing this before and after.
// Counts every new from every thread; sample around single-threaded
// sections for per-message numbers.
std::uint64_t AllocationCount() noexcept;

}  // namespace sld::bench
