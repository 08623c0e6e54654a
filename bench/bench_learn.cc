// Offline learning throughput (§4.1): msgs/sec through the full
// template/augment/temporal/rule learning pass of the OfflineLearner,
// with knowledge-base verification on every rep.  Written to
// BENCH_learn.json.
//
// The oracle ("legacy") is the straight serial learner reproduced below
// on the public APIs, one loop per phase.  The measured path is the real
// OfflineLearner; its serialized KnowledgeBase must equal the legacy one
// bit for bit or the bench exits non-zero.
//
//   bench_learn                         # defaults: 14 learn days, 3 reps
//   bench_learn --learn-days 2 --reps 3 # CI smoke
//   bench_learn --json=FILE             # output path (default
//                                       # BENCH_learn.json)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "obs/registry.h"

using namespace sld;

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The serial learner, frozen here as the knowledge-base oracle (the
// role the legacy matcher plays in bench_match).
core::KnowledgeBase LegacyLearn(
    std::span<const syslog::SyslogRecord> history,
    const core::LocationDict& dict, const core::OfflineLearnerParams& p) {
  core::KnowledgeBase kb;
  kb.rule_params = p.rules;
  kb.temporal_params = p.temporal;
  kb.history_message_count = history.size();

  core::TemplateLearner template_learner(p.templates);
  for (const syslog::SyslogRecord& rec : history) {
    template_learner.Add(rec.code, rec.detail);
  }
  kb.templates = template_learner.Learn();

  core::Augmenter augmenter(&kb.templates, &dict);
  const std::vector<core::Augmented> augmented =
      augmenter.AugmentAll(history);

  kb.temporal_priors = core::MineTemporalPriors(augmented, p.temporal.smax);
  if (p.sweep_temporal) {
    core::TemporalParams tuned = core::SelectTemporalParams(
        augmented, kb.temporal_priors, p.alpha_grid, p.beta_grid);
    tuned.smin = p.temporal.smin;
    tuned.smax = p.temporal.smax;
    kb.temporal_params = tuned;
  }

  if (!augmented.empty()) {
    const TimeMs period =
        static_cast<TimeMs>(p.update_period_days) * kMsPerDay;
    const TimeMs t0 = augmented.front().time;
    std::size_t begin = 0;
    std::size_t prev_size = 0;
    while (begin < augmented.size()) {
      const TimeMs period_end =
          t0 + ((augmented[begin].time - t0) / period + 1) * period;
      std::size_t end = begin;
      while (end < augmented.size() && augmented[end].time < period_end) {
        ++end;
      }
      const bool sliver = end == augmented.size() && prev_size > 0 &&
                          (end - begin) < prev_size / 10;
      if (!sliver) {
        const core::MiningStats stats = core::MineCooccurrence(
            std::span<const core::Augmented>(augmented)
                .subspan(begin, end - begin),
            p.rules.window_ms);
        kb.rules.Update(stats, p.rules);
      }
      prev_size = end - begin;
      begin = end;
    }
  }

  for (const core::Augmented& msg : augmented) {
    ++kb.signature_freq[core::KnowledgeBase::FreqKey(msg.tmpl,
                                                     msg.router_key)];
  }
  return kb;
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
  int learn_days = 14;
  int reps = 3;
  std::string json = "BENCH_learn.json";
  bool sweep_temporal = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--learn-days") == 0 && i + 1 < argc) {
      learn_days = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--no-temporal-sweep") == 0) {
      sweep_temporal = false;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json = argv[i] + 7;
    }
  }
  if (learn_days < 1) learn_days = 1;
  if (reps < 1) reps = 1;

  bench::Header("learn", "offline learning",
                "months of history learn in minutes; the knowledge base "
                "matches the serial oracle bit for bit");

  const sim::Dataset history =
      sim::GenerateDataset(sim::DatasetASpec(), 0, learn_days,
                           bench::kOfflineSeed);
  const core::LocationDict dict = bench::BuildDict(history);
  core::OfflineLearnerParams params;
  params.rules = bench::PaperRuleParams(sim::DatasetASpec());
  // The α/β grid sweep is part of the paper's offline procedure
  // (Figs. 10-11) and the heaviest phase; keep it on by default so the
  // bench exercises every phase.
  params.sweep_temporal = sweep_temporal;
  const double n = static_cast<double>(history.messages.size());
  std::printf("history: %zu messages (%d days), temporal sweep %s\n",
              history.messages.size(), learn_days,
              sweep_temporal ? "on" : "off");

  const core::KnowledgeBase legacy_kb =
      LegacyLearn(history.messages, dict, params);
  const std::string expected = legacy_kb.Serialize();

  std::vector<double> rates;
  core::LearnTimings timings;
  bool identical = true;
  obs::Registry metrics;
  core::OfflineLearner learner(params);
  for (int r = 0; r < reps; ++r) {
    // Registry cells sum at Collect time, so bind only the very last
    // rep — the snapshot then holds one clean set of phase gauges.
    if (r == reps - 1) learner.BindMetrics(&metrics);
    const auto start = std::chrono::steady_clock::now();
    const core::KnowledgeBase kb =
        learner.Learn(history.messages, dict, nullptr, &timings);
    rates.push_back(n / Seconds(start));
    if (kb.Serialize() != expected) {
      identical = false;
      std::fprintf(stderr, "FAIL: KB of rep %d differs from the serial "
                           "oracle\n", r);
    }
  }
  const double rate = Median(rates);
  std::printf(
      "learner: %12.0f msgs/sec  (%zu templates, %zu rules)  "
      "[tmpl %.2fs aug %.2fs priors %.2fs grid %.2fs rules %.2fs]\n",
      rate, legacy_kb.templates.size(), legacy_kb.rules.size(),
      timings.templates_s, timings.augment_s, timings.priors_s,
      timings.params_s, timings.rules_s);

  char phases[320];
  std::snprintf(phases, sizeof(phases),
                "{\"templates_s\": %.6g, \"augment_s\": %.6g, "
                "\"priors_s\": %.6g, \"params_s\": %.6g, \"rules_s\": %.6g, "
                "\"freq_s\": %.6g, \"total_s\": %.6g}",
                timings.templates_s, timings.augment_s, timings.priors_s,
                timings.params_s, timings.rules_s, timings.freq_s,
                timings.total_s);
  std::ofstream out(json);
  out << "{\n  \"benchmark\": \"learn\",\n  \"dataset\": \"A\",\n"
      << "  \"cpus\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"messages\": " << history.messages.size() << ",\n"
      << "  \"learn_days\": " << learn_days << ",\n"
      << "  \"temporal_sweep\": " << (sweep_temporal ? "true" : "false")
      << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"identical\": " << (identical ? "true" : "false") << ",\n"
      << "  \"learn_msgs_per_sec\": " << rate << ",\n"
      << "  \"learn_reps\": " << JsonArray(rates) << ",\n"
      << "  \"phases\": " << phases << ",\n"
      << "  \"metrics\": " << metrics.Collect().RenderJson() << "}\n";
  std::printf("wrote %s\n", json.c_str());
  return identical ? 0 : 1;
}
