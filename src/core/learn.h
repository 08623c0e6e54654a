// Offline domain-knowledge learning (§3.1, §4.1): the component that turns
// months of historical syslog plus router configs into the knowledge base
// the online digester runs on.
//
// Pipeline: template learning -> Syslog+ augmentation -> temporal priors
// (and optional α/β grid search) -> periodic association-rule mining with
// the adaptive add/conservative-delete update -> signature frequency
// table.
//
// The learner is one serial pass per phase.  Rule mining walks the
// update periods in time order, mining one period and applying it to
// the rule base before the next: the adaptive add/conservative-delete
// policy depends on the rule base's state at each step.
// tests/core/golden_kb.txt pins the learned KnowledgeBase byte for byte.
#pragma once

#include <span>
#include <vector>

#include "core/digest.h"
#include "core/knowledge.h"
#include "core/templates/learner.h"

namespace sld::obs {
class Registry;
}  // namespace sld::obs

namespace sld::core {

struct OfflineLearnerParams {
  TemplateLearnerParams templates;
  RuleMinerParams rules;
  TemporalParams temporal;  // defaults; α/β replaced when sweeping
  // When true, grid-search α and β for the best temporal compression on
  // the history (Figs. 10-11).  Off by default: the sweep costs one full
  // pass per grid point.
  bool sweep_temporal = false;
  std::vector<double> alpha_grid = {0.025, 0.05, 0.075, 0.1, 0.2, 0.4};
  std::vector<double> beta_grid = {2, 3, 4, 5, 6, 7};
  // Rule-base update period (the paper updates weekly).
  int update_period_days = 7;
  // Ignored: the learner is single-threaded.  perfbench/ still sets it,
  // so the field goes with the next change to the benchmark.
  int threads = 1;
};

// Per-update-period rule base sizes, for the Figs. 8-9 evolution curves.
struct RuleEvolution {
  std::vector<std::size_t> total;
  std::vector<std::size_t> added;
  std::vector<std::size_t> deleted;
};

// Wall-clock phase breakdown of one Learn() call, for bench_learn and
// the obs gauges.
struct LearnTimings {
  double templates_s = 0.0;  // TemplateLearner Add feed + Learn
  double augment_s = 0.0;    // Syslog+ augmentation
  double priors_s = 0.0;     // temporal prior mining
  double params_s = 0.0;     // α/β grid sweep (0 when not sweeping)
  double rules_s = 0.0;      // period mining + rule-base updates
  double freq_s = 0.0;       // signature frequency table
  double total_s = 0.0;
  // Co-occurrence mining time of each mined (non-sliver) period, in
  // period order.
  std::vector<double> rule_period_s;
};

class OfflineLearner {
 public:
  explicit OfflineLearner(OfflineLearnerParams params = {})
      : params_(params) {}

  // Learns a knowledge base from a time-sorted historical stream.
  // `evolution`, when non-null, receives the weekly rule-base trajectory;
  // `timings`, when non-null, receives the phase breakdown.
  KnowledgeBase Learn(std::span<const syslog::SyslogRecord> history,
                      const LocationDict& dict,
                      RuleEvolution* evolution = nullptr,
                      LearnTimings* timings = nullptr) const;

  // Publishes phase timings and learn counters as gauges on `registry`
  // after each Learn() call (cold path; see DESIGN.md §10).
  void BindMetrics(obs::Registry* registry) { metrics_ = registry; }

  const OfflineLearnerParams& params() const noexcept { return params_; }

 private:
  OfflineLearnerParams params_;
  obs::Registry* metrics_ = nullptr;
};

}  // namespace sld::core
