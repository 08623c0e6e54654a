#include "core/learn.h"

#include <chrono>
#include <string>

#include "obs/registry.h"

namespace sld::core {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

KnowledgeBase OfflineLearner::Learn(
    std::span<const syslog::SyslogRecord> history, const LocationDict& dict,
    RuleEvolution* evolution, LearnTimings* timings) const {
  const Clock::time_point learn_start = Clock::now();
  LearnTimings local;
  LearnTimings& t = timings != nullptr ? *timings : local;
  t = LearnTimings{};

  KnowledgeBase kb;
  kb.rule_params = params_.rules;
  kb.temporal_params = params_.temporal;
  kb.history_message_count = history.size();

  // 1. Message templates (§4.1.1).
  Clock::time_point phase_start = Clock::now();
  TemplateLearner template_learner(params_.templates);
  for (const syslog::SyslogRecord& rec : history) {
    template_learner.Add(rec.code, rec.detail);
  }
  kb.templates = template_learner.Learn();
  t.templates_s = SecondsSince(phase_start);

  // 2. Syslog+ augmentation (template + location per message).
  phase_start = Clock::now();
  Augmenter augmenter(&kb.templates, &dict);
  const std::vector<Augmented> augmented = augmenter.AugmentAll(history);
  t.augment_s = SecondsSince(phase_start);

  // 3. Temporal patterns (§4.1.3): per-template priors, optional α/β tune.
  phase_start = Clock::now();
  kb.temporal_priors = MineTemporalPriors(augmented, params_.temporal.smax);
  t.priors_s = SecondsSince(phase_start);
  if (params_.sweep_temporal) {
    phase_start = Clock::now();
    TemporalParams tuned = SelectTemporalParams(
        augmented, kb.temporal_priors, params_.alpha_grid,
        params_.beta_grid);
    tuned.smin = params_.temporal.smin;
    tuned.smax = params_.temporal.smax;
    kb.temporal_params = tuned;
    t.params_s = SecondsSince(phase_start);
  }

  // 4. Association rules (§4.1.4), mined per update period: fixed-width
  // periods anchored at the first message, so empty periods are skipped
  // by construction.  Each period is mined and applied to the rule base
  // before the next, in time order.
  phase_start = Clock::now();
  if (!augmented.empty()) {
    const std::span<const Augmented> all(augmented);
    const TimeMs period =
        static_cast<TimeMs>(params_.update_period_days) * kMsPerDay;
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
      // A trailing sliver (long-running scenarios spilling past the last
      // full period) is not mined: it is not a representative sample, and
      // judging the rule base against it would cause spurious deletions.
      const bool sliver = end == augmented.size() && prev_size > 0 &&
                          (end - begin) < prev_size / 10;
      if (!sliver) {
        const Clock::time_point mine_start = Clock::now();
        const MiningStats mined = MineCooccurrence(
            all.subspan(begin, end - begin), params_.rules.window_ms);
        t.rule_period_s.push_back(SecondsSince(mine_start));
        const RuleBase::UpdateResult update =
            kb.rules.Update(mined, params_.rules);
        if (evolution != nullptr) {
          evolution->total.push_back(kb.rules.size());
          evolution->added.push_back(update.added);
          evolution->deleted.push_back(update.deleted);
        }
      }
      prev_size = end - begin;
      begin = end;
    }
  }
  t.rules_s = SecondsSince(phase_start);

  // 5. Historical signature frequencies (the f_m of §4.2.4).
  phase_start = Clock::now();
  for (const Augmented& msg : augmented) {
    ++kb.signature_freq[KnowledgeBase::FreqKey(msg.tmpl, msg.router_key)];
  }
  t.freq_s = SecondsSince(phase_start);

  t.total_s = SecondsSince(learn_start);
  if (metrics_ != nullptr) {
    const auto us = [](double seconds) {
      return static_cast<std::int64_t>(seconds * 1e6);
    };
    const auto phase_gauge = [this](const char* phase) {
      return metrics_->AddGauge("learn_phase_duration_us",
                                "wall-clock duration of one offline "
                                "learning phase (microseconds)",
                                {{"phase", phase}});
    };
    phase_gauge("templates")->Set(us(t.templates_s));
    phase_gauge("augment")->Set(us(t.augment_s));
    phase_gauge("priors")->Set(us(t.priors_s));
    phase_gauge("params")->Set(us(t.params_s));
    phase_gauge("rules")->Set(us(t.rules_s));
    phase_gauge("freq")->Set(us(t.freq_s));
    phase_gauge("total")->Set(us(t.total_s));
    for (std::size_t i = 0; i < t.rule_period_s.size(); ++i) {
      metrics_
          ->AddGauge("learn_rule_period_duration_us",
                     "co-occurrence mining duration of one update period "
                     "(microseconds)",
                     {{"period", std::to_string(i)}})
          ->Set(us(t.rule_period_s[i]));
    }
    metrics_
        ->AddGauge("learn_history_messages",
                   "historical messages the knowledge base was learned from")
        ->Set(static_cast<std::int64_t>(history.size()));
    metrics_
        ->AddGauge("learn_templates", "templates in the learned set")
        ->Set(static_cast<std::int64_t>(kb.templates.size()));
    metrics_->AddGauge("learn_rules", "rules in the learned base")
        ->Set(static_cast<std::int64_t>(kb.rules.size()));
  }
  return kb;
}

}  // namespace sld::core
