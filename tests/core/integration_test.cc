// End-to-end: simulator -> configs -> offline learning -> online digest.
// These are the system-level invariants the evaluation section rests on.
#include <gtest/gtest.h>

#include <set>

#include "core/learn.h"
#include "net/config_parser.h"
#include "pipeline/pipeline.h"
#include "sim/generator.h"

namespace sld::core {
namespace {

struct Pipeline {
  explicit Pipeline(const sim::DatasetSpec& spec, int learn_days = 14,
                    int online_days = 2) {
    history = sim::GenerateDataset(spec, 0, learn_days, 101);
    live = sim::GenerateDataset(spec, learn_days, online_days, 202);
    std::vector<net::ParsedConfig> parsed;
    for (const std::string& cfg : history.configs) {
      parsed.push_back(net::ParseConfig(cfg));
    }
    dict = LocationDict::Build(parsed);
    OfflineLearner learner;
    kb = learner.Learn(history.messages, dict);
  }

  sim::Dataset history;
  sim::Dataset live;
  LocationDict dict;
  KnowledgeBase kb;
};

sim::DatasetSpec Small(net::Vendor vendor) {
  sim::DatasetSpec spec = vendor == net::Vendor::kV1 ? sim::DatasetASpec()
                                                     : sim::DatasetBSpec();
  spec.topo.num_routers = 12;
  return spec;
}

class PipelineTest : public ::testing::TestWithParam<net::Vendor> {
 protected:
  PipelineTest() : p_(Small(GetParam())) {}
  Pipeline p_;
};

TEST_P(PipelineTest, TemplateAccuracyAtLeastNinetyPercent) {
  std::set<std::string> learned;
  for (const Template& tmpl : p_.kb.templates.All()) {
    learned.insert(tmpl.Canonical());
  }
  // Scored over templates with enough history to learn from (>= 10
  // occurrences), matching the paper's "given enough historical data"
  // assumption in §4.1.1.
  std::size_t recovered = 0;
  std::size_t total = 0;
  for (const auto& [gt, count] : p_.history.gt_templates) {
    if (count < 10) continue;
    ++total;
    recovered += learned.count(gt);
  }
  ASSERT_GT(total, 0u);
  const double accuracy =
      static_cast<double>(recovered) / static_cast<double>(total);
  EXPECT_GE(accuracy, 0.9) << recovered << "/" << total;
}

TEST_P(PipelineTest, StagesCompoundCompression) {
  const pipeline::PipelineOptions t_only{.use_rules = false,
                                         .use_cross_router = false};
  const pipeline::PipelineOptions tr{.use_rules = true,
                                     .use_cross_router = false};
  const pipeline::PipelineOptions trc{.use_rules = true,
                                      .use_cross_router = true};
  const std::size_t t =
      pipeline::Digest(&p_.kb, &p_.dict, p_.live.messages, t_only)
          .events.size();
  const std::size_t t_r =
      pipeline::Digest(&p_.kb, &p_.dict, p_.live.messages, tr).events.size();
  const std::size_t t_r_c =
      pipeline::Digest(&p_.kb, &p_.dict, p_.live.messages, trc).events.size();
  EXPECT_GT(t, t_r);
  EXPECT_GE(t_r, t_r_c);
  // The full pipeline must compress by well over an order of magnitude.
  EXPECT_LT(static_cast<double>(t_r_c) /
                static_cast<double>(p_.live.messages.size()),
            0.05);
}

TEST_P(PipelineTest, EveryMessageLandsInExactlyOneEvent) {
  const DigestResult result =
      pipeline::Digest(&p_.kb, &p_.dict, p_.live.messages);
  std::vector<bool> seen(p_.live.messages.size(), false);
  for (const DigestEvent& ev : result.events) {
    for (const std::size_t idx : ev.messages) {
      ASSERT_LT(idx, seen.size());
      EXPECT_FALSE(seen[idx]);
      seen[idx] = true;
    }
  }
  for (const bool s : seen) EXPECT_TRUE(s);
}

TEST_P(PipelineTest, EventTimeRangesCoverTheirMessages) {
  const DigestResult result =
      pipeline::Digest(&p_.kb, &p_.dict, p_.live.messages);
  for (const DigestEvent& ev : result.events) {
    EXPECT_LE(ev.start, ev.end);
    for (const std::size_t idx : ev.messages) {
      EXPECT_GE(p_.live.messages[idx].time, ev.start);
      EXPECT_LE(p_.live.messages[idx].time, ev.end);
    }
    EXPECT_FALSE(ev.label.empty());
    EXPECT_FALSE(ev.location_text.empty());
    EXPECT_GT(ev.score, 0.0);
  }
}

TEST_P(PipelineTest, DigestIsDeterministic) {
  const DigestResult a = pipeline::Digest(&p_.kb, &p_.dict, p_.live.messages);
  const DigestResult b = pipeline::Digest(&p_.kb, &p_.dict, p_.live.messages);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].messages, b.events[i].messages);
    EXPECT_EQ(a.events[i].label, b.events[i].label);
  }
}

TEST_P(PipelineTest, GroundTruthEventsRarelyFragment) {
  const DigestResult result =
      pipeline::Digest(&p_.kb, &p_.dict, p_.live.messages);
  std::vector<int> event_of(p_.live.messages.size(), -1);
  for (std::size_t e = 0; e < result.events.size(); ++e) {
    for (const std::size_t m : result.events[e].messages) {
      event_of[m] = static_cast<int>(e);
    }
  }
  std::size_t total_groups = 0;
  std::size_t total_events = 0;
  for (const sim::GtEvent& gt : p_.live.ground_truth) {
    std::set<int> groups;
    for (const std::size_t m : gt.message_indices) {
      groups.insert(event_of[m]);
    }
    total_groups += groups.size();
    ++total_events;
  }
  // On average a ground-truth network condition maps to at most ~3 digest
  // events (down phase / up phase can split; wholesale shattering fails).
  EXPECT_LT(static_cast<double>(total_groups) /
                static_cast<double>(total_events),
            3.0);
}

TEST_P(PipelineTest, KnowledgeBaseSurvivesSerialization) {
  const std::string blob = p_.kb.Serialize();
  KnowledgeBase restored = KnowledgeBase::Deserialize(blob);
  const DigestResult a = pipeline::Digest(&p_.kb, &p_.dict, p_.live.messages);
  const DigestResult b =
      pipeline::Digest(&restored, &p_.dict, p_.live.messages);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].messages, b.events[i].messages);
  }
}

TEST_P(PipelineTest, ActiveRulesBoundedByRuleBase) {
  const DigestResult result =
      pipeline::Digest(&p_.kb, &p_.dict, p_.live.messages);
  EXPECT_GT(p_.kb.rules.size(), 0u);
  EXPECT_LE(result.active_rule_count, p_.kb.rules.size());
  EXPECT_GT(result.active_rule_count, 0u);
}

INSTANTIATE_TEST_SUITE_P(BothDatasets, PipelineTest,
                         ::testing::Values(net::Vendor::kV1,
                                           net::Vendor::kV2));

TEST(RuleEvolutionTest, WeeklyUpdatesStabilize) {
  sim::DatasetSpec spec = Small(net::Vendor::kV1);
  const sim::Dataset history = sim::GenerateDataset(spec, 0, 56, 7);
  std::vector<net::ParsedConfig> parsed;
  for (const std::string& cfg : history.configs) {
    parsed.push_back(net::ParseConfig(cfg));
  }
  const LocationDict dict = LocationDict::Build(parsed);
  OfflineLearner learner;
  RuleEvolution evolution;
  (void)learner.Learn(history.messages, dict, &evolution);
  // 8 weekly updates (long-running scenarios may spill into a 9th).
  ASSERT_GE(evolution.total.size(), 8u);
  ASSERT_LE(evolution.total.size(), 9u);
  // Later weeks churn less than the start (stabilization): compare the
  // mean churn of the first three updates (dominated by initial learning)
  // with the mean of the last three.
  const auto churn = [&](std::size_t i) {
    return evolution.added[i] + evolution.deleted[i];
  };
  const std::size_t n = evolution.total.size();
  const double early = static_cast<double>(churn(0) + churn(1) + churn(2));
  const double late =
      static_cast<double>(churn(n - 3) + churn(n - 2) + churn(n - 1));
  EXPECT_LE(late, early);
  EXPECT_GT(evolution.total.back(), 0u);
}

TEST(OfflineLearnerTest, TemporalSweepPicksFromGrid) {
  sim::DatasetSpec spec = Small(net::Vendor::kV1);
  const sim::Dataset history = sim::GenerateDataset(spec, 0, 3, 7);
  std::vector<net::ParsedConfig> parsed;
  for (const std::string& cfg : history.configs) {
    parsed.push_back(net::ParseConfig(cfg));
  }
  const LocationDict dict = LocationDict::Build(parsed);
  OfflineLearnerParams params;
  params.sweep_temporal = true;
  params.alpha_grid = {0.05, 0.2};
  params.beta_grid = {2, 5};
  OfflineLearner learner(params);
  const KnowledgeBase kb = learner.Learn(history.messages, dict);
  EXPECT_TRUE(kb.temporal_params.alpha == 0.05 ||
              kb.temporal_params.alpha == 0.2);
  EXPECT_TRUE(kb.temporal_params.beta == 2 || kb.temporal_params.beta == 5);
  EXPECT_FALSE(kb.temporal_priors.empty());
}

TEST(OfflineLearnerTest, SignatureFrequenciesSumToHistory) {
  sim::DatasetSpec spec = Small(net::Vendor::kV2);
  const sim::Dataset history = sim::GenerateDataset(spec, 0, 2, 7);
  std::vector<net::ParsedConfig> parsed;
  for (const std::string& cfg : history.configs) {
    parsed.push_back(net::ParseConfig(cfg));
  }
  const LocationDict dict = LocationDict::Build(parsed);
  OfflineLearner learner;
  const KnowledgeBase kb = learner.Learn(history.messages, dict);
  std::uint64_t total = 0;
  for (const auto& [key, count] : kb.signature_freq) {
    (void)key;
    total += count;
  }
  EXPECT_EQ(total, history.messages.size());
  EXPECT_EQ(kb.history_message_count, history.messages.size());
}

}  // namespace
}  // namespace sld::core
