#include "core/rules/rules.h"

#include <gtest/gtest.h>

namespace sld::core {
namespace {

Augmented Msg(TimeMs t, TemplateId tmpl, std::uint32_t router = 0) {
  Augmented a;
  a.time = t;
  a.tmpl = tmpl;
  a.router_key = router;
  a.router_known = true;
  return a;
}

RuleMinerParams Params(TimeMs w = 60000, double sp = 0.01,
                       double conf = 0.8) {
  RuleMinerParams p;
  p.window_ms = w;
  p.min_support = sp;
  p.min_confidence = conf;
  return p;
}

TEST(MineCooccurrenceTest, OneTransactionPerMessage) {
  const std::vector<Augmented> stream = {Msg(0, 1), Msg(1000, 2),
                                         Msg(2000, 1)};
  const MiningStats stats = MineCooccurrence(stream, 60000);
  EXPECT_EQ(stats.transaction_count, 3u);
  EXPECT_EQ(stats.message_count, 3u);
  EXPECT_EQ(stats.item_messages.at(1), 2u);
  EXPECT_EQ(stats.item_messages.at(2), 1u);
}

TEST(MineCooccurrenceTest, WindowBoundsCooccurrence) {
  // 2 occurs 70 s after 1: outside W=60 s, no pair.
  const std::vector<Augmented> apart = {Msg(0, 1), Msg(70000, 2)};
  EXPECT_TRUE(MineCooccurrence(apart, 60000).pair_tx.empty());
  const std::vector<Augmented> close = {Msg(0, 1), Msg(50000, 2)};
  const MiningStats stats = MineCooccurrence(close, 60000);
  EXPECT_EQ(stats.pair_tx.at(MiningStats::PairKey(1, 2)), 1u);
}

TEST(MineCooccurrenceTest, TransactionsArePerRouter) {
  // Same instant on different routers: never one transaction.
  const std::vector<Augmented> stream = {Msg(0, 1, 0), Msg(10, 2, 1)};
  EXPECT_TRUE(MineCooccurrence(stream, 60000).pair_tx.empty());
}

TEST(MineCooccurrenceTest, SupportAndConfidenceMath) {
  // Build: 10 windows with A alone, 10 windows with A followed by B.
  std::vector<Augmented> stream;
  TimeMs t = 0;
  for (int i = 0; i < 10; ++i) {
    stream.push_back(Msg(t, 1));
    t += kMsPerHour;
  }
  for (int i = 0; i < 10; ++i) {
    stream.push_back(Msg(t, 1));
    stream.push_back(Msg(t + 1000, 2));
    t += kMsPerHour;
  }
  const MiningStats stats = MineCooccurrence(stream, 60000);
  // Transactions: 30 (one per message, forward window).  A appears in its
  // own 20 windows; B appears in its own 10 plus the 10 pair windows of A.
  EXPECT_EQ(stats.transaction_count, 30u);
  EXPECT_EQ(stats.item_tx.at(1), 20u);
  EXPECT_EQ(stats.item_tx.at(2), 20u);
  EXPECT_EQ(stats.pair_tx.at(MiningStats::PairKey(1, 2)), 10u);
  EXPECT_DOUBLE_EQ(stats.Confidence(1, 2), 0.5);  // 10/20
  EXPECT_DOUBLE_EQ(stats.Confidence(2, 1), 0.5);  // 10/20
  EXPECT_DOUBLE_EQ(stats.Support(1), 20.0 / 30.0);
  EXPECT_DOUBLE_EQ(stats.PairSupport(1, 2), 10.0 / 30.0);
}

TEST(ExtractRulesTest, ConfidenceUsesBestDirection) {
  // A is ALWAYS followed by B, but B also occurs alone: conf(A=>B) = 1.0
  // while conf(B=>A) = 0.5.  The max direction qualifies the rule.
  std::vector<Augmented> stream;
  TimeMs t = 0;
  for (int i = 0; i < 10; ++i) {
    stream.push_back(Msg(t, 1));
    stream.push_back(Msg(t + 1000, 2));
    t += kMsPerHour;
    stream.push_back(Msg(t, 2));  // standalone B
    t += kMsPerHour;
  }
  const MiningStats stats = MineCooccurrence(stream, 60000);
  EXPECT_DOUBLE_EQ(stats.Confidence(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(stats.Confidence(2, 1), 10.0 / 30.0);
  const auto rules = ExtractRules(stats, Params());
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].a, 1u);
  EXPECT_EQ(rules[0].b, 2u);
  EXPECT_DOUBLE_EQ(rules[0].confidence, 1.0);
}

TEST(ExtractRulesTest, SupportThresholdFiltersRareItems) {
  std::vector<Augmented> stream;
  TimeMs t = 0;
  // Bulk traffic of template 9 so that (1, 2)'s support share is tiny.
  for (int i = 0; i < 998; ++i) {
    stream.push_back(Msg(t, 9));
    t += kMsPerHour;
  }
  stream.push_back(Msg(t, 1));
  stream.push_back(Msg(t + 1000, 2));
  const MiningStats stats = MineCooccurrence(stream, 60000);
  EXPECT_TRUE(ExtractRules(stats, Params(60000, 0.01, 0.5)).empty());
  EXPECT_EQ(ExtractRules(stats, Params(60000, 0.0001, 0.5)).size(), 1u);
}

TEST(ExtractRulesTest, ConfidenceThresholdFilters) {
  std::vector<Augmented> stream;
  TimeMs t = 0;
  for (int i = 0; i < 10; ++i) {
    // A and B co-occur half the time, in both directions diluted.
    stream.push_back(Msg(t, 1));
    if (i % 2 == 0) stream.push_back(Msg(t + 1000, 2));
    t += kMsPerHour;
    stream.push_back(Msg(t, 2));
    t += kMsPerHour;
  }
  const MiningStats stats = MineCooccurrence(stream, 60000);
  EXPECT_TRUE(ExtractRules(stats, Params(60000, 0.01, 0.8)).empty());
  EXPECT_FALSE(ExtractRules(stats, Params(60000, 0.01, 0.3)).empty());
}

std::vector<Augmented> CorrelatedWeek(int pairs) {
  std::vector<Augmented> stream;
  TimeMs t = 0;
  for (int i = 0; i < pairs; ++i) {
    stream.push_back(Msg(t, 1));
    stream.push_back(Msg(t + 5000, 2));
    t += kMsPerHour;
  }
  return stream;
}

std::vector<Augmented> UncorrelatedWeek(int singles) {
  std::vector<Augmented> stream;
  TimeMs t = 0;
  for (int i = 0; i < singles; ++i) {
    stream.push_back(Msg(t, 1));
    t += kMsPerHour;
    stream.push_back(Msg(t, 2));
    t += kMsPerHour;
  }
  return stream;
}

TEST(RuleBaseTest, AddsQualifyingRules) {
  RuleBase base;
  const auto result = base.Update(
      MineCooccurrence(CorrelatedWeek(20), 60000), Params());
  EXPECT_EQ(result.added, 1u);
  EXPECT_EQ(result.deleted, 0u);
  EXPECT_TRUE(base.Has(1, 2));
  EXPECT_TRUE(base.Has(2, 1));  // symmetric lookup
  EXPECT_FALSE(base.Has(1, 3));
}

TEST(RuleBaseTest, ReAddingIsNotCountedAsNew) {
  RuleBase base;
  base.Update(MineCooccurrence(CorrelatedWeek(20), 60000), Params());
  const auto again =
      base.Update(MineCooccurrence(CorrelatedWeek(20), 60000), Params());
  EXPECT_EQ(again.added, 0u);
  EXPECT_EQ(base.size(), 1u);
}

TEST(RuleBaseTest, ConservativeDeletionRequiresCounterEvidence) {
  RuleBase base;
  base.Update(MineCooccurrence(CorrelatedWeek(20), 60000), Params());
  // A week where the items never appear: rule survives (no evidence).
  std::vector<Augmented> other_week;
  for (int i = 0; i < 50; ++i) {
    other_week.push_back(Msg(i * kMsPerHour, 7));
  }
  const auto quiet =
      base.Update(MineCooccurrence(other_week, 60000), Params());
  EXPECT_EQ(quiet.deleted, 0u);
  EXPECT_TRUE(base.Has(1, 2));
  // A week where the items are common but uncorrelated: rule deleted.
  const auto contradicted = base.Update(
      MineCooccurrence(UncorrelatedWeek(25), 60000), Params());
  EXPECT_EQ(contradicted.deleted, 1u);
  EXPECT_FALSE(base.Has(1, 2));
}

TEST(RuleBaseTest, NaiveDeletionDropsOnLowSupport) {
  RuleBase conservative;
  RuleBase naive;
  const MiningStats week1 = MineCooccurrence(CorrelatedWeek(20), 60000);
  conservative.Update(week1, Params());
  naive.Update(week1, Params());
  // A week dominated by another template: items 1,2 fall below SP_min.
  std::vector<Augmented> busy;
  for (int i = 0; i < 2000; ++i) busy.push_back(Msg(i * 60000, 9));
  busy.push_back(Msg(2000 * 60000, 1));
  busy.push_back(Msg(2000 * 60000 + 5000, 2));
  const MiningStats week2 = MineCooccurrence(busy, 60000);
  conservative.Update(week2, Params(60000, 0.01, 0.8));
  naive.Update(week2, Params(60000, 0.01, 0.8), /*naive_deletion=*/true);
  EXPECT_TRUE(conservative.Has(1, 2));   // kept: confidence still holds
  EXPECT_FALSE(naive.Has(1, 2));         // dropped on support alone
}

TEST(RuleBaseTest, SerializeRoundTrip) {
  TemplateSet templates;
  const auto a = templates.Add("A-1-X", {"alpha", "*"});
  const auto b = templates.Add("B-1-Y", {"beta", "*"});
  RuleBase base;
  MiningStats stats;
  stats.transaction_count = 100;
  stats.item_tx[a] = 50;
  stats.item_tx[b] = 45;
  stats.pair_tx[MiningStats::PairKey(a, b)] = 44;
  base.Update(stats, Params(60000, 0.01, 0.8));
  ASSERT_TRUE(base.Has(a, b));
  const RuleBase restored =
      RuleBase::Deserialize(base.Serialize(templates), templates);
  EXPECT_EQ(restored.size(), 1u);
  EXPECT_TRUE(restored.Has(a, b));
  const auto rules = restored.All();
  EXPECT_NEAR(rules[0].confidence, 44.0 / 45.0, 1e-6);
}

TEST(RuleBaseTest, ExpertRulesSurviveContradiction) {
  RuleBase base;
  base.AddExpertRule(1, 2);
  EXPECT_TRUE(base.Has(1, 2));
  // A week of common-but-uncorrelated items deletes mined rules, but the
  // expert-pinned rule is exempt (Fig. 1's expert adjustment).
  const auto update = base.Update(
      MineCooccurrence(UncorrelatedWeek(25), 60000), Params());
  EXPECT_EQ(update.deleted, 0u);
  EXPECT_TRUE(base.Has(1, 2));
}

TEST(RuleBaseTest, PinningUpgradesMinedRule) {
  RuleBase base;
  base.Update(MineCooccurrence(CorrelatedWeek(20), 60000), Params());
  ASSERT_TRUE(base.Has(1, 2));
  base.AddExpertRule(1, 2);
  EXPECT_EQ(base.size(), 1u);
  base.Update(MineCooccurrence(UncorrelatedWeek(25), 60000), Params());
  EXPECT_TRUE(base.Has(1, 2));  // pin held through counter-evidence
  // Re-mining the rule must not clear the pin.
  base.Update(MineCooccurrence(CorrelatedWeek(20), 60000), Params());
  base.Update(MineCooccurrence(UncorrelatedWeek(25), 60000), Params());
  EXPECT_TRUE(base.Has(1, 2));
}

TEST(RuleBaseTest, ExpertRemovalDeletesMinedRule) {
  RuleBase base;
  base.Update(MineCooccurrence(CorrelatedWeek(20), 60000), Params());
  ASSERT_TRUE(base.Has(1, 2));
  EXPECT_TRUE(base.RemoveRule(2, 1));  // symmetric
  EXPECT_FALSE(base.Has(1, 2));
  EXPECT_FALSE(base.RemoveRule(1, 2));  // already gone
}

TEST(RuleBaseTest, ExpertFlagSurvivesSerialization) {
  TemplateSet templates;
  const auto a = templates.Add("A-1-X", {"alpha"});
  const auto b = templates.Add("B-1-Y", {"beta"});
  RuleBase base;
  base.AddExpertRule(a, b);
  const RuleBase restored =
      RuleBase::Deserialize(base.Serialize(templates), templates);
  const auto rules = restored.All();
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_TRUE(rules[0].expert);
}

// Neighbors() lists exactly the templates Has() pairs with, sorted,
// after every kind of edit.
void ExpectNeighborsMatchHas(const RuleBase& base, TemplateId max_id) {
  for (TemplateId t = 0; t <= max_id; ++t) {
    std::vector<TemplateId> want;
    for (TemplateId u = 0; u <= max_id; ++u) {
      if (base.Has(t, u)) want.push_back(u);
    }
    const auto got = base.Neighbors(t);
    EXPECT_EQ(std::vector<TemplateId>(got.begin(), got.end()), want)
        << "template " << t;
  }
}

TEST(RuleBaseTest, NeighborsFollowEveryEdit) {
  RuleBase base;
  base.Update(MineCooccurrence(CorrelatedWeek(20), 60000), Params());
  ASSERT_TRUE(base.Has(1, 2));
  base.AddExpertRule(4, 1);
  base.AddExpertRule(3, 3);  // a self-rule lists its template once
  base.AddExpertRule(2, 4);
  ExpectNeighborsMatchHas(base, 9);
  EXPECT_EQ(base.Neighbors(3).size(), 1u);
  EXPECT_TRUE(base.RemoveRule(2, 4));
  base.Update(MineCooccurrence(UncorrelatedWeek(25), 60000), Params());
  EXPECT_FALSE(base.Has(1, 2));  // mined rule deleted, expert rules kept
  ExpectNeighborsMatchHas(base, 9);
  EXPECT_TRUE(base.Neighbors(1000).empty());

  TemplateSet templates;
  for (int i = 0; i < 5; ++i) {
    templates.Add("T-1-" + std::to_string(i), {"t", std::to_string(i)});
  }
  const RuleBase restored =
      RuleBase::Deserialize(base.Serialize(templates), templates);
  EXPECT_EQ(restored.size(), 2u);
  ExpectNeighborsMatchHas(restored, 9);
}

TEST(MiningStatsTest, EmptyStatsAreSafe) {
  MiningStats stats;
  EXPECT_DOUBLE_EQ(stats.Support(1), 0.0);
  EXPECT_DOUBLE_EQ(stats.Confidence(1, 2), 0.0);
  EXPECT_DOUBLE_EQ(stats.PairSupport(1, 2), 0.0);
  EXPECT_TRUE(ExtractRules(stats, Params()).empty());
}

TEST(MiningStatsTest, PairKeyIsSymmetric) {
  EXPECT_EQ(MiningStats::PairKey(3, 7), MiningStats::PairKey(7, 3));
  EXPECT_NE(MiningStats::PairKey(3, 7), MiningStats::PairKey(3, 8));
}

}  // namespace
}  // namespace sld::core
