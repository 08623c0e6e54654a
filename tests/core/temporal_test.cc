#include "core/temporal/temporal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>

#include "ckpt/codec.h"

namespace sld::core {
namespace {

Augmented Msg(TimeMs t, TemplateId tmpl = 1, std::uint32_t router = 0) {
  Augmented a;
  a.time = t;
  a.tmpl = tmpl;
  a.router_key = router;
  a.router_known = true;
  return a;
}

TemporalParams Params(double alpha = 0.05, double beta = 5.0) {
  TemporalParams p;
  p.alpha = alpha;
  p.beta = beta;
  return p;
}

TEST(TemporalGrouperTest, PeriodicMessagesShareOneGroup) {
  TemporalPriors priors{{1, 30000.0}};  // 30 s expected period
  TemporalGrouper g(Params(), &priors);
  std::set<std::size_t> groups;
  for (int i = 0; i < 50; ++i) {
    groups.insert(g.Feed(Msg(i * 30000)));
  }
  EXPECT_EQ(groups.size(), 1u);
}

TEST(TemporalGrouperTest, LongGapSplitsGroups) {
  TemporalPriors priors{{1, 30000.0}};
  TemporalGrouper g(Params(), &priors);
  const auto g1 = g.Feed(Msg(0));
  EXPECT_EQ(g.Feed(Msg(30000)), g1);
  // 30 minutes >> beta * shat: new group.
  const auto g2 = g.Feed(Msg(30000 + 30 * kMsPerMinute));
  EXPECT_NE(g2, g1);
  // The new burst continues in the new group.
  EXPECT_EQ(g.Feed(Msg(60000 + 30 * kMsPerMinute)), g2);
}

TEST(TemporalGrouperTest, SminAlwaysGroups) {
  // Gap below S_min groups even when the prediction says otherwise.
  TemporalPriors priors{{1, 10.0}};  // prediction: 10 ms
  TemporalParams p = Params(0.05, 1.0);
  TemporalGrouper g(p, &priors);
  const auto g1 = g.Feed(Msg(0));
  EXPECT_EQ(g.Feed(Msg(900)), g1);  // 900 ms <= S_min (1 s)
}

TEST(TemporalGrouperTest, SmaxNeverGroups) {
  // Gap above S_max splits even with an enormous prediction.
  TemporalPriors priors{{1, 1e12}};
  TemporalGrouper g(Params(), &priors);
  const auto g1 = g.Feed(Msg(0));
  EXPECT_NE(g.Feed(Msg(3 * kMsPerHour + 1000)), g1);
}

TEST(TemporalGrouperTest, DistinctTemplatesAndRoutersAreIndependent) {
  TemporalGrouper g(Params(), nullptr);
  const auto a = g.Feed(Msg(0, 1, 0));
  const auto b = g.Feed(Msg(0, 2, 0));
  const auto c = g.Feed(Msg(0, 1, 1));
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
  // Same key continues its own group regardless of interleaving.
  EXPECT_EQ(g.Feed(Msg(1000, 1, 0)), a);
  EXPECT_EQ(g.Feed(Msg(1000, 2, 0)), b);
}

TEST(TemporalGrouperTest, EwmaAdaptsToChangedPeriod) {
  // After a period change from 10 s to 60 s, alpha=0.5 adapts within a
  // few samples and keeps grouping.
  TemporalPriors priors{{1, 10000.0}};
  TemporalGrouper g(Params(0.5, 5.0), &priors);
  TimeMs t = 0;
  std::size_t group = g.Feed(Msg(t));
  for (int i = 0; i < 10; ++i) {
    t += 10000;
    EXPECT_EQ(g.Feed(Msg(t)), group);
  }
  for (int i = 0; i < 10; ++i) {
    t += 45000;  // 45 s <= 5 * shat(10 s) initially, then shat adapts up
    EXPECT_EQ(g.Feed(Msg(t)), group);
  }
}

TEST(TemporalGrouperTest, UnknownTemplateUsesDefaultPrior) {
  TemporalPriors priors;  // empty
  TemporalGrouper g(Params(), &priors);
  const auto g1 = g.Feed(Msg(0));
  // 60 s default prior, beta 5 -> gaps up to 300 s group.
  EXPECT_EQ(g.Feed(Msg(250000)), g1);
  EXPECT_NE(g.Feed(Msg(250000 + 40 * kMsPerMinute)), g1);
}

// A chain record's 32-bit field after the key is reserved: with 0 there
// the chain loads into its router's grouper and continues from its saved
// tail; any other value is refused.
TEST(TemporalGrouperTest, LoadChainsRefusesReservedField) {
  for (const std::uint32_t reserved : {0u, 1u}) {
    ckpt::Writer w;
    w.U64(1);                             // one chain:
    w.U64((std::uint64_t{1} << 32) | 3);  // template 1 on router 3
    w.U32(reserved);
    w.I64(5000);     // last time
    w.F64(60000.0);  // predicted interarrival
    w.U64(42);       // tail
    TemporalGrouper g(Params(), nullptr);
    ckpt::Reader r(w.data());
    const bool loaded =
        TemporalGrouper::LoadChains(&r, [&](std::uint32_t router) {
          EXPECT_EQ(router, 3u);
          return &g;
        });
    EXPECT_EQ(loaded, reserved == 0) << reserved;
    if (loaded) {
      std::optional<std::size_t> prev;
      g.Feed(Msg(6000, 1, 3), &prev);
      EXPECT_EQ(prev, 42u);
    }
  }
}

TEST(MineTemporalPriorsTest, MedianOfGaps) {
  std::vector<Augmented> history;
  for (int i = 0; i < 11; ++i) history.push_back(Msg(i * 20000));
  const TemporalPriors priors = MineTemporalPriors(history);
  ASSERT_TRUE(priors.count(1));
  EXPECT_DOUBLE_EQ(priors.at(1), 20000.0);
}

TEST(MineTemporalPriorsTest, GapsAboveSmaxExcluded) {
  std::vector<Augmented> history;
  history.push_back(Msg(0));
  history.push_back(Msg(10 * kMsPerHour));  // ignored gap
  history.push_back(Msg(10 * kMsPerHour + 5000));
  const TemporalPriors priors = MineTemporalPriors(history);
  ASSERT_TRUE(priors.count(1));
  EXPECT_DOUBLE_EQ(priors.at(1), 5000.0);
}

TEST(MineTemporalPriorsTest, PerTemplate) {
  std::vector<Augmented> history;
  for (int i = 0; i < 10; ++i) {
    history.push_back(Msg(i * 60000, 1));
    history.push_back(Msg(i * 60000 + 100, 2));
  }
  std::sort(history.begin(), history.end(),
            [](const Augmented& a, const Augmented& b) {
              return a.time < b.time;
            });
  const TemporalPriors priors = MineTemporalPriors(history);
  EXPECT_DOUBLE_EQ(priors.at(1), 60000.0);
  EXPECT_DOUBLE_EQ(priors.at(2), 60000.0);
}

// Compression is monotone non-increasing in beta: a larger tolerance can
// only merge more (property the paper's Fig. 11 relies on).
class BetaMonotonicity : public ::testing::TestWithParam<double> {};

std::vector<Augmented> JitteredTrains() {
  std::vector<Augmented> history;
  std::mt19937_64 rng(9);
  TimeMs t = 0;
  for (int burst = 0; burst < 40; ++burst) {
    t += 2 * kMsPerHour + static_cast<TimeMs>(rng() % kMsPerHour);
    TimeMs at = t;
    for (int i = 0; i < 20; ++i) {
      at += 20000 + static_cast<TimeMs>(rng() % 20000);
      history.push_back(Msg(at, 1 + burst % 3,
                            static_cast<std::uint32_t>(burst % 5)));
    }
  }
  std::sort(history.begin(), history.end(),
            [](const Augmented& a, const Augmented& b) {
              return a.time < b.time;
            });
  return history;
}

TEST_P(BetaMonotonicity, LargerBetaNeverIncreasesGroups) {
  const auto history = JitteredTrains();
  const TemporalPriors priors = MineTemporalPriors(history);
  const double beta = GetParam();
  const std::size_t at =
      CountTemporalGroups(history, Params(0.05, beta), priors);
  const std::size_t next =
      CountTemporalGroups(history, Params(0.05, beta + 1.0), priors);
  EXPECT_GE(at, next);
}

INSTANTIATE_TEST_SUITE_P(Betas, BetaMonotonicity,
                         ::testing::Values(1.0, 2.0, 3.0, 4.0, 5.0, 6.0));

TEST(SelectTemporalParamsTest, PicksCompressionMinimum) {
  const auto history = JitteredTrains();
  const TemporalPriors priors = MineTemporalPriors(history);
  const double alphas[] = {0.05, 0.5};
  const double betas[] = {1.0, 5.0};
  const TemporalParams best =
      SelectTemporalParams(history, priors, alphas, betas);
  // beta=5 must beat beta=1 on jittered trains.
  EXPECT_EQ(best.beta, 5.0);
  const std::size_t best_groups =
      CountTemporalGroups(history, best, priors);
  for (const double a : alphas) {
    for (const double b : betas) {
      EXPECT_LE(best_groups,
                CountTemporalGroups(history, Params(a, b), priors));
    }
  }
}

}  // namespace
}  // namespace sld::core
