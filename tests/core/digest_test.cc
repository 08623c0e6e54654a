#include "core/digest.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/strings.h"
#include "net/config_parser.h"
#include "pipeline/pipeline.h"

namespace sld::core {
namespace {

// Fixture reproducing the paper's running example (Table 2): router r1's
// interface Serial1/0.10:0 is connected to r2's Serial1/0.20:0; the link
// flaps four times, producing 16 messages across both routers that must
// digest into exactly ONE event.
class ToyExampleTest : public ::testing::Test {
 protected:
  ToyExampleTest() {
    const char* r1 =
        "hostname r1\n"
        "interface Loopback0\n"
        " ip address 192.168.0.1 255.255.255.255\n"
        "interface Serial1/0\n"
        " description to r2 Serial1/0\n"
        " no ip address\n"
        "interface Serial1/0.10:0\n"
        " ip address 10.0.0.1 255.255.255.252\n";
    const char* r2 =
        "hostname r2\n"
        "interface Loopback0\n"
        " ip address 192.168.0.2 255.255.255.255\n"
        "interface Serial1/0\n"
        " description to r1 Serial1/0\n"
        " no ip address\n"
        "interface Serial1/0.20:0\n"
        " ip address 10.0.0.2 255.255.255.252\n";
    dict_ = LocationDict::Build({net::ParseConfig(r1),
                                 net::ParseConfig(r2)});

    // Templates t1-t4 of the paper's §3.1.
    t_link_down_ = kb_.templates.Add(
        "LINK-3-UPDOWN", Tokens("Interface * changed state to down"));
    t_link_up_ = kb_.templates.Add(
        "LINK-3-UPDOWN", Tokens("Interface * changed state to up"));
    t_proto_down_ = kb_.templates.Add(
        "LINEPROTO-5-UPDOWN",
        Tokens("Line protocol on Interface * changed state to down"));
    t_proto_up_ = kb_.templates.Add(
        "LINEPROTO-5-UPDOWN",
        Tokens("Line protocol on Interface * changed state to up"));

    // Learned rules: {t1,t2}, {t3,t4} (§3.1) plus the down/up association
    // that repeated flapping produces.
    MiningStats stats;
    stats.transaction_count = 100;
    for (const TemplateId t :
         {t_link_down_, t_link_up_, t_proto_down_, t_proto_up_}) {
      stats.item_tx[t] = 50;
    }
    const auto pair = [&](TemplateId a, TemplateId b) {
      stats.pair_tx[MiningStats::PairKey(a, b)] = 45;
    };
    pair(t_link_down_, t_proto_down_);
    pair(t_link_up_, t_proto_up_);
    pair(t_link_down_, t_link_up_);
    RuleMinerParams params;
    params.min_support = 0.01;
    params.min_confidence = 0.8;
    kb_.rules.Update(stats, params);
    kb_.rule_params.window_ms = 60 * kMsPerSecond;
  }

  static std::vector<std::string> Tokens(std::string_view text) {
    std::vector<std::string> out;
    for (const auto tok : SplitWhitespace(text)) out.emplace_back(tok);
    return out;
  }

  // Builds the 16 messages of Table 2 (10 s flap period, 1 s down time).
  std::vector<syslog::SyslogRecord> TableTwoMessages() const {
    std::vector<syslog::SyslogRecord> msgs;
    const TimeMs base = ParseTimestamp("2010-01-10 00:00:00").value();
    for (int flap = 0; flap < 4; ++flap) {
      const TimeMs t = base + flap * 10 * kMsPerSecond;
      const bool up = flap % 2 == 1;
      const char* state = up ? "up" : "down";
      msgs.push_back({t, "r1", "LINK-3-UPDOWN",
                      std::string("Interface Serial1/0.10:0, changed state "
                                  "to ") + state});
      msgs.push_back({t, "r2", "LINK-3-UPDOWN",
                      std::string("Interface Serial1/0.20:0, changed state "
                                  "to ") + state});
      msgs.push_back({t + 1000, "r1", "LINEPROTO-5-UPDOWN",
                      std::string("Line protocol on Interface "
                                  "Serial1/0.10:0, changed state to ") +
                          state});
      msgs.push_back({t + 1000, "r2", "LINEPROTO-5-UPDOWN",
                      std::string("Line protocol on Interface "
                                  "Serial1/0.20:0, changed state to ") +
                          state});
    }
    return msgs;
  }

  LocationDict dict_;
  KnowledgeBase kb_;
  TemplateId t_link_down_ = 0;
  TemplateId t_link_up_ = 0;
  TemplateId t_proto_down_ = 0;
  TemplateId t_proto_up_ = 0;
};

TEST_F(ToyExampleTest, SixteenMessagesBecomeOneEvent) {
  const DigestResult result =
      pipeline::Digest(&kb_, &dict_, TableTwoMessages());
  ASSERT_EQ(result.events.size(), 1u);
  const DigestEvent& ev = result.events[0];
  EXPECT_EQ(ev.messages.size(), 16u);
  EXPECT_EQ(FormatTimestamp(ev.start), "2010-01-10 00:00:00");
  EXPECT_EQ(FormatTimestamp(ev.end), "2010-01-10 00:00:31");
  EXPECT_EQ(ev.label, "link flap, line protocol flap");
  EXPECT_NE(ev.location_text.find("r1 Serial1/0.10:0"), std::string::npos)
      << ev.location_text;
  EXPECT_NE(ev.location_text.find("r2 Serial1/0.20:0"), std::string::npos);
  EXPECT_EQ(ev.router_keys.size(), 2u);
  EXPECT_EQ(ev.templates.size(), 4u);
}

TEST_F(ToyExampleTest, FormatMatchesPaperPresentation) {
  const DigestResult result =
      pipeline::Digest(&kb_, &dict_, TableTwoMessages());
  ASSERT_EQ(result.events.size(), 1u);
  EXPECT_EQ(result.events[0].Format(),
            "2010-01-10 00:00:00|2010-01-10 00:00:31|"
            "r1 Serial1/0.10:0; r2 Serial1/0.20:0|"
            "link flap, line protocol flap|16 messages");
}

TEST_F(ToyExampleTest, WithoutCrossRouterTwoEvents) {
  pipeline::PipelineOptions opts;
  opts.use_cross_router = false;
  const DigestResult result =
      pipeline::Digest(&kb_, &dict_, TableTwoMessages(), opts);
  EXPECT_EQ(result.events.size(), 2u);  // one per router
}

TEST_F(ToyExampleTest, WithoutRulesMoreEvents) {
  pipeline::PipelineOptions opts;
  opts.use_rules = false;
  opts.use_cross_router = false;
  const DigestResult result =
      pipeline::Digest(&kb_, &dict_, TableTwoMessages(), opts);
  // Temporal only: per (template, router) = 4 x 2 = 8 groups.
  EXPECT_EQ(result.events.size(), 8u);
}

TEST_F(ToyExampleTest, StagesOnlyEverMerge) {
  const auto msgs = TableTwoMessages();
  const pipeline::PipelineOptions t_only{.use_rules = false,
                                         .use_cross_router = false};
  const pipeline::PipelineOptions tr{.use_rules = true,
                                     .use_cross_router = false};
  const pipeline::PipelineOptions trc{.use_rules = true,
                                      .use_cross_router = true};
  const std::size_t t_count =
      pipeline::Digest(&kb_, &dict_, msgs, t_only).events.size();
  const std::size_t tr_count =
      pipeline::Digest(&kb_, &dict_, msgs, tr).events.size();
  const std::size_t trc_count =
      pipeline::Digest(&kb_, &dict_, msgs, trc).events.size();
  EXPECT_GE(t_count, tr_count);
  EXPECT_GE(tr_count, trc_count);
}

TEST_F(ToyExampleTest, ActiveRulesCounted) {
  const DigestResult result =
      pipeline::Digest(&kb_, &dict_, TableTwoMessages());
  EXPECT_GE(result.active_rule_count, 2u);
  EXPECT_LE(result.active_rule_count, kb_.rules.size());
}

TEST_F(ToyExampleTest, UnrelatedRouterNotMerged) {
  auto msgs = TableTwoMessages();
  // A third, unconfigured router logs the same template at the same time:
  // no dictionary relationship, so it must stay a separate event.
  msgs.push_back({msgs.back().time, "r9", "LINK-3-UPDOWN",
                  "Interface Serial9/9, changed state to up"});
  std::sort(msgs.begin(), msgs.end(),
            [](const auto& a, const auto& b) { return a.time < b.time; });
  const DigestResult result = pipeline::Digest(&kb_, &dict_, msgs);
  EXPECT_EQ(result.events.size(), 2u);
}

TEST_F(ToyExampleTest, ScorePositiveAndOrdered) {
  const DigestResult result =
      pipeline::Digest(&kb_, &dict_, TableTwoMessages());
  for (const DigestEvent& ev : result.events) {
    EXPECT_GT(ev.score, 0.0);
  }
  for (std::size_t i = 1; i < result.events.size(); ++i) {
    EXPECT_GE(result.events[i - 1].score, result.events[i].score);
  }
}

TEST_F(ToyExampleTest, EmptyStreamYieldsNoEvents) {
  const DigestResult result = pipeline::Digest(&kb_, &dict_, {});
  EXPECT_TRUE(result.events.empty());
  EXPECT_EQ(result.message_count, 0u);
  EXPECT_DOUBLE_EQ(result.CompressionRatio(), 0.0);
}

TEST_F(ToyExampleTest, RareSignatureOutranksFrequentOne) {
  // Two identical events except historical frequency: the rarer signature
  // must score higher (§4.2.4 "we care more about rare events").
  kb_.signature_freq.clear();
  auto msgs = TableTwoMessages();
  const DigestResult fresh = pipeline::Digest(&kb_, &dict_, msgs);
  ASSERT_EQ(fresh.events.size(), 1u);
  const double rare_score = fresh.events[0].score;

  // Make every signature historically common.
  for (const Template& tmpl : kb_.templates.All()) {
    for (std::uint32_t router = 0; router < 2; ++router) {
      kb_.signature_freq[KnowledgeBase::FreqKey(tmpl.id, router)] = 100000;
    }
  }
  const DigestResult seasoned = pipeline::Digest(&kb_, &dict_, msgs);
  ASSERT_EQ(seasoned.events.size(), 1u);
  EXPECT_GT(rare_score, seasoned.events[0].score);
}

}  // namespace
}  // namespace sld::core
