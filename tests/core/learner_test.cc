#include "core/templates/learner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/learn.h"
#include "net/config_parser.h"
#include "obs/registry.h"
#include "sim/generator.h"

namespace sld::core {
namespace {

std::set<std::string> Canonicals(const TemplateSet& set) {
  std::set<std::string> out;
  for (const Template& tmpl : set.All()) out.insert(tmpl.Canonical());
  return out;
}

// The paper's Table 3 / Table 4 example: twenty BGP-5-ADJCHANGE messages
// with five structural sub-types must yield exactly the five masked
// templates of Table 4.
TEST(LearnerTest, RecoversPaperTableFourSubTypes) {
  TemplateLearner learner;
  const char* kNeighbors[] = {
      "192.168.32.42",  "192.168.100.194", "192.168.15.78",
      "192.168.108.38", "192.168.0.26",    "192.168.7.6",
      "192.168.0.238",  "192.168.2.114",   "192.168.183.250",
      "192.168.114.178", "192.168.131.218", "192.168.55.138",
      "192.168.1.13",   "192.168.12.241",  "192.168.155.66",
      "192.168.254.29", "192.168.35.230",  "192.168.171.166",
      "192.168.2.237",  "192.168.0.154"};
  const char* kSuffixes[] = {
      "Up", "Up", "Up", "Up",
      "Down Interface flap", "Down Interface flap", "Down Interface flap",
      "Down Interface flap",
      "Down BGP Notification sent", "Down BGP Notification sent",
      "Down BGP Notification sent", "Down BGP Notification sent",
      "Down BGP Notification received", "Down BGP Notification received",
      "Down BGP Notification received", "Down BGP Notification received",
      "Down Peer closed the session", "Down Peer closed the session",
      "Down Peer closed the session", "Down Peer closed the session"};
  for (int i = 0; i < 20; ++i) {
    std::string detail = "neighbor ";
    detail += kNeighbors[i];
    detail += " vpn vrf 1000:";
    detail += std::to_string(1000 + i);  // many distinct VRFs
    detail += ' ';
    detail += kSuffixes[i];
    learner.Add("BGP-5-ADJCHANGE", detail);
  }
  const TemplateSet set = learner.Learn();
  const std::set<std::string> expected = {
      "BGP-5-ADJCHANGE neighbor * vpn vrf * Up",
      "BGP-5-ADJCHANGE neighbor * vpn vrf * Down Interface flap",
      "BGP-5-ADJCHANGE neighbor * vpn vrf * Down BGP Notification sent",
      "BGP-5-ADJCHANGE neighbor * vpn vrf * Down BGP Notification received",
      "BGP-5-ADJCHANGE neighbor * vpn vrf * Down Peer closed the session"};
  EXPECT_EQ(Canonicals(set), expected);
}

TEST(LearnerTest, MasksPositionsWithManyValues) {
  TemplateLearner learner;
  for (int i = 0; i < 50; ++i) {
    learner.Add("C-1-X", "value is " + std::to_string(i) + " units");
  }
  const TemplateSet set = learner.Learn();
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.All()[0].Canonical(), "C-1-X value is * units");
}

TEST(LearnerTest, SplitsPositionsWithFewValues) {
  // Two states with many messages each: two sub-type templates (this is
  // also the mechanism behind the paper's "GigabitEthernet" caveat).
  TemplateLearner learner;
  for (int i = 0; i < 30; ++i) {
    learner.Add("C-1-X", std::string("state changed to ") +
                             (i % 2 == 0 ? "down" : "up"));
  }
  const TemplateSet set = learner.Learn();
  const std::set<std::string> expected = {"C-1-X state changed to down",
                                          "C-1-X state changed to up"};
  EXPECT_EQ(Canonicals(set), expected);
}

TEST(LearnerTest, LocationWordsAlwaysMaskEvenWhenFewDistinct) {
  // Only two interfaces ever appear, but interface names are location
  // words and must not become sub-types (§3.1's exclusion).
  TemplateLearner learner;
  for (int i = 0; i < 20; ++i) {
    learner.Add("LINK-3-UPDOWN",
                std::string("Interface ") +
                    (i % 2 == 0 ? "Serial1/0" : "Serial2/0") +
                    ", changed state to down");
  }
  const TemplateSet set = learner.Learn();
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.All()[0].Canonical(),
            "LINK-3-UPDOWN Interface * changed state to down");
}

TEST(LearnerTest, ConstantLocationStillMasks) {
  // A single NTP server address is constant across all messages; as a
  // location word it still masks.
  TemplateLearner learner;
  for (int i = 0; i < 10; ++i) {
    learner.Add("NTP-6-PEERSYNC", "NTP sync to peer 172.30.255.1");
  }
  const TemplateSet set = learner.Learn();
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.All()[0].Canonical(), "NTP-6-PEERSYNC NTP sync to peer *");
}

TEST(LearnerTest, DifferentLengthsNeverShareTemplate) {
  TemplateLearner learner;
  learner.Add("C-1-X", "alpha beta");
  learner.Add("C-1-X", "alpha beta gamma");
  const TemplateSet set = learner.Learn();
  EXPECT_EQ(set.size(), 2u);
}

TEST(LearnerTest, MaskedParentPositionRecoversInChild) {
  // Regression for the tree construction: a position that is variable in
  // the mixed parent (here: the 3rd word across both shapes) must still
  // surface as a constant inside the sub-type where it IS constant.
  TemplateLearner learner;
  for (int i = 0; i < 25; ++i) {
    learner.Add("BGP-5-ADJCHANGE",
                "neighbor 10.0.0." + std::to_string(i) +
                    " Down BGP Notification sent");
    learner.Add("BGP-5-ADJCHANGE",
                "neighbor 10.0.1." + std::to_string(i) +
                    " Down BGP Notification received");
  }
  const TemplateSet set = learner.Learn();
  const std::set<std::string> expected = {
      "BGP-5-ADJCHANGE neighbor * Down BGP Notification sent",
      "BGP-5-ADJCHANGE neighbor * Down BGP Notification received"};
  EXPECT_EQ(Canonicals(set), expected);
}

TEST(LearnerTest, MaxBranchBoundsSubTypes) {
  // 30 distinct values > k=10 at the only varying position: masked, one
  // template; with k=40 the same data yields 30 sub-types.
  for (const int k : {10, 40}) {
    TemplateLearnerParams params;
    params.max_branch = k;
    TemplateLearner learner(params);
    // Enough repetitions that the sample-size cap (sqrt of node size)
    // does not bind and the k parameter alone decides.
    for (int i = 0; i < 30; ++i) {
      for (int rep = 0; rep < 40; ++rep) {
        learner.Add("C-1-X", "state code" + std::to_string(i) + " seen");
      }
    }
    const TemplateSet set = learner.Learn();
    if (k == 10) {
      EXPECT_EQ(set.size(), 1u);
    } else {
      EXPECT_EQ(set.size(), 30u);
    }
  }
}

TEST(LearnerTest, EmptyLearnerYieldsEmptySet) {
  TemplateLearner learner;
  EXPECT_EQ(learner.Learn().size(), 0u);
  EXPECT_EQ(learner.message_count(), 0u);
}

TEST(LearnerTest, SingleMessageBecomesItsOwnTemplate) {
  TemplateLearner learner;
  learner.Add("C-1-X", "one of a kind");
  const TemplateSet set = learner.Learn();
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.All()[0].Canonical(), "C-1-X one of a kind");
}

TEST(LearnerTest, MixedCodesLearnedIndependently) {
  TemplateLearner learner;
  for (int i = 0; i < 20; ++i) {
    learner.Add("A-1-X", "alpha " + std::to_string(i));
    learner.Add("B-1-Y", "beta " + std::to_string(i));
  }
  const TemplateSet set = learner.Learn();
  const std::set<std::string> expected = {"A-1-X alpha *", "B-1-Y beta *"};
  EXPECT_EQ(Canonicals(set), expected);
  EXPECT_EQ(learner.message_count(), 40u);
}

// ---- OfflineLearner --------------------------------------------------

// Small α/β grids so the sweep phase runs without dominating test time.
OfflineLearnerParams SweepParams() {
  OfflineLearnerParams params;
  params.sweep_temporal = true;
  params.alpha_grid = {0.05, 0.1, 0.2};
  params.beta_grid = {3, 5};
  return params;
}

LocationDict DictOf(const sim::Dataset& ds) {
  std::vector<net::ParsedConfig> parsed;
  for (const std::string& cfg : ds.configs) {
    parsed.push_back(net::ParseConfig(cfg));
  }
  return LocationDict::Build(parsed);
}

// Hand-built pathological history: empty update periods (a gap longer
// than the period), a trailing sliver (a final period under a tenth of
// the previous one), and routers the config dictionary has never heard
// of.
std::vector<syslog::SyslogRecord> EdgeCaseHistory() {
  // Appends a number to a literal (prefix + std::to_string(n) trips a
  // false -Wrestrict in GCC 12).
  const auto num = [](const char* prefix, int n) {
    std::string out(prefix);
    out += std::to_string(n);
    return out;
  };
  std::vector<syslog::SyslogRecord> history;
  const auto add = [&](TimeMs t, std::string router, std::string code,
                       std::string detail) {
    syslog::SyslogRecord rec;
    rec.time = t;
    rec.router = std::move(router);
    rec.code = std::move(code);
    rec.detail = std::move(detail);
    history.push_back(std::move(rec));
  };
  // Period 0 (days 0-7): a dense burst across known and unknown routers.
  for (int i = 0; i < 200; ++i) {
    const TimeMs t = static_cast<TimeMs>(i) * kMsPerSecond * 30;
    add(t, i % 3 == 0 ? "ghost-router" : num("r", i % 4), "LINK-3-UPDOWN",
        num("Interface Serial", i % 7) + "/0, changed state to " +
            (i % 2 ? "up" : "down"));
    if (i % 5 == 0) {
      add(t + 500, num("r", i % 4), "OSPF-5-ADJCHG",
          num("Process 1, Nbr 10.0.0.", i % 9) +
              " on Serial0/0 from FULL to DOWN");
    }
  }
  // Periods 1-2 are empty: a 3-week silence.  Period 3 resumes.
  const TimeMs resume = 22 * kMsPerDay;
  for (int i = 0; i < 100; ++i) {
    add(resume + static_cast<TimeMs>(i) * kMsPerSecond * 60,
        num("r", i % 4), "ENVMON-2-FAN",
        num("Fan ", i % 3) + " failure detected");
  }
  // Trailing sliver: 3 messages in the next period (< 100/10).
  const TimeMs tail = 29 * kMsPerDay;
  for (int i = 0; i < 3; ++i) {
    add(tail + static_cast<TimeMs>(i) * kMsPerSecond, "unknown-tail",
        "SYS-5-CONFIG_I", "Configured from console by admin");
  }
  return history;
}

std::string Joined(const std::vector<std::size_t>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(values[i]);
  }
  return out;
}

// One golden section: a header naming the history and its weekly rule
// base trajectory, then the serialized knowledge base line by line.
struct KbSection {
  std::string header;
  std::vector<std::string> lines;
};

KbSection LearnSection(const std::string& name,
                       std::span<const syslog::SyslogRecord> history,
                       const LocationDict& dict,
                       const OfflineLearnerParams& params) {
  RuleEvolution evo;
  LearnTimings timings;
  const KnowledgeBase kb =
      OfflineLearner(params).Learn(history, dict, &evo, &timings);
  EXPECT_GT(kb.templates.size(), 0u) << name;
  EXPECT_GT(timings.params_s, 0.0) << name;  // the sweep ran
  EXPECT_EQ(timings.rule_period_s.size(), evo.total.size()) << name;
  KbSection section;
  section.header = "# " + name + " total=" + Joined(evo.total) +
                   " added=" + Joined(evo.added) +
                   " deleted=" + Joined(evo.deleted);
  std::istringstream in(kb.Serialize());
  for (std::string line; std::getline(in, line);) {
    section.lines.push_back(line);
  }
  return section;
}

const char* GoldenKbPath() { return SLD_GOLDEN_DIR "/golden_kb.txt"; }

// Reads golden_kb.txt as its sections, in file order.
std::vector<KbSection> ReadGoldenKb() {
  std::vector<KbSection> sections;
  std::ifstream in(GoldenKbPath());
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("# ", 0) == 0) {
      sections.push_back(KbSection{line, {}});
    } else if (!sections.empty()) {
      sections.back().lines.push_back(line);
    }
  }
  return sections;
}

bool SectionNamed(const KbSection& section, const std::string& name) {
  return section.header.rfind("# " + name + " ", 0) == 0;
}

// Compares one learned section with the golden section of the same name
// line by line.  Under SLD_UPDATE_GOLDEN the learned section instead
// replaces (or is appended as) that section, leaving the others as they
// are, and nothing is compared.
void ExpectMatchesGolden(const std::string& name, const KbSection& got) {
  std::vector<KbSection> sections = ReadGoldenKb();
  auto it = std::find_if(
      sections.begin(), sections.end(),
      [&](const KbSection& section) { return SectionNamed(section, name); });
  if (std::getenv("SLD_UPDATE_GOLDEN") != nullptr) {
    if (it == sections.end()) {
      sections.push_back(got);
    } else {
      *it = got;
    }
    std::ofstream out(GoldenKbPath());
    for (const KbSection& section : sections) {
      out << section.header << '\n';
      for (const std::string& line : section.lines) out << line << '\n';
    }
    return;
  }
  ASSERT_NE(it, sections.end())
      << "no section '" << name << "' in " << GoldenKbPath();
  const KbSection& want = *it;
  EXPECT_EQ(got.header, want.header);
  ASSERT_EQ(got.lines.size(), want.lines.size()) << got.header;
  for (std::size_t i = 0; i < got.lines.size(); ++i) {
    EXPECT_EQ(got.lines[i], want.lines[i]) << got.header << " line " << i;
  }
}

// The two tests below pin the learned knowledge base byte for byte:
// templates and their ids, temporal priors, the tuned α/β, rules, and
// signature frequencies, plus the rule base's weekly trajectory.  Each
// owns one section of tests/core/golden_kb.txt.  Regenerate only when a
// change to what the learner learns is intended:
//   SLD_UPDATE_GOLDEN=1 build/tests/learner_test

// The hand-built pathological history, learned with the sweep on and a
// dictionary that knows r0..r3 but none of the ghost routers.
TEST(OfflineLearnerTest, EdgeCaseHistoryMatchesGolden) {
  sim::DatasetSpec spec = sim::DatasetASpec();
  spec.topo.num_routers = 4;
  const LocationDict dict = DictOf(sim::GenerateDataset(spec, 0, 1, 402));
  OfflineLearnerParams params = SweepParams();
  params.rules.min_support = 0.001;
  ExpectMatchesGolden(
      "edge-case", LearnSection("edge-case", EdgeCaseHistory(), dict, params));
}

// A 16-day, 10-router generator history, learned with the sweep on.
TEST(OfflineLearnerTest, GeneratorStreamMatchesGolden) {
  sim::DatasetSpec spec = sim::DatasetASpec();
  spec.topo.num_routers = 10;
  const sim::Dataset history = sim::GenerateDataset(spec, 0, 16, 401);
  ExpectMatchesGolden("generator",
                      LearnSection("generator", history.messages,
                                   DictOf(history), SweepParams()));
}

TEST(OfflineLearnerTest, EmptyHistoryYieldsEmptyKnowledgeBase) {
  const LocationDict dict;
  LearnTimings timings;
  const KnowledgeBase kb = OfflineLearner().Learn(
      std::span<const syslog::SyslogRecord>{}, dict, nullptr, &timings);
  EXPECT_EQ(kb.templates.size(), 0u);
  EXPECT_EQ(kb.rules.size(), 0u);
  EXPECT_EQ(kb.history_message_count, 0u);
  EXPECT_TRUE(timings.rule_period_s.empty());
}

TEST(OfflineLearnerTest, PublishesPhaseGaugesWhenBound) {
  sim::DatasetSpec spec = sim::DatasetASpec();
  spec.topo.num_routers = 4;
  const sim::Dataset history = sim::GenerateDataset(spec, 0, 2, 403);
  const LocationDict dict = DictOf(history);

  OfflineLearner learner;
  obs::Registry registry;
  learner.BindMetrics(&registry);
  const KnowledgeBase kb = learner.Learn(history.messages, dict);
  ASSERT_GT(kb.templates.size(), 0u);

  const std::string json = registry.Collect().RenderJson();
  for (const char* phase :
       {"templates", "augment", "priors", "rules", "freq", "total"}) {
    EXPECT_NE(json.find("\"name\":\"learn_phase_duration_us\",\"type\":"
                        "\"gauge\",\"labels\":{\"phase\":\"" +
                        std::string(phase) + "\"}"),
              std::string::npos)
        << "missing phase gauge: " << phase;
  }
  EXPECT_NE(json.find("\"learn_templates\""), std::string::npos);
  EXPECT_NE(json.find("\"learn_rules\""), std::string::npos);
  EXPECT_NE(json.find("\"learn_history_messages\""), std::string::npos);
  EXPECT_NE(json.find("\"learn_rule_period_duration_us\""),
            std::string::npos);
}

}  // namespace
}  // namespace sld::core
