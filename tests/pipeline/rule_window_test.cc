// RuleStage's template-indexed window against the per-entry scan it
// replaced.
//
// The reference below is that scan, kept only here: for every entry of
// the router's window within W, a rule between the two templates plus a
// spatial match emits one edge and one fired-rule key.  Seeded random
// streams drive both implementations, each into its own GroupTracker
// with short idle and max-age horizons so joined groups close
// mid-stream, and the closed events (hence the partitions) and the
// fired-rule key sets must agree at every step.  The streams mix
// configured routers (router-level location first), routers absent from
// the configs (no locations), hand-built messages led by a location
// below router level (the per-entry fallback), a self-rule, expert rule
// edits made before the run, gaps between the sweep interval and W, and
// gaps longer than W.
//
// A second test bounds the join's edge count: on slgen's message mix the
// rule edges per message must not grow with the window size.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "ckpt/codec.h"
#include "common/rng.h"
#include "core/learn.h"
#include "loadgen/loadgen.h"
#include "net/config_parser.h"
#include "pipeline/stages.h"
#include "pipeline/tracker.h"
#include "sim/generator.h"
#include "syslog/wire.h"

namespace sld::pipeline {
namespace {

// The per-entry scan RuleStage::Feed ran before its windows were indexed
// by template: the reference the indexed stage must reproduce.
class LinearRuleWindow {
 public:
  LinearRuleWindow(const core::RuleBase* rules, TimeMs window_ms,
                   const core::LocationDict* dict)
      : rules_(rules), window_ms_(window_ms), dict_(dict) {}

  void Feed(const core::Augmented& msg, std::vector<MergeEdge>* out,
            std::vector<std::uint64_t>* fired_rules) {
    std::deque<Entry>& window = windows_[msg.router_key];
    while (!window.empty() && msg.time - window.front().time > window_ms_) {
      window.pop_front();
    }
    for (const Entry& other : window) {
      if (other.tmpl == msg.tmpl) continue;
      if (!rules_->Has(msg.tmpl, other.tmpl)) continue;
      bool matched = false;
      for (const core::LocationId la : msg.locs) {
        for (const core::LocationId lb : other.locs) {
          if (dict_->SpatiallyMatched(la, lb)) {
            matched = true;
            break;
          }
        }
        if (matched) break;
      }
      if (msg.locs.empty() && other.locs.empty()) matched = true;
      if (!matched) continue;
      fired_rules->push_back(core::MiningStats::PairKey(msg.tmpl, other.tmpl));
      out->push_back({msg.raw_index, other.seq});
    }
    window.push_back({msg.raw_index, msg.time, msg.tmpl, msg.locs});
  }

 private:
  struct Entry {
    std::size_t seq;
    TimeMs time;
    core::TemplateId tmpl;
    std::vector<core::LocationId> locs;
  };

  const core::RuleBase* rules_;
  TimeMs window_ms_;
  const core::LocationDict* dict_;
  std::unordered_map<std::uint32_t, std::deque<Entry>> windows_;
};

struct World {
  World() {
    sim::DatasetSpec spec = sim::DatasetASpec();
    spec.topo.num_routers = 8;
    const sim::Dataset history = sim::GenerateDataset(spec, 0, 3, 1501);
    std::vector<net::ParsedConfig> parsed;
    for (const std::string& cfg : history.configs) {
      parsed.push_back(net::ParseConfig(cfg));
    }
    dict = core::LocationDict::Build(parsed);
    kb_text = core::OfflineLearner().Learn(history.messages, dict).Serialize();
  }

  core::LocationDict dict;
  std::string kb_text;
};

World& SharedWorld() {
  static World world;
  return world;
}

constexpr TimeMs kWindowMs = 60 * kMsPerSecond;
constexpr std::uint32_t kTemplates = 8;

// One random stream's shape.
struct StreamSpec {
  std::uint64_t seed = 1;
  std::size_t messages = 4000;
  int configured_routers = 3;
  int unconfigured_routers = 2;
  // Share of configured-router messages whose first location is below
  // router level.
  double off_router_share = 0.2;
};

// Every location of each dictionary router, router-level first.
std::vector<std::vector<core::LocationId>> LocationsByRouter(
    const core::LocationDict& dict) {
  std::vector<std::vector<core::LocationId>> out(dict.router_count());
  for (core::DictRouterId r = 0; r < dict.router_count(); ++r) {
    out[r].push_back(dict.RouterLocation(r));
  }
  for (core::LocationId id = 0; id < dict.size(); ++id) {
    const core::Location& loc = dict.Get(id);
    if (loc.level == core::LocLevel::kRouter || loc.router >= out.size()) {
      continue;
    }
    out[loc.router].push_back(id);
  }
  return out;
}

std::vector<core::Augmented> RandomStream(const StreamSpec& spec,
                                          const core::LocationDict& dict) {
  const auto by_router = LocationsByRouter(dict);
  Rng rng(spec.seed);
  std::vector<core::Augmented> out;
  TimeMs t = 1'000'000;
  for (std::size_t i = 0; i < spec.messages; ++i) {
    // Mostly a dense storm; now and then a gap that lets the tracker
    // sweep while the window still holds entries, or one that empties it.
    const double gap = rng.UniformReal();
    if (gap < 0.004) {
      t += rng.UniformInt(35 * kMsPerSecond, 55 * kMsPerSecond);
    } else if (gap < 0.006) {
      t += rng.UniformInt(kWindowMs + 1, 2 * kWindowMs);
    } else {
      t += rng.UniformInt(0, 200);
    }
    core::Augmented msg;
    msg.time = t;
    msg.raw_index = i;
    msg.tmpl = static_cast<core::TemplateId>(rng.Index(kTemplates));
    const int routers = spec.configured_routers + spec.unconfigured_routers;
    const int r = static_cast<int>(rng.UniformInt(0, routers - 1));
    if (r < spec.configured_routers) {
      msg.router_key = static_cast<std::uint32_t>(r);
      msg.router_known = true;
      const std::vector<core::LocationId>* locs_of = &by_router[r];
      if (rng.UniformReal() < spec.off_router_share) {
        // Hand-built: led by a location below router level, on this or
        // another configured router, so the spatial check can fail.
        locs_of = &by_router[rng.Index(
            static_cast<std::size_t>(spec.configured_routers))];
        msg.locs.push_back((*locs_of)[1 + rng.Index(locs_of->size() - 1)]);
      } else {
        msg.locs.push_back(locs_of->front());
      }
      const std::vector<core::LocationId>& locs = *locs_of;
      const std::size_t extra = rng.Index(3);
      for (std::size_t k = 0; k < extra && locs.size() > 1; ++k) {
        msg.locs.push_back(locs[1 + rng.Index(locs.size() - 1)]);
      }
    } else {
      msg.router_key = static_cast<std::uint32_t>(dict.router_count() + r);
    }
    out.push_back(std::move(msg));
  }
  return out;
}

// A rule base over templates [0, kTemplates): random pairs, a self-rule,
// and expert edits applied before the run.
core::RuleBase RandomRules(std::uint64_t seed) {
  Rng rng(seed);
  core::RuleBase rules;
  for (int k = 0; k < 10; ++k) {
    const auto a = static_cast<core::TemplateId>(rng.Index(kTemplates));
    const auto b = static_cast<core::TemplateId>(rng.Index(kTemplates));
    if (a != b) rules.AddExpertRule(a, b);
  }
  rules.AddExpertRule(0, 0);  // a self-rule never groups
  rules.AddExpertRule(1, 2);
  rules.AddExpertRule(2, 3);
  rules.RemoveRule(2, 3);
  rules.RemoveRule(kTemplates - 1, 0);
  return rules;
}

// One side of the comparison: a rule window feeding its own tracker the
// way ShardedPipeline's merge step does.
template <typename Window>
struct Side {
  Side(const core::KnowledgeBase* kb, const core::LocationDict* dict)
      : window(&kb->rules, kWindowMs, dict),
        tracker(kb, dict, /*idle_close_ms=*/10 * kMsPerSecond,
                /*max_group_age_ms=*/45 * kMsPerSecond) {}

  // Returns the events the message closed and the rule keys it fired.
  std::vector<core::DigestEvent> Step(const core::Augmented& msg,
                                      std::set<std::uint64_t>* fired) {
    edges.clear();
    keys.clear();
    window.Feed(msg, &edges, &keys);
    edge_count += edges.size();
    fired->insert(keys.begin(), keys.end());
    std::vector<core::DigestEvent> events = tracker.Observe(msg.time);
    tracker.Add(msg);
    tracker.ApplyEdges(edges);
    tracker.NoteRules(keys);
    tracker.Touch(msg.raw_index, msg.time);
    return events;
  }

  Window window;
  GroupTracker tracker;
  std::vector<MergeEdge> edges;
  std::vector<std::uint64_t> keys;
  std::size_t edge_count = 0;
};

void ExpectSameEvents(const std::vector<core::DigestEvent>& got,
                      const std::vector<core::DigestEvent>& want,
                      const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].messages, want[i].messages) << where << " event " << i;
    EXPECT_EQ(got[i].Format(), want[i].Format()) << where << " event " << i;
    EXPECT_EQ(got[i].score, want[i].score) << where << " event " << i;
  }
}

struct Outcome {
  std::size_t indexed_edges = 0;
  std::size_t linear_edges = 0;
  std::size_t closed_mid_stream = 0;
};

// Drives both windows over `stream`.  With `restore_at`, the indexed
// window is rebuilt from its own snapshot after both trackers flush at
// that message, as a restart after Finish does.
Outcome Compare(const std::vector<core::Augmented>& stream,
                const core::KnowledgeBase& kb, std::size_t restore_at) {
  World& w = SharedWorld();
  Outcome outcome;
  Side<RuleStage> indexed(&kb, &w.dict);
  Side<LinearRuleWindow> linear(&kb, &w.dict);
  for (const core::Augmented& msg : stream) {
    if (msg.raw_index == restore_at) {
      ExpectSameEvents(indexed.tracker.Flush(), linear.tracker.Flush(),
                       "flush before restore");
      ckpt::Writer snap;
      const RuleStage* stages[] = {&indexed.window};
      RuleStage::SaveWindows(stages, &snap);
      indexed.window = RuleStage(&kb.rules, kWindowMs, &w.dict);
      ckpt::Reader r(snap.data());
      EXPECT_TRUE(RuleStage::LoadWindows(
          &r, [&](std::uint32_t) { return &indexed.window; }));
    }
    std::set<std::uint64_t> fired_indexed;
    std::set<std::uint64_t> fired_linear;
    const auto got = indexed.Step(msg, &fired_indexed);
    const auto want = linear.Step(msg, &fired_linear);
    const std::string where = "message " + std::to_string(msg.raw_index);
    ExpectSameEvents(got, want, where);
    EXPECT_EQ(fired_indexed, fired_linear) << where;
    outcome.closed_mid_stream += want.size();
    if (::testing::Test::HasFatalFailure()) return outcome;
  }
  ExpectSameEvents(indexed.tracker.Flush(), linear.tracker.Flush(),
                   "final flush");
  EXPECT_EQ(indexed.tracker.active_rule_count(),
            linear.tracker.active_rule_count());
  outcome.indexed_edges = indexed.edge_count;
  outcome.linear_edges = linear.edge_count;
  return outcome;
}

core::KnowledgeBase KbWithRules(std::uint64_t seed) {
  core::KnowledgeBase kb =
      core::KnowledgeBase::Deserialize(SharedWorld().kb_text);
  EXPECT_GE(kb.templates.size(), kTemplates);
  kb.rules = RandomRules(seed);
  return kb;
}

class RuleWindowOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RuleWindowOracle, IndexedWindowMatchesLinearScan) {
  const std::uint64_t seed = GetParam();
  const core::KnowledgeBase kb = KbWithRules(seed);
  StreamSpec spec;
  spec.seed = seed;
  const auto stream = RandomStream(spec, SharedWorld().dict);
  const Outcome outcome = Compare(stream, kb, /*restore_at=*/SIZE_MAX);
  EXPECT_GT(outcome.closed_mid_stream, 0u);
  // The join must actually stand in for entries.
  EXPECT_LT(outcome.indexed_edges, outcome.linear_edges);
}

TEST_P(RuleWindowOracle, RestoreAfterFlushMatchesLinearScan) {
  const std::uint64_t seed = GetParam();
  const core::KnowledgeBase kb = KbWithRules(seed);
  StreamSpec spec;
  spec.seed = seed + 100;
  spec.off_router_share = 0.0;
  const auto stream = RandomStream(spec, SharedWorld().dict);
  Compare(stream, kb, /*restore_at=*/stream.size() / 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleWindowOracle,
                         ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                           std::uint64_t{3}, std::uint64_t{4},
                                           std::uint64_t{5}));

// Rule edges per message over the second half of a 100k-message slgen
// stream from 20 unconfigured routers, at `msgs_per_vsec`.
double EdgesPerMessage(core::KnowledgeBase* kb,
                       const core::LocationDict& dict,
                       std::int64_t msgs_per_vsec) {
  constexpr std::uint64_t kMessages = 100000;
  loadgen::StreamOptions opts;
  opts.seed = 77;
  opts.routers = 20;
  opts.msgs_per_vsec = msgs_per_vsec;
  opts.epoch = sim::DatasetEpoch() + 3 * kMsPerDay;
  std::atomic<std::uint64_t> cursor{0};
  loadgen::Stream stream(opts, &cursor, kMessages);
  core::RouterResolver resolver(&dict);
  RuleStage stage(&kb->rules, kb->rule_params.window_ms, &dict);
  std::vector<MergeEdge> edges;
  std::vector<std::uint64_t> keys;
  std::size_t seq = 0;
  std::size_t counted_edges = 0;
  std::size_t counted_messages = 0;
  while (stream.RenderRound() > 0) {
    for (const loadgen::WireSlot& slot : stream.wire_slots()) {
      const auto rec = syslog::DecodeRfc3164(stream.SlotPayload(slot), 2009);
      if (!rec.has_value()) continue;
      const auto [key, known] = resolver.Resolve(rec->router);
      core::Augmented msg =
          core::AugmentWithRouting(*rec, seq, key, known, dict);
      msg.tmpl = kb->templates.MatchOrFallback(rec->code, rec->detail);
      edges.clear();
      keys.clear();
      stage.Feed(msg, &edges, &keys);
      if (seq >= kMessages / 2) {
        counted_edges += edges.size();
        ++counted_messages;
      }
      ++seq;
    }
  }
  return static_cast<double>(counted_edges) /
         static_cast<double>(counted_messages);
}

TEST(RuleWindowSize, EdgesPerMessageDoNotGrowWithTheWindow) {
  World& w = SharedWorld();
  core::KnowledgeBase kb = core::KnowledgeBase::Deserialize(w.kb_text);
  ASSERT_GT(kb.rules.size(), 0u);
  const double sparse = EdgesPerMessage(&kb, w.dict, 200);
  const double dense = EdgesPerMessage(&kb, w.dict, 2000);
  // A tenfold window must not mean more edges: one per joined list plus
  // one per entry newer than the join.
  EXPECT_GT(sparse, 0.0);
  EXPECT_LE(std::fabs(dense - sparse), 0.1 * std::max(dense, sparse))
      << "edges per message: " << sparse << " at 200 msgs/vsec, " << dense
      << " at 2000 msgs/vsec";
}

}  // namespace
}  // namespace sld::pipeline
