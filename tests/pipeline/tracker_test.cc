// GroupTracker against a brute-force reference of its close rule, the
// bounds its idle index and slot reuse promise, and LoadState's refusal
// of malformed snapshot bodies.
//
// The reference keeps a group label per message and the two clocks per
// label.  At each sweep (the same 30 s bucket cadence, computed here) it
// checks every open group's clocks and collects a closing group's members
// in arrival order, as the tracker did before it kept an idle index and
// member lists.  Seeded random sequences of Add, ApplyEdges, Touch and
// Observe (with a checkpoint round trip halfway) drive both at idle and
// max-age horizons of 10 s, 600 s and unbounded: the events, their
// order, their scores and the closes by reason must agree.
#include "pipeline/tracker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/codec.h"
#include "common/rng.h"
#include "core/augment.h"
#include "core/learn.h"
#include "net/config_parser.h"
#include "obs/registry.h"
#include "sim/generator.h"

namespace sld::pipeline {
namespace {

// A learned network and one live day of augmented messages: real
// payloads for events; the tests set each message's time and sequence.
struct World {
  World() {
    sim::DatasetSpec spec = sim::DatasetASpec();
    spec.topo.num_routers = 6;
    const sim::Dataset history = sim::GenerateDataset(spec, 0, 3, 1601);
    const sim::Dataset live = sim::GenerateDataset(spec, 3, 1, 1602);
    std::vector<net::ParsedConfig> parsed;
    for (const std::string& cfg : history.configs) {
      parsed.push_back(net::ParseConfig(cfg));
    }
    dict = core::LocationDict::Build(parsed);
    kb = core::OfflineLearner().Learn(history.messages, dict);
    core::Augmenter augmenter(&kb.templates, &dict);
    for (std::size_t i = 0; i < live.messages.size(); ++i) {
      payloads.push_back(augmenter.Augment(live.messages[i], i));
    }
  }

  core::Augmented Message(std::size_t seq, TimeMs t) const {
    core::Augmented msg = payloads[seq % payloads.size()];
    msg.raw_index = seq;
    msg.time = t;
    return msg;
  }

  core::LocationDict dict;
  core::KnowledgeBase kb;
  std::vector<core::Augmented> payloads;
};

World& SharedWorld() {
  static World world;
  return world;
}

// Closes by reason.
struct Closes {
  std::int64_t idle = 0;
  std::int64_t max_age = 0;
  std::int64_t flush = 0;
};

Closes TrackerCloses(const obs::Registry& reg) {
  Closes out;
  for (const obs::SeriesSnapshot& s : reg.Collect().series) {
    if (s.name != "tracker_groups_closed_total") continue;
    for (const auto& [key, value] : s.labels) {
      if (key != "reason") continue;
      if (value == "idle") out.idle += s.ivalue;
      if (value == "max_age") out.max_age += s.ivalue;
      if (value == "flush") out.flush += s.ivalue;
    }
  }
  return out;
}

// The close rule by brute force.
class Reference {
 public:
  Reference(const World* world, TimeMs idle_close_ms, TimeMs max_age_ms)
      : world_(world), idle_ms_(idle_close_ms), max_age_ms_(max_age_ms) {}

  std::vector<core::DigestEvent> Observe(TimeMs now) {
    std::vector<core::DigestEvent> events;
    if (Bucket(now) > Bucket(clock_)) events = Sweep(now, false);
    clock_ = std::max(clock_, now);
    return events;
  }

  void Add(const core::Augmented& msg) {
    msgs_.push_back(msg);
    label_.push_back(msgs_.size() - 1);
    open_.push_back(true);
    clocks_[msgs_.size() - 1] = {msg.time, msg.time};
  }

  void Merge(std::size_t a, std::size_t b) {
    if (!IsOpen(a) || !IsOpen(b) || label_[a] == label_[b]) return;
    const std::size_t into = label_[a];
    const std::size_t from = label_[b];
    for (std::size_t& label : label_) {
      if (label == from) label = into;
    }
    Clocks& c = clocks_[into];
    c.first = std::min(c.first, clocks_[from].first);
    c.last = std::max(c.last, clocks_[from].last);
    clocks_.erase(from);
  }

  void Touch(std::size_t seq, TimeMs t) {
    if (IsOpen(seq)) clocks_[label_[seq]].last = t;
  }

  bool SameGroup(std::size_t a, std::size_t b) const {
    return IsOpen(a) && IsOpen(b) && label_[a] == label_[b];
  }

  std::vector<core::DigestEvent> Flush() { return Sweep(clock_, true); }

  std::size_t open_groups() const { return clocks_.size(); }
  std::size_t open_messages() const {
    return static_cast<std::size_t>(
        std::count(open_.begin(), open_.end(), true));
  }
  const Closes& closes() const { return closes_; }

 private:
  struct Clocks {
    TimeMs first = 0;
    TimeMs last = 0;
  };

  static TimeMs Bucket(TimeMs t) {
    constexpr TimeMs kWidth = 30 * kMsPerSecond;
    return t >= 0 ? t / kWidth : -((-(t + 1)) / kWidth) - 1;
  }

  bool IsOpen(std::size_t seq) const {
    return seq < msgs_.size() && open_[seq];
  }

  std::vector<core::DigestEvent> Sweep(TimeMs now, bool flushing) {
    std::vector<std::size_t> closing;
    for (const auto& [label, c] : clocks_) {
      if (flushing) {
        ++closes_.flush;
      } else if (now - c.last > idle_ms_) {
        ++closes_.idle;
      } else if (now - c.first > max_age_ms_) {
        ++closes_.max_age;
      } else {
        continue;
      }
      closing.push_back(label);
    }
    std::vector<core::DigestEvent> events;
    for (const std::size_t label : closing) {
      std::vector<const core::Augmented*> members;
      for (std::size_t i = 0; i < msgs_.size(); ++i) {
        if (!open_[i] || label_[i] != label) continue;
        members.push_back(&msgs_[i]);
        open_[i] = false;
      }
      events.push_back(core::BuildEvent(members, world_->kb, world_->dict));
      clocks_.erase(label);
    }
    std::sort(events.begin(), events.end(),
              [](const core::DigestEvent& a, const core::DigestEvent& b) {
                if (a.start != b.start) return a.start < b.start;
                return a.messages.front() < b.messages.front();
              });
    return events;
  }

  const World* world_;
  TimeMs idle_ms_;
  TimeMs max_age_ms_;
  std::vector<core::Augmented> msgs_;
  std::vector<std::size_t> label_;
  std::vector<bool> open_;
  std::map<std::size_t, Clocks> clocks_;
  TimeMs clock_ = INT64_MIN;
  Closes closes_;
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

// A stream-time step: mostly inside one bucket, sometimes past a 10 s or
// 600 s horizon, now and then past every horizon but the unbounded one.
TimeMs Gap(Rng& rng) {
  const double r = rng.UniformReal();
  if (r < 0.70) return rng.UniformInt(0, 2 * kMsPerSecond);
  if (r < 0.90) return rng.UniformInt(2 * kMsPerSecond, 12 * kMsPerSecond);
  if (r < 0.97) return rng.UniformInt(12 * kMsPerSecond, 90 * kMsPerSecond);
  if (r < 0.995) {
    return rng.UniformInt(90 * kMsPerSecond, 900 * kMsPerSecond);
  }
  return rng.UniformInt(900 * kMsPerSecond, 3 * kMsPerHour);
}

// The other endpoint of an edge from message `seq`: mostly a recent
// message, sometimes any earlier one, rarely one not yet seen.
std::size_t Partner(Rng& rng, std::size_t seq) {
  const double r = rng.UniformReal();
  if (r < 0.65) return seq - 1 - rng.Index(std::min<std::size_t>(seq, 8));
  if (r < 0.95) return rng.Index(seq + 1);
  return seq + 1 + rng.Index(5);
}

struct Horizons {
  const char* name;
  TimeMs idle_close_ms;
  TimeMs max_age_ms;
};

class TrackerOracle : public ::testing::TestWithParam<Horizons> {};

TEST_P(TrackerOracle, MatchesBruteForceClose) {
  constexpr std::size_t kMessages = 2500;
  const Horizons h = GetParam();
  World& w = SharedWorld();
  for (const std::uint64_t seed : {1u, 2u}) {
    Rng rng(seed);
    obs::Registry reg;
    auto tracker = std::make_unique<GroupTracker>(&w.kb, &w.dict,
                                                  h.idle_close_ms,
                                                  h.max_age_ms);
    tracker->BindMetrics(&reg);
    Reference ref(&w, h.idle_close_ms, h.max_age_ms);
    TimeMs t = 1'250'000'000'000 + rng.UniformInt(0, kMsPerMinute);
    std::size_t closed_mid_stream = 0;
    for (std::size_t seq = 0; seq < kMessages; ++seq) {
      const std::string where =
          "seed " + std::to_string(seed) + " message " + std::to_string(seq);
      if (seq == kMessages / 2) {
        // A checkpoint round trip rebuilds the lists and the index.
        ckpt::Writer out;
        tracker->SaveState(&out);
        tracker = std::make_unique<GroupTracker>(&w.kb, &w.dict,
                                                 h.idle_close_ms,
                                                 h.max_age_ms);
        tracker->BindMetrics(&reg);
        ckpt::Reader in(out.data());
        ASSERT_TRUE(tracker->LoadState(&in)) << where;
      }
      t += Gap(rng);
      const auto want = ref.Observe(t);
      ExpectSameEvents(tracker->Observe(t), want, where);
      closed_mid_stream += want.size();
      const core::Augmented msg = w.Message(seq, t);
      tracker->Add(msg);
      ref.Add(msg);
      std::vector<MergeEdge> edges;
      const std::size_t n_edges = rng.Index(4);
      for (std::size_t k = 0; k < n_edges; ++k) {
        if (rng.UniformReal() < 0.25) {
          // Two earlier messages: merges two groups that are not new.
          edges.push_back({Partner(rng, seq), Partner(rng, seq)});
        } else {
          edges.push_back({seq, Partner(rng, seq)});
        }
      }
      tracker->ApplyEdges(edges);
      for (const MergeEdge& e : edges) ref.Merge(e.a, e.b);
      // Mostly the merge step's Touch; without it a merged group keeps
      // the clocks its parts had.
      if (rng.UniformReal() < 0.8) {
        tracker->Touch(seq, t);
        ref.Touch(seq, t);
      }
      if (rng.UniformReal() < 0.1) {
        const std::size_t other = rng.Index(seq + 1);
        tracker->Touch(other, t);
        ref.Touch(other, t);
      }
      const std::size_t a = rng.Index(seq + 1);
      const std::size_t b = rng.Index(seq + 1);
      ASSERT_EQ(tracker->SameGroup(a, b), ref.SameGroup(a, b)) << where;
      ASSERT_EQ(tracker->open_group_count(), ref.open_groups()) << where;
      ASSERT_EQ(tracker->open_message_count(), ref.open_messages()) << where;
      if (::testing::Test::HasFatalFailure()) return;
    }
    ExpectSameEvents(tracker->Flush(), ref.Flush(), "final flush");
    const Closes got = TrackerCloses(reg);
    EXPECT_EQ(got.idle, ref.closes().idle) << "seed " << seed;
    EXPECT_EQ(got.max_age, ref.closes().max_age) << "seed " << seed;
    EXPECT_EQ(got.flush, ref.closes().flush) << "seed " << seed;
    if (h.idle_close_ms != GroupTracker::kUnboundedMs ||
        h.max_age_ms != GroupTracker::kUnboundedMs) {
      EXPECT_GT(closed_mid_stream, 0u) << "seed " << seed;
    }
  }
}

constexpr TimeMs kNever = GroupTracker::kUnboundedMs;

INSTANTIATE_TEST_SUITE_P(
    Horizons, TrackerOracle,
    ::testing::Values(
        Horizons{"idle10s_age10s", 10 * kMsPerSecond, 10 * kMsPerSecond},
        Horizons{"idle10s_age600s", 10 * kMsPerSecond, 600 * kMsPerSecond},
        Horizons{"idle10s_ageNever", 10 * kMsPerSecond, kNever},
        Horizons{"idle600s_age10s", 600 * kMsPerSecond, 10 * kMsPerSecond},
        Horizons{"idle600s_age600s", 600 * kMsPerSecond,
                 600 * kMsPerSecond},
        Horizons{"idle600s_ageNever", 600 * kMsPerSecond, kNever},
        Horizons{"idleNever_age10s", kNever, 10 * kMsPerSecond},
        Horizons{"idleNever_age600s", kNever, 600 * kMsPerSecond},
        Horizons{"idleNever_ageNever", kNever, kNever}),
    [](const ::testing::TestParamInfo<Horizons>& info) {
      return std::string(info.param.name);
    });

// One message a second for six hours with no 30 s gap, so only the
// bucket cadence can close anything.  `run` messages in a row are linked
// (0: all of them, one never-ending train that only the max age closes).
struct SteadyOutcome {
  std::size_t closed_before_flush = 0;
  std::size_t flushed = 0;
  std::size_t peak_open = 0;
  std::size_t slots = 0;
};

SteadyOutcome RunSteady(std::size_t run) {
  constexpr std::size_t kMessages = 6 * 3600;
  World& w = SharedWorld();
  GroupTracker tracker(&w.kb, &w.dict, /*idle_close_ms=*/kMsPerMinute,
                       /*max_group_age_ms=*/10 * kMsPerMinute);
  SteadyOutcome out;
  TimeMs t = 1'250'000'000'000;
  for (std::size_t seq = 0; seq < kMessages; ++seq) {
    t += kMsPerSecond;
    for (const auto& ev : tracker.Observe(t)) {
      out.closed_before_flush += ev.messages.size();
    }
    tracker.Add(w.Message(seq, t));
    if (seq > 0 && (run == 0 || seq % run != 0)) {
      tracker.ApplyEdges({{seq - 1, seq}});
    }
    tracker.Touch(seq, t);
    out.peak_open = std::max(out.peak_open, tracker.open_message_count());
  }
  out.slots = tracker.slot_count();
  for (const auto& ev : tracker.Flush()) out.flushed += ev.messages.size();
  EXPECT_EQ(out.closed_before_flush + out.flushed, kMessages);
  return out;
}

TEST(GroupTrackerBounds, SteadyStreamClosesIdleGroupsInPeakOpenSlots) {
  const SteadyOutcome out = RunSteady(/*run=*/5);
  EXPECT_GT(out.closed_before_flush, 0u);
  // Open: the 60 s horizon, one 30 s bucket, and one run.
  EXPECT_LE(out.peak_open, 60u + 30u + 5u + 1u);
  EXPECT_LE(out.slots, out.peak_open + 8);
}

TEST(GroupTrackerBounds, NeverEndingTrainClosesAtMaxAgeInPeakOpenSlots) {
  const SteadyOutcome out = RunSteady(/*run=*/0);
  EXPECT_GT(out.closed_before_flush, 0u);
  // Open: the 10 min max age plus one 30 s bucket.
  EXPECT_LE(out.peak_open, 600u + 30u + 1u);
  EXPECT_LE(out.slots, out.peak_open + 8);
}

// One open message in SaveState's layout.  v1 ends it with a location
// that LoadState reads and discards.
void PutMessage(const core::Augmented& msg, core::LocationId v1_location,
                ckpt::Writer* out) {
  out->I64(msg.time);
  out->U64(msg.raw_index);
  out->U32(msg.tmpl);
  out->U32(msg.router_key);
  out->U8(msg.router_known ? 1 : 0);
  out->U64(msg.locs.size());
  for (const core::LocationId loc : msg.locs) out->U32(loc);
  out->U32(v1_location);
}

// A tracker snapshot body over messages 0..n-1 (n = parents.size()), one
// group row per entry of `rows`, in SaveState's layout.
std::string TrackerBody(const std::vector<std::uint64_t>& parents,
                        const std::vector<std::uint64_t>& rows) {
  const World& w = SharedWorld();
  ckpt::Writer out;
  out.U64(parents.size());
  for (std::size_t i = 0; i < parents.size(); ++i) {
    PutMessage(
        w.Message(i, 1'250'000'000'000 + static_cast<TimeMs>(i) * 1000),
        core::kNoId, &out);
  }
  for (const std::uint64_t p : parents) out.U64(p);
  for (std::size_t i = 0; i < parents.size(); ++i) out.U64(1);
  out.U64(rows.size());
  for (const std::uint64_t root : rows) {
    out.U64(root);
    out.I64(1'250'000'000'000);
    out.I64(1'250'000'000'000 + 1000);
  }
  out.U64(0);  // fired rules
  out.U64(parents.size());
  out.I64(1'250'000'000'000 + 5000);
  return std::move(out).Take();
}

bool Loads(GroupTracker* tracker, const std::string& body) {
  ckpt::Reader in(body);
  return tracker->LoadState(&in);
}

TEST(GroupTrackerLoadState, RefusesMalformedForests) {
  World& w = SharedWorld();
  const auto refused = [&w](const std::vector<std::uint64_t>& parents,
                            const std::vector<std::uint64_t>& rows) {
    GroupTracker tracker(&w.kb, &w.dict, kMsPerMinute, kNever);
    return !Loads(&tracker, TrackerBody(parents, rows));
  };
  EXPECT_TRUE(refused({1, 0}, {0})) << "parents form a cycle";
  EXPECT_TRUE(refused({0, 2, 1}, {0})) << "a cycle beside a root";
  EXPECT_TRUE(refused({0, 0}, {1})) << "a row names a non-root";
  EXPECT_TRUE(refused({0, 1}, {0, 0})) << "a row repeats a root";
  EXPECT_TRUE(refused({0, 1}, {0})) << "a root has no row";
  EXPECT_TRUE(refused({0, 5}, {0, 1})) << "a parent out of range";
  EXPECT_TRUE(refused({0}, {3})) << "a row out of range";
}

// The v1 layout keeps, after each message's locations, its deepest-level
// location (the first on a tie).  Nothing reads it back, so the tracker
// computes it from the locations when it saves.
TEST(GroupTrackerSaveState, WritesDeepestLocationInV1Field) {
  World& w = SharedWorld();
  core::LocationId logical = core::kNoId;
  for (core::LocationId id = 0; id < w.dict.size(); ++id) {
    const core::Location& loc = w.dict.Get(id);
    if (loc.level == core::LocLevel::kLogicalIf && loc.parent != core::kNoId) {
      logical = id;
      break;
    }
  }
  ASSERT_NE(logical, core::kNoId);
  const core::Location& lif = w.dict.Get(logical);
  const TimeMs t = 1'250'000'000'000;
  core::Augmented msg = w.Message(0, t);
  msg.router_key = lif.router;
  msg.router_known = true;
  // Router, logical interface, then its port: the deepest is not last.
  msg.locs = {w.dict.RouterLocation(lif.router), logical, lif.parent};

  GroupTracker tracker(&w.kb, &w.dict, kMsPerMinute, kNever);
  tracker.Observe(t);
  tracker.Add(msg);
  ckpt::Writer saved;
  tracker.SaveState(&saved);

  ckpt::Writer want;
  want.U64(1);
  PutMessage(msg, logical, &want);
  want.U64(0);  // parent
  want.U64(1);  // group size
  want.U64(1);  // one group row
  want.U64(0);
  want.I64(t);
  want.I64(t);
  want.U64(0);  // fired rules
  want.U64(1);  // processed
  want.I64(t);  // clock
  EXPECT_EQ(std::move(saved).Take(), std::move(want).Take());
}

TEST(GroupTrackerLoadState, SoundForestRestoresItsGroups) {
  World& w = SharedWorld();
  GroupTracker tracker(&w.kb, &w.dict, kMsPerMinute, kNever);
  // {0, 1, 3} under root 0 (one member two hops down), {2} alone.
  ASSERT_TRUE(Loads(&tracker, TrackerBody({0, 0, 2, 1}, {0, 2})));
  EXPECT_EQ(tracker.open_group_count(), 2u);
  EXPECT_EQ(tracker.open_message_count(), 4u);
  EXPECT_TRUE(tracker.SameGroup(0, 3));
  EXPECT_FALSE(tracker.SameGroup(0, 2));
  const auto events = tracker.Flush();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].messages, (std::vector<std::size_t>{0, 1, 3}));
  EXPECT_EQ(events[1].messages, (std::vector<std::size_t>{2}));
}

}  // namespace
}  // namespace sld::pipeline
