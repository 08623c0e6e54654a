// Golden event stream: an oracle for the digest stage that does not
// depend on any other driver.
//
// One fixed seeded dataset-A day is digested through the batch path
// (pipeline::Digest) and through the live path (IngestRecord / Pump /
// Finish with a sink) at 1 and 4 shards.  The live path runs twice: at
// the default horizon (S_max + W, where the engine's 24 h max age splits
// one day-long train) and at a 600 s idle horizon with a 1 h max age.
// Both close groups mid-stream, on the tracker's 30 s sweep cadence.
// Every run must reproduce the committed golden file line for line: the
// formatted event, its score, (batch) the message and active-rule
// counts, and (finite horizons) how many groups closed for each reason.
//
// The dense leg digests slgen's message mix (loadgen::Stream) from
// routers absent from the configs through the batch path at the same
// shard counts: no message carries a location, and each router's rule
// window holds about 1,200 entries, so it pins the storm path that the
// dataset-A day never reaches.
//
// Regenerate only when an event-visible change is intended:
//   SLD_UPDATE_GOLDEN=1 build/tests/golden_test
// rewrites tests/engine/golden_events.txt from the 1-shard runs.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "core/learn.h"
#include "engine/engine.h"
#include "loadgen/loadgen.h"
#include "net/config_parser.h"
#include "obs/registry.h"
#include "pipeline/pipeline.h"
#include "sim/generator.h"
#include "syslog/wire.h"

namespace sld::engine {
namespace {

struct World {
  World() {
    sim::DatasetSpec spec = sim::DatasetASpec();
    spec.topo.num_routers = 8;
    history = sim::GenerateDataset(spec, 0, 3, 1401);
    live = sim::GenerateDataset(spec, 3, 1, 1402);
    std::vector<net::ParsedConfig> parsed;
    for (const std::string& cfg : history.configs) {
      parsed.push_back(net::ParseConfig(cfg));
    }
    dict = core::LocationDict::Build(parsed);
    core::OfflineLearner learner;
    kb_text = learner.Learn(history.messages, dict).Serialize();
  }

  sim::Dataset history;
  sim::Dataset live;
  core::LocationDict dict;
  std::string kb_text;
};

World& SharedWorld() {
  static World world;
  return world;
}

// The dense leg's stream: 10 unconfigured routers at 200 messages per
// virtual second, so each router's 60 s rule window holds about 1,200
// entries once the stream is a minute old.
constexpr int kDenseRouters = 10;
constexpr std::int64_t kDenseMsgsPerVsec = 200;
constexpr std::uint64_t kDenseMessages = 25000;

std::vector<syslog::SyslogRecord> DenseRecords() {
  loadgen::StreamOptions opts;
  opts.seed = 1403;
  opts.routers = kDenseRouters;
  opts.msgs_per_vsec = kDenseMsgsPerVsec;
  opts.epoch = sim::DatasetEpoch() + 3 * kMsPerDay;
  std::atomic<std::uint64_t> cursor{0};
  loadgen::Stream stream(opts, &cursor, kDenseMessages);
  std::vector<syslog::SyslogRecord> records;
  records.reserve(kDenseMessages);
  while (stream.RenderRound() > 0) {
    for (const loadgen::WireSlot& slot : stream.wire_slots()) {
      auto rec = syslog::DecodeRfc3164(stream.SlotPayload(slot), 2009);
      if (rec.has_value()) records.push_back(std::move(*rec));
    }
  }
  return records;
}

// One event per line: "score|start|end|locations|label|N messages".
// %.17g round-trips a double exactly; the comparison below still allows
// a relative 1e-12 so a libm with a different last-ulp log() passes.
std::string Line(const core::DigestEvent& ev) {
  char score[40];
  std::snprintf(score, sizeof(score), "%.17g", ev.score);
  return std::string(score) + "|" + ev.Format();
}

// The golden file's sections, in file order.
struct Golden {
  std::string batch_header;
  std::vector<std::string> batch;
  std::vector<std::string> live;
  std::string horizons_header;
  std::vector<std::string> horizons;
  std::string dense_header;
  std::vector<std::string> dense;
};

constexpr TimeMs kIdleCloseMs = 600 * kMsPerSecond;
constexpr TimeMs kMaxGroupAgeMs = kMsPerHour;

// Digests `records` through pipeline::Digest; the header names the leg
// and pins its message, active-rule and event counts.
void RunBatch(std::size_t shards,
              std::span<const syslog::SyslogRecord> records,
              const std::string& leg, std::string* header,
              std::vector<std::string>* lines) {
  World& w = SharedWorld();
  core::KnowledgeBase kb = core::KnowledgeBase::Deserialize(w.kb_text);
  pipeline::PipelineOptions opts;
  opts.shards = shards;
  const core::DigestResult result =
      pipeline::Digest(&kb, &w.dict, records, opts);
  *header = "# " + leg + " messages=" +
            std::to_string(result.message_count) + " active_rules=" +
            std::to_string(result.active_rule_count) +
            " events=" + std::to_string(result.events.size());
  for (const core::DigestEvent& ev : result.events) {
    lines->push_back(Line(ev));
  }
}

// Zero horizons keep the engine defaults.  With `header`, the run also
// reports its event count and the tracker's closes by reason.
std::vector<std::string> RunLive(std::size_t shards, TimeMs idle_close_ms,
                                 TimeMs max_group_age_ms,
                                 std::string* header) {
  World& w = SharedWorld();
  core::KnowledgeBase kb = core::KnowledgeBase::Deserialize(w.kb_text);
  obs::Registry reg;
  EngineOptions opts;
  opts.shards = shards;
  if (idle_close_ms > 0) opts.idle_close_ms = idle_close_ms;
  if (max_group_age_ms > 0) opts.max_group_age_ms = max_group_age_ms;
  opts.metrics = &reg;
  std::vector<std::string> lines;
  {
    Engine eng(&kb, &w.dict, opts);
    eng.SetEventSink([&lines](const core::DigestEvent& ev) {
      lines.push_back(Line(ev));
    });
    std::size_t fed = 0;
    for (const auto& rec : w.live.messages) {
      eng.IngestRecord(rec);
      if (++fed % 16 == 0) eng.Pump();
    }
    eng.Finish();
  }
  if (header != nullptr) {
    std::string closes;
    for (const obs::SeriesSnapshot& s : reg.Collect().series) {
      if (s.name != "tracker_groups_closed_total") continue;
      for (const auto& [key, value] : s.labels) {
        if (key == "reason") {
          closes += " closed_" + value + "=" + std::to_string(s.ivalue);
        }
      }
    }
    *header = "# horizons idle_s=" +
              std::to_string(idle_close_ms / kMsPerSecond) +
              " max_age_s=" +
              std::to_string(max_group_age_ms / kMsPerSecond) +
              " events=" + std::to_string(lines.size()) + closes;
  }
  return lines;
}

Golden RunBoth(std::size_t shards) {
  Golden g;
  RunBatch(shards, SharedWorld().live.messages, "batch", &g.batch_header,
           &g.batch);
  g.live = RunLive(shards, 0, 0, nullptr);
  g.horizons = RunLive(shards, kIdleCloseMs, kMaxGroupAgeMs,
                       &g.horizons_header);
  RunBatch(shards, DenseRecords(), "dense", &g.dense_header, &g.dense);
  return g;
}

const char* GoldenPath() { return SLD_GOLDEN_DIR "/golden_events.txt"; }

void WriteGolden(const Golden& g) {
  std::ofstream out(GoldenPath());
  out << g.batch_header << '\n';
  for (const std::string& line : g.batch) out << line << '\n';
  out << "# live events=" << g.live.size() << '\n';
  for (const std::string& line : g.live) out << line << '\n';
  out << g.horizons_header << '\n';
  for (const std::string& line : g.horizons) out << line << '\n';
  out << g.dense_header << '\n';
  for (const std::string& line : g.dense) out << line << '\n';
}

Golden ReadGolden() {
  std::ifstream in(GoldenPath());
  Golden g;
  std::string line;
  std::vector<std::string>* section = nullptr;
  while (std::getline(in, line)) {
    if (line.rfind("# batch", 0) == 0) {
      g.batch_header = line;
      section = &g.batch;
    } else if (line.rfind("# live", 0) == 0) {
      section = &g.live;
    } else if (line.rfind("# horizons", 0) == 0) {
      g.horizons_header = line;
      section = &g.horizons;
    } else if (line.rfind("# dense", 0) == 0) {
      g.dense_header = line;
      section = &g.dense;
    } else if (section != nullptr) {
      section->push_back(line);
    }
  }
  return g;
}

// Splits "score|rest" and compares rest exactly, score within 1e-12.
void ExpectSameLines(const std::vector<std::string>& got,
                     const std::vector<std::string>& want,
                     const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::size_t gs = got[i].find('|');
    const std::size_t ws = want[i].find('|');
    ASSERT_NE(gs, std::string::npos) << what << " line " << i;
    ASSERT_NE(ws, std::string::npos) << what << " line " << i;
    EXPECT_EQ(got[i].substr(gs), want[i].substr(ws))
        << what << " line " << i;
    const double a = std::strtod(got[i].c_str(), nullptr);
    const double b = std::strtod(want[i].c_str(), nullptr);
    EXPECT_LE(std::fabs(a - b), 1e-12 * std::fabs(b))
        << what << " line " << i << ": score " << a << " vs " << b;
  }
}

class GoldenEventsTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenEventsTest, BatchAndLiveMatchGolden) {
  const std::size_t shards = GetParam();
  const Golden got = RunBoth(shards);
  if (std::getenv("SLD_UPDATE_GOLDEN") != nullptr && shards == 1) {
    WriteGolden(got);
  }
  const Golden want = ReadGolden();
  ASSERT_FALSE(want.batch.empty()) << "missing or empty " << GoldenPath();
  ASSERT_FALSE(want.live.empty()) << GoldenPath();
  ASSERT_FALSE(want.horizons.empty()) << GoldenPath();
  ASSERT_FALSE(want.dense.empty()) << GoldenPath();
  EXPECT_EQ(got.batch_header, want.batch_header);
  EXPECT_EQ(got.horizons_header, want.horizons_header);
  EXPECT_EQ(got.dense_header, want.dense_header);
  ExpectSameLines(got.batch, want.batch, "batch");
  ExpectSameLines(got.live, want.live, "live");
  ExpectSameLines(got.horizons, want.horizons, "horizons");
  ExpectSameLines(got.dense, want.dense, "dense");
  // The dense leg exists to exercise rule grouping under a storm.
  EXPECT_EQ(got.dense_header.find(" active_rules=0 "), std::string::npos)
      << got.dense_header;
}

INSTANTIATE_TEST_SUITE_P(Shards, GoldenEventsTest,
                         ::testing::Values(std::size_t{1}, std::size_t{4}));

}  // namespace
}  // namespace sld::engine
