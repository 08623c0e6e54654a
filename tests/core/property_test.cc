// Property / fuzz tests: random inputs must never break invariants.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "core/learn.h"
#include "net/config_parser.h"
#include "sim/generator.h"
#include "syslog/archive.h"
#include "syslog/collector.h"
#include "syslog/wire.h"

namespace sld {
namespace {

std::string RandomToken(Rng& rng) {
  static const char* kAlphabet =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJ0123456789./:()-[],%*";
  const std::size_t len = 1 + rng.Index(12);
  std::string out;
  for (std::size_t i = 0; i < len; ++i) {
    out += kAlphabet[rng.Index(58)];
  }
  return out;
}

syslog::SyslogRecord RandomRecord(Rng& rng, TimeMs t) {
  syslog::SyslogRecord rec;
  rec.time = t;
  rec.router = "r" + std::to_string(rng.Index(5));
  rec.code = "F" + std::to_string(rng.Index(9)) + "-" +
             std::to_string(rng.Index(8)) + "-M" +
             std::to_string(rng.Index(9));
  const std::size_t words = 1 + rng.Index(10);
  for (std::size_t i = 0; i < words; ++i) {
    if (i > 0) rec.detail += ' ';
    rec.detail += RandomToken(rng);
  }
  return rec;
}

TEST(PropertyTest, RecordFormatParseRoundTripsRandomContent) {
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const syslog::SyslogRecord rec =
        RandomRecord(rng, rng.UniformInt(0, 4102444800000LL));
    const auto parsed = syslog::ParseRecordLine(FormatRecord(rec));
    ASSERT_TRUE(parsed.has_value()) << FormatRecord(rec);
    // Detail may normalize internal whitespace-free forms exactly.
    EXPECT_EQ(parsed->time / 1000, rec.time / 1000);
    EXPECT_EQ(parsed->router, rec.router);
    EXPECT_EQ(parsed->code, rec.code);
    EXPECT_EQ(parsed->detail, rec.detail);
  }
}

TEST(PropertyTest, WireDecodeNeverCrashesOnMutatedDatagrams) {
  Rng rng(2);
  std::size_t decoded = 0;
  for (int i = 0; i < 2000; ++i) {
    syslog::SyslogRecord rec = RandomRecord(
        rng, ToTimeMs(CivilTime{2009, 1 + static_cast<int>(rng.Index(12)),
                                1 + static_cast<int>(rng.Index(28)),
                                static_cast<int>(rng.Index(24)),
                                static_cast<int>(rng.Index(60)),
                                static_cast<int>(rng.Index(60)), 0}));
    std::string wire = syslog::EncodeRfc3164(rec);
    // Mutate a few random bytes.
    const std::size_t mutations = rng.Index(4);
    for (std::size_t m = 0; m < mutations; ++m) {
      wire[rng.Index(wire.size())] =
          static_cast<char>(rng.UniformInt(32, 126));
    }
    const auto out = syslog::DecodeRfc3164(wire, 2009);
    decoded += out.has_value();
    if (mutations == 0) {
      ASSERT_TRUE(out.has_value());
      EXPECT_EQ(out->detail, rec.detail);
    }
  }
  EXPECT_GT(decoded, 500u);  // most mutations are survivable or rejected
}

TEST(PropertyTest, CollectorOutputAlwaysSortedRandomArrivalOrder) {
  Rng rng(3);
  for (int round = 0; round < 20; ++round) {
    syslog::Collector collector(5000);
    std::vector<TimeMs> times;
    TimeMs t = 0;
    for (int i = 0; i < 200; ++i) {
      t += rng.UniformInt(0, 3000);
      times.push_back(t);
    }
    // Deliver with bounded shuffling (swap nearby elements).
    std::vector<TimeMs> delivery = times;
    for (std::size_t i = 0; i + 1 < delivery.size(); ++i) {
      if (rng.Bernoulli(0.5)) std::swap(delivery[i], delivery[i + 1]);
    }
    std::vector<TimeMs> released;
    for (const TimeMs at : delivery) {
      syslog::SyslogRecord rec;
      rec.time = at;
      rec.router = "r";
      rec.code = "A-1-B";
      collector.IngestRecord(rec);
      for (const auto& out : collector.Drain()) {
        released.push_back(out.time);
      }
    }
    for (const auto& out : collector.Flush()) released.push_back(out.time);
    for (std::size_t i = 1; i < released.size(); ++i) {
      ASSERT_LE(released[i - 1], released[i]);
    }
    ASSERT_EQ(released.size() + collector.late_count(), times.size());
  }
}

TEST(PropertyTest, DigesterTotalOnRandomGarbageStream) {
  // A digester with an empty knowledge base and dictionary must still
  // partition any stream completely and without crashing.
  Rng rng(4);
  core::LocationDict dict = core::LocationDict::Build({});
  core::KnowledgeBase kb;
  std::vector<syslog::SyslogRecord> stream;
  TimeMs t = 0;
  for (int i = 0; i < 3000; ++i) {
    t += rng.UniformInt(0, 10000);
    stream.push_back(RandomRecord(rng, t));
  }
  core::Digester digester(&kb, &dict);
  const core::DigestResult result = digester.Digest(stream);
  std::size_t total = 0;
  for (const auto& ev : result.events) total += ev.messages.size();
  EXPECT_EQ(total, stream.size());
  EXPECT_GT(result.events.size(), 0u);
}

TEST(PropertyTest, ExtractorOnlyReturnsDictionaryLocations) {
  // Random text against a real dictionary: every returned location id is
  // valid and the first is always the originating router.
  sim::DatasetSpec spec = sim::DatasetASpec();
  spec.topo.num_routers = 6;
  const sim::Dataset ds = sim::GenerateDataset(spec, 0, 1, 55);
  std::vector<net::ParsedConfig> parsed;
  for (const std::string& cfg : ds.configs) {
    parsed.push_back(net::ParseConfig(cfg));
  }
  const core::LocationDict dict = core::LocationDict::Build(parsed);
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const std::string router = ds.topo.routers[rng.Index(6)].name;
    std::string detail;
    for (std::size_t w = 0; w < 1 + rng.Index(8); ++w) {
      if (!detail.empty()) detail += ' ';
      detail += RandomToken(rng);
    }
    const auto locs = dict.Extract(*dict.RouterByName(router), detail);
    ASSERT_FALSE(locs.empty());
    for (const auto loc : locs) {
      ASSERT_LT(loc, dict.size());
    }
    EXPECT_EQ(dict.Get(locs[0]).name, router);
    // Deduplicated.
    std::set<core::LocationId> unique(locs.begin(), locs.end());
    EXPECT_EQ(unique.size(), locs.size());
  }
}

TEST(PropertyTest, KnowledgeBaseRoundTripOnLearnedState) {
  sim::DatasetSpec spec = sim::DatasetBSpec();
  spec.topo.num_routers = 8;
  const sim::Dataset ds = sim::GenerateDataset(spec, 0, 3, 66);
  std::vector<net::ParsedConfig> parsed;
  for (const std::string& cfg : ds.configs) {
    parsed.push_back(net::ParseConfig(cfg));
  }
  const core::LocationDict dict = core::LocationDict::Build(parsed);
  core::OfflineLearner learner;
  const core::KnowledgeBase kb = learner.Learn(ds.messages, dict);
  const std::string once = kb.Serialize();
  const std::string twice =
      core::KnowledgeBase::Deserialize(once).Serialize();
  EXPECT_EQ(once, twice);
}

TEST(PropertyTest, ArchiveRoundTripsGeneratedDatasets) {
  sim::DatasetSpec spec = sim::DatasetASpec();
  spec.topo.num_routers = 6;
  const sim::Dataset ds = sim::GenerateDataset(spec, 0, 1, 77);
  std::stringstream buffer;
  syslog::WriteArchive(buffer, ds.messages);
  std::size_t malformed = 0;
  const auto restored = syslog::ReadArchive(buffer, &malformed);
  EXPECT_EQ(malformed, 0u);
  ASSERT_EQ(restored.size(), ds.messages.size());
  for (std::size_t i = 0; i < restored.size(); ++i) {
    // Archive granularity is one second.
    EXPECT_EQ(restored[i].time / 1000, ds.messages[i].time / 1000);
    EXPECT_EQ(restored[i].detail, ds.messages[i].detail);
  }
}

TEST(PropertyTest, ConfigParserSurvivesMutatedConfigs) {
  sim::DatasetSpec spec = sim::DatasetASpec();
  spec.topo.num_routers = 4;
  const sim::Dataset ds = sim::GenerateDataset(spec, 0, 1, 88);
  Rng rng(9);
  std::size_t parsed_ok = 0;
  for (int round = 0; round < 300; ++round) {
    std::string cfg = ds.configs[rng.Index(ds.configs.size())];
    const std::size_t mutations = 1 + rng.Index(8);
    for (std::size_t m = 0; m < mutations; ++m) {
      switch (rng.Index(3)) {
        case 0:  // flip a byte
          cfg[rng.Index(cfg.size())] =
              static_cast<char>(rng.UniformInt(32, 126));
          break;
        case 1:  // delete a chunk
          cfg.erase(rng.Index(cfg.size()),
                    rng.Index(20) + 1);
          break;
        default:  // duplicate a chunk
          cfg.insert(rng.Index(cfg.size()),
                     cfg.substr(rng.Index(cfg.size() / 2), rng.Index(30)));
          break;
      }
    }
    try {
      const net::ParsedConfig out = net::ParseConfig(cfg);
      parsed_ok += !out.hostname.empty();
    } catch (const std::runtime_error&) {
      // Acceptable: dialect or hostname destroyed.
    }
  }
  EXPECT_GT(parsed_ok, 200u);  // most mutations keep the config parseable
}

}  // namespace
}  // namespace sld
