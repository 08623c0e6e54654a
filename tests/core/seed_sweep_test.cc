// Stability sweep: the end-to-end pipeline's headline properties must
// hold across random seeds and both datasets, not just the seeds the
// other tests happen to use.
#include <gtest/gtest.h>

#include <set>

#include "core/learn.h"
#include "net/config_parser.h"
#include "pipeline/pipeline.h"
#include "sim/generator.h"

namespace sld::core {
namespace {

// gtest prints a Sweep as its raw bytes, and ctest puts that dump in each
// case's name.  The padding after `vendor` is an explicit zeroed member so
// the dump, and with it the name, is the same from run to run.
struct Sweep {
  Sweep(net::Vendor v, std::uint64_t s) : vendor(v), seed(s) {}
  net::Vendor vendor;
  std::uint8_t padding[7] = {};
  std::uint64_t seed;
};
static_assert(sizeof(Sweep) ==
                  sizeof(net::Vendor) + 7 + sizeof(std::uint64_t),
              "Sweep must have no implicit padding");

class SeedSweepTest : public ::testing::TestWithParam<Sweep> {};

TEST_P(SeedSweepTest, PipelinePropertiesHold) {
  sim::DatasetSpec spec = GetParam().vendor == net::Vendor::kV1
                              ? sim::DatasetASpec()
                              : sim::DatasetBSpec();
  spec.topo.num_routers = 10;
  spec.topo.seed = GetParam().seed;
  const sim::Dataset history =
      sim::GenerateDataset(spec, 0, 7, GetParam().seed * 31 + 1);
  const sim::Dataset live =
      sim::GenerateDataset(spec, 7, 1, GetParam().seed * 31 + 2);

  std::vector<net::ParsedConfig> parsed;
  for (const std::string& cfg : history.configs) {
    parsed.push_back(net::ParseConfig(cfg));
  }
  const LocationDict dict = LocationDict::Build(parsed);
  OfflineLearner learner;
  KnowledgeBase kb = learner.Learn(history.messages, dict);

  // Rules were learned...
  EXPECT_GT(kb.rules.size(), 5u);
  // ...templates recover the well-sampled ground truth...
  std::set<std::string> learned;
  for (const Template& tmpl : kb.templates.All()) {
    learned.insert(tmpl.Canonical());
  }
  std::size_t recovered = 0;
  std::size_t total = 0;
  for (const auto& [gt, count] : history.gt_templates) {
    if (count < 10) continue;
    ++total;
    recovered += learned.count(gt);
  }
  ASSERT_GT(total, 0u);
  EXPECT_GE(static_cast<double>(recovered) / static_cast<double>(total),
            0.85);

  // ...and the digest compresses by well over an order of magnitude while
  // partitioning every message exactly once.
  const DigestResult result = pipeline::Digest(&kb, &dict, live.messages);
  EXPECT_LT(result.CompressionRatio(), 0.06);
  std::size_t covered = 0;
  for (const DigestEvent& ev : result.events) covered += ev.messages.size();
  EXPECT_EQ(covered, live.messages.size());
  EXPECT_GT(result.active_rule_count, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SeedSweepTest,
    ::testing::Values(Sweep{net::Vendor::kV1, 3}, Sweep{net::Vendor::kV1, 17},
                      Sweep{net::Vendor::kV1, 59}, Sweep{net::Vendor::kV2, 5},
                      Sweep{net::Vendor::kV2, 23},
                      Sweep{net::Vendor::kV2, 71}),
    [](const ::testing::TestParamInfo<Sweep>& info) {
      return std::string(info.param.vendor == net::Vendor::kV1 ? "A" : "B") +
             "_seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace sld::core
