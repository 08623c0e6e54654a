// Beyond the paper: quantitative grouping quality against ground truth.
//
// The paper validated grouping by expert review; the simulator's labels
// let us measure it.  Reported per dataset and per grouping mode:
// fragmentation (digest events per true network condition), purity
// (unrelated labeled messages pulled into a condition's events), and
// completeness@1 (share of the condition held by its main digest event).
#include "common.h"
#include "core/eval.h"
#include "pipeline/pipeline.h"

using namespace sld;

namespace {

void Run(const sim::DatasetSpec& spec) {
  bench::Pipeline p = bench::BuildPipeline(spec, 28, 7);
  struct Mode {
    const char* name;
    pipeline::PipelineOptions options;
  };
  const Mode modes[] = {
      {"T", {.use_rules = false, .use_cross_router = false}},
      {"T+R", {.use_rules = true, .use_cross_router = false}},
      {"T+R+C", {.use_rules = true, .use_cross_router = true}},
  };
  std::printf("dataset %s (%zu true events in 7 online days):\n",
              spec.name.c_str(), p.live.ground_truth.size());
  std::printf("  %-8s %-14s %-9s %-15s %s\n", "mode", "fragmentation",
              "purity", "completeness@1", "fully assembled");
  for (const Mode& mode : modes) {
    const core::DigestResult result =
        pipeline::Digest(&p.kb, &p.dict, p.live.messages, mode.options);
    const core::GroupingQuality q =
        core::EvaluateGrouping(p.live, result);
    std::printf("  %-8s %-14.2f %-9.3f %-15.3f %.1f%%\n", mode.name,
                q.mean_fragmentation, q.mean_purity, q.mean_completeness,
                100.0 * q.fully_assembled_fraction);
  }
}

}  // namespace

int main() {
  bench::Header("extra", "grouping quality vs ground truth",
                "each grouping stage cuts fragmentation while purity "
                "stays near 1.0 (merging related, not unrelated, messages)");
  Run(sim::DatasetASpec());
  Run(sim::DatasetBSpec());
  return 0;
}
