// Ablation: digesting with a stale / incomplete location dictionary.
//
// The paper's offline learning "will be periodically run to incorporate
// the latest changes to router hardware and software configurations."
// This bench quantifies why: we digest the same online stream with
// dictionaries built from decreasing fractions of the router configs.
// Messages from unknown routers can still group temporally (and by rules
// among themselves), but location-dependent grouping and cross-router
// assembly degrade.
#include <algorithm>

#include "common.h"
#include "core/eval.h"
#include "pipeline/pipeline.h"

using namespace sld;

int main(int argc, char** argv) {
  const bench::AblationArgs args =
      bench::ParseAblationArgs(argc, argv, /*learn_days=*/28,
                               /*live_days=*/7);
  bench::Header("ablation", "digest quality vs dictionary completeness",
                "compression and event assembly degrade as the location "
                "dictionary goes stale (missing routers)");
  const sim::DatasetSpec spec = sim::DatasetASpec();
  bench::Pipeline p =
      bench::BuildPipeline(spec, args.learn_days, args.live_days);

  std::ofstream js;
  if (!args.json.empty()) {
    js = bench::OpenAblationJson(args.json, "stale_dict", args);
    js << "  \"dataset\": \"" << spec.name << "\",\n  \"rows\": [\n";
  }
  std::printf("%-12s %-10s %-12s %-14s %s\n", "configs %", "events",
              "ratio", "fragmentation", "fully assembled");
  bool first = true;
  for (const int percent : {100, 75, 50, 25, 0}) {
    // Dictionary from the first `percent` of router configs.
    std::vector<net::ParsedConfig> parsed;
    const std::size_t keep =
        p.history.configs.size() * static_cast<std::size_t>(percent) / 100;
    for (std::size_t i = 0; i < keep; ++i) {
      parsed.push_back(net::ParseConfig(p.history.configs[i]));
    }
    const core::LocationDict dict = core::LocationDict::Build(parsed);
    // The knowledge base must be learned against the same dictionary
    // (router keys shift with it).
    core::OfflineLearnerParams params;
    params.rules = bench::PaperRuleParams(spec);
    core::OfflineLearner learner(params);
    core::KnowledgeBase kb = learner.Learn(p.history.messages, dict);
    const core::DigestResult result =
        pipeline::Digest(&kb, &dict, p.live.messages);
    const core::GroupingQuality q = core::EvaluateGrouping(p.live, result);
    std::printf("%-12d %-10zu %-12.3e %-14.2f %.1f%%\n", percent,
                result.events.size(), result.CompressionRatio(),
                q.mean_fragmentation, 100.0 * q.fully_assembled_fraction);
    if (!args.json.empty()) {
      js << (first ? "" : ",\n") << "    {\"configs_pct\": " << percent
         << ", \"events\": " << result.events.size()
         << ", \"compression_ratio\": " << result.CompressionRatio()
         << ", \"mean_fragmentation\": " << q.mean_fragmentation
         << ", \"fully_assembled_pct\": "
         << 100.0 * q.fully_assembled_fraction << "}";
      first = false;
    }
  }
  if (!args.json.empty()) {
    js << "\n  ]\n}\n";
    std::printf("wrote %s\n", args.json.c_str());
  }
  return 0;
}
