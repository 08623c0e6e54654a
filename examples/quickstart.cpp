// Quickstart: generate a small network + workload, learn a knowledge base
// offline, digest a fresh online period, and print the top events.
//
// This is the whole SyslogDigest lifecycle in ~60 lines:
//   topology -> configs -> location dictionary
//   historical syslog -> OfflineLearner -> KnowledgeBase
//   live syslog -> pipeline::Digest -> prioritized events
#include <cstdio>

#include "core/learn.h"
#include "net/config_parser.h"
#include "pipeline/pipeline.h"
#include "sim/generator.h"

int main() {
  using namespace sld;

  // A two-week history and a two-day online window on dataset A's network.
  sim::DatasetSpec spec = sim::DatasetASpec();
  const sim::Dataset history = sim::GenerateDataset(spec, 0, 14, 1);
  const sim::Dataset live = sim::GenerateDataset(spec, 14, 2, 2);
  std::printf("history: %zu messages over %d days\n",
              history.messages.size(), history.num_days);
  std::printf("live:    %zu messages over %d days\n", live.messages.size(),
              live.num_days);

  // Location dictionary from config text, as in production.
  std::vector<net::ParsedConfig> parsed;
  for (const std::string& cfg : history.configs) {
    parsed.push_back(net::ParseConfig(cfg));
  }
  const core::LocationDict dict = core::LocationDict::Build(parsed);
  std::printf("dictionary: %zu locations, %zu links, %zu paths\n",
              dict.size(), dict.links().size(), dict.paths().size());

  // Offline learning.  The knowledge base is plain text: persist it once,
  // reload it in every online process.
  core::OfflineLearner learner;
  core::KnowledgeBase learned = learner.Learn(history.messages, dict);
  core::KnowledgeBase kb =
      core::KnowledgeBase::Deserialize(learned.Serialize());
  std::printf("knowledge: %zu templates, %zu rules (%zu bytes serialized)\n",
              kb.templates.size(), kb.rules.size(),
              learned.Serialize().size());

  // Online digesting.
  const core::DigestResult result = pipeline::Digest(&kb, &dict, live.messages);
  std::printf("digest: %zu events from %zu messages (ratio %.2e, "
              "%zu active rules)\n\n",
              result.events.size(), result.message_count,
              result.CompressionRatio(), result.active_rule_count);

  std::printf("top 10 events:\n");
  for (std::size_t i = 0; i < result.events.size() && i < 10; ++i) {
    std::printf("  %2zu. %s\n", i + 1, result.events[i].Format().c_str());
  }
  return 0;
}
