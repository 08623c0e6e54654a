// Operator workflow: querying the digest, drilling into raw messages, and
// feeding expert knowledge back into the system (the Fig. 1 "Domain
// Expert" arrows).
//
//  1. digest two days of syslog and print the ops report
//  2. filter: "what link events involved router X this morning?"
//  3. drill down: retrieve the raw messages behind one digest line
//  4. adjust: name an event type and pin an expert rule, then re-digest
#include <cstdio>

#include "core/learn.h"
#include "core/priority/report.h"
#include "core/query.h"
#include "net/config_parser.h"
#include "pipeline/pipeline.h"
#include "sim/generator.h"

using namespace sld;

int main() {
  const sim::DatasetSpec spec = sim::DatasetASpec();
  const sim::Dataset history = sim::GenerateDataset(spec, 0, 14, 41);
  const sim::Dataset live = sim::GenerateDataset(spec, 14, 2, 42);

  std::vector<net::ParsedConfig> parsed;
  for (const std::string& cfg : history.configs) {
    parsed.push_back(net::ParseConfig(cfg));
  }
  const core::LocationDict dict = core::LocationDict::Build(parsed);
  core::OfflineLearner learner;
  core::KnowledgeBase kb = learner.Learn(history.messages, dict);
  core::DigestResult result = pipeline::Digest(&kb, &dict, live.messages);

  // 1. The morning report (truncated).
  core::ReportOptions opts;
  opts.top_events = 5;
  opts.top_routers = 5;
  std::fputs(core::RenderReport(result, dict, opts).c_str(), stdout);

  // 2. Query: link events on a specific router.
  core::EventFilter filter;
  filter.label_contains = "link";
  filter.min_messages = 4;
  const auto link_events = core::FilterEvents(result, dict, filter);
  std::printf("\nlink events with >= 4 messages: %zu\n", link_events.size());
  if (link_events.empty()) return 0;
  const core::DigestEvent& focus = *link_events.front();
  std::printf("focus: %s\n", focus.Format().c_str());

  // 3. Drill down: the raw syslog behind the digest line (first five).
  std::printf("\nraw messages behind it:\n");
  const auto records = core::EventRecords(focus, live.messages);
  for (std::size_t i = 0; i < records.size() && i < 5; ++i) {
    std::printf("  %s\n", syslog::FormatRecord(*records[i]).c_str());
  }
  if (records.size() > 5) {
    std::printf("  ... %zu more\n", records.size() - 5);
  }

  // 4a. Expert naming: call LSP events "transport path" events.
  kb.label_rules.push_back({"MPLS", "transport path", true});
  // 4b. Expert rule: assert that configuration changes relate to the CPU
  // spikes that follow them (an association mining may not clear 0.8 on).
  const auto cfg_tmpl =
      kb.templates.Match("SYS-5-CONFIG_I",
                         "Configured from console by admin on vty0 (x)");
  const auto cpu_tmpl = kb.templates.Match(
      "SYS-1-CPUFALLINGTHRESHOLD",
      "Threshold: Total CPU Utilization(Total/Intr) 30%/1%.");
  if (cfg_tmpl && cpu_tmpl) {
    kb.rules.AddExpertRule(*cfg_tmpl, *cpu_tmpl);
    std::printf("\npinned expert rule: config change <-> CPU falling\n");
  }
  const std::size_t before = result.events.size();
  result = pipeline::Digest(&kb, &dict, live.messages);
  std::printf(
      "re-digest with expert knowledge: %zu -> %zu events; MPLS events "
      "now labeled 'transport path'\n",
      before, result.events.size());
  for (const auto& ev : result.events) {
    if (ev.label.find("transport path") != std::string::npos) {
      std::printf("  e.g. %s\n", ev.Format().c_str());
      break;
    }
  }
  return 0;
}
