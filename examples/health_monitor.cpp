// Network health monitoring and visualization (§6.2 of the paper).
//
// Renders the paper's Figures 14/15 comparison as text: a network status
// "map" for a 10-minute window built from digest events vs one built from
// raw message counts.  Raw counts spotlight the chattiest routers; the
// event view shows what is actually happening — one marker per network
// event, labeled.
#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "core/learn.h"
#include "net/config_parser.h"
#include "pipeline/pipeline.h"
#include "sim/generator.h"

using namespace sld;

namespace {

char Marker(std::size_t count) {
  if (count == 0) return '.';
  if (count <= 2) return 'o';
  if (count <= 10) return 'O';
  return '@';
}

}  // namespace

int main() {
  const sim::DatasetSpec spec = sim::DatasetASpec();
  const sim::Dataset history = sim::GenerateDataset(spec, 0, 28, 21);
  const sim::Dataset live = sim::GenerateDataset(spec, 28, 1, 22);

  std::vector<net::ParsedConfig> parsed;
  for (const std::string& cfg : history.configs) {
    parsed.push_back(net::ParseConfig(cfg));
  }
  const core::LocationDict dict = core::LocationDict::Build(parsed);
  core::OfflineLearner learner;
  core::KnowledgeBase kb = learner.Learn(history.messages, dict);

  // Pick the busiest 10-minute window of the day.
  const TimeMs window = 10 * kMsPerMinute;
  std::map<TimeMs, std::size_t> per_bucket;
  for (const auto& msg : live.messages) {
    ++per_bucket[(msg.time - live.epoch) / window];
  }
  TimeMs best_bucket = 0;
  std::size_t best_count = 0;
  for (const auto& [bucket, count] : per_bucket) {
    if (count > best_count) {
      best_count = count;
      best_bucket = bucket;
    }
  }
  const TimeMs w_start = live.epoch + best_bucket * window;
  const TimeMs w_end = w_start + window;
  std::vector<syslog::SyslogRecord> slice;
  for (const auto& msg : live.messages) {
    if (msg.time >= w_start && msg.time < w_end) slice.push_back(msg);
  }
  const core::DigestResult result = pipeline::Digest(&kb, &dict, slice);

  std::printf("network status map %s .. %s (10-minute window)\n\n",
              FormatTimestamp(w_start).c_str(),
              FormatTimestamp(w_end).c_str());

  std::map<std::string, std::size_t> raw_of;
  for (const auto& msg : slice) ++raw_of[msg.router];
  std::map<std::string, std::size_t> events_of;
  for (const core::DigestEvent& ev : result.events) {
    for (const std::uint32_t key : ev.router_keys) {
      if (key < dict.router_count()) ++events_of[dict.RouterName(key)];
    }
  }

  // Two maps over the same router grid (8 per row).
  std::vector<std::string> names;
  for (const net::Router& r : live.topo.routers) names.push_back(r.name);
  const auto print_map = [&](const char* title,
                             const std::map<std::string, std::size_t>& m) {
    std::printf("%s\n", title);
    for (std::size_t i = 0; i < names.size(); i += 8) {
      std::printf("  ");
      for (std::size_t j = i; j < std::min(i + 8, names.size()); ++j) {
        const auto it = m.find(names[j]);
        std::printf("%c ", Marker(it == m.end() ? 0 : it->second));
      }
      std::printf("\n");
    }
  };
  print_map("raw syslog view ('.'=0 'o'<=2 'O'<=10 '@'>10 messages):",
            raw_of);
  std::printf("\n");
  print_map("SyslogDigest view (markers are EVENTS, not messages):",
            events_of);

  std::printf("\n%zu raw messages vs %zu events in this window\n\n",
              slice.size(), result.events.size());
  std::printf("event board (what an operator reads):\n");
  for (std::size_t i = 0; i < result.events.size() && i < 12; ++i) {
    std::printf("  %2zu. %s\n", i + 1, result.events[i].Format().c_str());
  }

  // The paper's warning: high message counts do not mean big trouble.
  std::string chattiest;
  std::size_t chatty_count = 0;
  for (const auto& [router, count] : raw_of) {
    if (count > chatty_count) {
      chatty_count = count;
      chattiest = router;
    }
  }
  std::printf(
      "\nchattiest router this window: %s (%zu messages, %zu events) — "
      "message volume alone would steer the operator there regardless of "
      "event importance.\n",
      chattiest.c_str(), chatty_count,
      events_of.count(chattiest) ? events_of[chattiest] : 0);
  return 0;
}
