// Figure 13 — Per-router raw message counts vs per-router event counts
// (dataset A).  The paper observes that the event distribution across
// routers is less skewed than the raw message distribution, and that the
// chattiest router enjoys the best compression.
#include <algorithm>
#include <cmath>
#include <map>

#include "common.h"
#include "pipeline/pipeline.h"

using namespace sld;

namespace {

// Gini coefficient as the skew metric (0 = uniform, 1 = concentrated).
double Gini(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  double cum = 0;
  double weighted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    cum += values[i];
    weighted += values[i] * static_cast<double>(i + 1);
  }
  if (cum == 0) return 0;
  return (2.0 * weighted) / (static_cast<double>(n) * cum) -
         (static_cast<double>(n) + 1.0) / static_cast<double>(n);
}

}  // namespace

int main() {
  bench::Header("Figure 13", "per-router messages vs events (dataset A)",
                "event counts are less skewed across routers than message "
                "counts; the busiest router has the best compression");
  const sim::DatasetSpec spec = sim::DatasetASpec();
  bench::Pipeline p = bench::BuildPipeline(spec, 28, 14);
  const core::DigestResult result =
      pipeline::Digest(&p.kb, &p.dict, p.live.messages);

  std::map<std::string, std::size_t> msgs_of;
  for (const auto& rec : p.live.messages) ++msgs_of[rec.router];
  // An event counts once for every router it involves.
  std::map<std::string, std::size_t> events_of;
  for (const core::DigestEvent& ev : result.events) {
    for (const std::uint32_t key : ev.router_keys) {
      if (key < p.dict.router_count()) {
        ++events_of[p.dict.RouterName(key)];
      }
    }
  }

  std::vector<std::pair<std::size_t, std::string>> order;
  for (const auto& [router, count] : msgs_of) {
    order.emplace_back(count, router);
  }
  std::sort(order.rbegin(), order.rend());
  std::printf("%-16s %-10s %-8s %s\n", "router", "messages", "events",
              "ratio");
  std::vector<double> msg_counts;
  std::vector<double> event_counts;
  for (const auto& [count, router] : order) {
    const std::size_t events = events_of[router];
    std::printf("%-16s %-10zu %-8zu %.3e\n", router.c_str(), count, events,
                static_cast<double>(events) / static_cast<double>(count));
    msg_counts.push_back(static_cast<double>(count));
    event_counts.push_back(static_cast<double>(events));
  }
  std::printf(
      "skew (Gini): messages=%.3f events=%.3f (events should be lower)\n",
      Gini(msg_counts), Gini(event_counts));
  const double top_ratio = event_counts.front() / msg_counts.front();
  double best = 1.0;
  for (std::size_t i = 0; i < msg_counts.size(); ++i) {
    best = std::min(best, event_counts[i] / msg_counts[i]);
  }
  std::printf(
      "busiest router ratio=%.3e, best ratio overall=%.3e (expected "
      "equal or close)\n",
      top_ratio, best);
  return 0;
}
