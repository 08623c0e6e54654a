// §5.3 — Validation against operations trouble tickets (dataset B).
//
// Tickets are ranked by how often they were investigated/updated; the top
// 30 are matched against digests: a match requires (i) the digest's time
// range to cover the ticket creation time and (ii) location consistency at
// the state level.  The paper reports every top-30 ticket matching a
// digest ranked in the top 5%.
#include <algorithm>
#include <map>
#include <set>

#include "common.h"
#include "pipeline/pipeline.h"

using namespace sld;

int main() {
  bench::Header("S5.3", "trouble ticket cross-validation (dataset B)",
                "all top tickets match digests; matched digests rank high "
                "(paper: top 5%)");
  const sim::DatasetSpec spec = sim::DatasetBSpec();
  bench::Pipeline p = bench::BuildPipeline(spec, 28, 14);
  const core::DigestResult result =
      pipeline::Digest(&p.kb, &p.dict, p.live.messages);

  // Router name -> state, from the generated topology.
  std::map<std::string, std::string> state_of;
  for (const net::Router& r : p.live.topo.routers) {
    state_of[r.name] = r.state;
  }
  // Event rank (already sorted by score) -> involved states.
  std::vector<std::set<std::string>> event_states(result.events.size());
  for (std::size_t e = 0; e < result.events.size(); ++e) {
    for (const std::uint32_t key : result.events[e].router_keys) {
      if (key < p.dict.router_count()) {
        event_states[e].insert(state_of[p.dict.RouterName(key)]);
      }
    }
  }

  // Top 30 tickets by update count.
  std::vector<sim::TroubleTicket> tickets = p.live.tickets;
  std::sort(tickets.begin(), tickets.end(),
            [](const sim::TroubleTicket& a, const sim::TroubleTicket& b) {
              return a.update_count > b.update_count;
            });
  if (tickets.size() > 30) tickets.resize(30);

  std::printf("%zu tickets under evaluation, %zu digest events\n",
              tickets.size(), result.events.size());
  std::size_t matched = 0;
  double worst_pct = 0.0;
  std::vector<double> percentiles;
  for (const sim::TroubleTicket& ticket : tickets) {
    std::size_t best_rank = result.events.size();
    for (std::size_t e = 0; e < result.events.size(); ++e) {
      const core::DigestEvent& ev = result.events[e];
      if (ev.start > ticket.created || ev.end < ticket.created) continue;
      if (event_states[e].count(ticket.state) == 0) continue;
      best_rank = e;
      break;  // events are rank-ordered; first hit is the best rank
    }
    if (best_rank < result.events.size()) {
      ++matched;
      const double pct = 100.0 * static_cast<double>(best_rank + 1) /
                         static_cast<double>(result.events.size());
      percentiles.push_back(pct);
      worst_pct = std::max(worst_pct, pct);
    }
  }
  std::printf("matched: %zu/%zu tickets\n", matched, tickets.size());
  if (!percentiles.empty()) {
    std::sort(percentiles.begin(), percentiles.end());
    std::printf(
        "matched digest rank percentile: median=%.1f%% p90=%.1f%% "
        "worst=%.1f%% (paper: all within top 5%%)\n",
        percentiles[percentiles.size() / 2],
        percentiles[percentiles.size() * 9 / 10], worst_pct);
  }
  return 0;
}
