// Figure 12 — Per-day counts over the two online weeks (dataset A):
// raw messages, digest events, and active rules.  The paper's observation:
// event counts are far more stable day-to-day than message counts, and
// 100-200 rules are active per day.
#include <cmath>

#include "common.h"
#include "pipeline/pipeline.h"

using namespace sld;

int main() {
  bench::Header("Figure 12", "per-day messages / events / active rules (A)",
                "events per day are stable while message counts vary; "
                "~3 orders of magnitude between the two curves");
  const sim::DatasetSpec spec = sim::DatasetASpec();
  bench::Pipeline p = bench::BuildPipeline(spec, 28, 14);

  std::printf("%-6s %-10s %-8s %-12s %s\n", "day", "messages", "events",
              "active rules", "ratio");
  double mean_events = 0;
  double mean_sq = 0;
  double mean_msgs = 0;
  double mean_msgs_sq = 0;
  int days = 0;
  std::size_t begin = 0;
  for (int day = 0; day < p.live.num_days; ++day) {
    std::size_t end = begin;
    while (end < p.live.messages.size() &&
           p.live.DayOf(p.live.messages[end].time) <= day) {
      ++end;
    }
    const std::span<const syslog::SyslogRecord> slice(
        p.live.messages.data() + begin, end - begin);
    const core::DigestResult result = pipeline::Digest(&p.kb, &p.dict, slice);
    std::printf("%-6d %-10zu %-8zu %-12zu %.3e\n", day + 1, slice.size(),
                result.events.size(), result.active_rule_count,
                result.CompressionRatio());
    mean_events += static_cast<double>(result.events.size());
    mean_sq += static_cast<double>(result.events.size()) *
               static_cast<double>(result.events.size());
    mean_msgs += static_cast<double>(slice.size());
    mean_msgs_sq += static_cast<double>(slice.size()) *
                    static_cast<double>(slice.size());
    ++days;
    begin = end;
  }
  mean_events /= days;
  mean_msgs /= days;
  const double cv_events =
      std::sqrt(mean_sq / days - mean_events * mean_events) / mean_events;
  const double cv_msgs =
      std::sqrt(mean_msgs_sq / days - mean_msgs * mean_msgs) / mean_msgs;
  std::printf(
      "day-to-day coefficient of variation: messages=%.2f events=%.2f "
      "(events should be no more volatile than messages)\n",
      cv_msgs, cv_events);
  return 0;
}
