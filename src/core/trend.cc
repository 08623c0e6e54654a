#include "core/trend.h"

#include <algorithm>
#include <cmath>

namespace sld::core {
namespace {

double Mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace

std::vector<DailySeries> TemplateDailyCounts(
    std::span<const Augmented> stream, const TemplateSet& templates,
    TimeMs epoch_ms, int num_days) {
  std::map<TemplateId, std::vector<double>> counts;
  for (const Augmented& msg : stream) {
    const TimeMs offset = msg.time - epoch_ms;
    if (offset < 0) continue;
    const int day = static_cast<int>(offset / kMsPerDay);
    if (day >= num_days) continue;
    auto& series = counts[msg.tmpl];
    if (series.empty()) series.assign(static_cast<std::size_t>(num_days), 0);
    series[static_cast<std::size_t>(day)] += 1;
  }
  std::vector<DailySeries> out;
  out.reserve(counts.size());
  for (auto& [tmpl, values] : counts) {
    DailySeries series;
    series.name = templates.Get(tmpl).Canonical();
    series.epoch_ms = epoch_ms;
    series.counts = std::move(values);
    out.push_back(std::move(series));
  }
  return out;
}

std::vector<LevelShift> DetectLevelShifts(
    std::span<const DailySeries> series, const LevelShiftParams& params) {
  std::vector<LevelShift> shifts;
  const int w = params.window_days;
  for (const DailySeries& s : series) {
    const int days = static_cast<int>(s.counts.size());
    LevelShift best;
    double best_strength = 0.0;
    for (int day = w; day + w <= days; ++day) {
      const double before = Mean(std::span<const double>(
          s.counts.data() + day - w, static_cast<std::size_t>(w)));
      const double after = Mean(std::span<const double>(
          s.counts.data() + day, static_cast<std::size_t>(w)));
      if (std::max(before, after) < params.min_mean) continue;
      // Ratio with +1 smoothing so activations from zero register.
      const double up = (after + 1.0) / (before + 1.0);
      const double strength = std::max(up, 1.0 / up);
      if (strength >= params.min_ratio && strength > best_strength) {
        best_strength = strength;
        best.series = s.name;
        best.day = day;
        best.before = before;
        best.after = after;
      }
    }
    if (best_strength > 0.0) shifts.push_back(std::move(best));
  }
  std::sort(shifts.begin(), shifts.end(),
            [](const LevelShift& a, const LevelShift& b) {
              const double sa = (a.after + 1) / (a.before + 1);
              const double sb = (b.after + 1) / (b.before + 1);
              return std::max(sa, 1 / sa) > std::max(sb, 1 / sb);
            });
  return shifts;
}

}  // namespace sld::core
