// Trend analysis over digested history: level-shift detection on daily
// counts (a MERCURY-style consumer, §1/§7 of the paper).
//
// The paper argues trend systems that track raw per-message frequencies
// would be "much more meaningful" with the relationships SyslogDigest
// learns.  This module provides per-template daily message counts plus a
// simple level-shift detector (compare the mean of a trailing window
// against the mean of the preceding window; flag sustained relative
// changes).
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/augment.h"
#include "core/digest.h"

namespace sld::core {

// A daily count series; index 0 is `first_day` (days since epoch_ms).
struct DailySeries {
  std::string name;
  TimeMs epoch_ms = 0;
  std::vector<double> counts;
};

// Per-template daily message counts from an augmented stream.
// `epoch_ms` anchors day 0; messages before it are ignored.
std::vector<DailySeries> TemplateDailyCounts(
    std::span<const Augmented> stream, const TemplateSet& templates,
    TimeMs epoch_ms, int num_days);

struct LevelShiftParams {
  int window_days = 7;        // window on each side of the candidate day
  double min_ratio = 2.0;     // after/before mean ratio (or inverse)
  double min_mean = 1.0;      // ignore series quieter than this
};

struct LevelShift {
  std::string series;  // series name (template canonical or event label)
  int day = 0;         // first day of the new level
  double before = 0.0; // mean daily count before
  double after = 0.0;  // mean daily count after
};

// Detects sustained level shifts in each series; at most one (the
// strongest) shift is reported per series.
std::vector<LevelShift> DetectLevelShifts(
    std::span<const DailySeries> series, const LevelShiftParams& params = {});

}  // namespace sld::core
