#include "obs/registry.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>

namespace sld::obs {
namespace {

// Aggregation key: name + rendered labels (labels are registered in a
// fixed order by each component, so byte equality is the right identity).
std::string KeyOf(const std::string& name, const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

// Prometheus text-format escaping for label values: backslash, double
// quote, and newline must be escaped inside the quoted value.  Label
// values are not always under our control — tenant names arrive from the
// command line — so rendering them verbatim would corrupt the exposition
// (a `"` ends the value early; a newline splits the sample line).
std::string PromEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// HELP text allows `\\` and `\n` escapes (no quotes involved).
std::string PromEscapeHelp(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string PromLabels(const Labels& labels, const char* extra_key = nullptr,
                       const std::string& extra_val = "") {
  if (labels.empty() && extra_key == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += PromEscape(v);
    out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    out += PromEscape(extra_val);
    out += '"';
  }
  out += '}';
  return out;
}

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

}  // namespace

namespace {

// Scope labels render (and aggregate) before the cell's own: a tenant
// qualifies a shard, not the other way around.
Labels Prepend(const Labels& base, Labels labels) {
  if (base.empty()) return labels;
  Labels full = base;
  full.insert(full.end(), std::make_move_iterator(labels.begin()),
              std::make_move_iterator(labels.end()));
  return full;
}

}  // namespace

Counter* Registry::AddCounter(std::string name, std::string help,
                              Labels labels) {
  if (root_ != nullptr) {
    return root_->AddCounter(std::move(name), std::move(help),
                             Prepend(base_, std::move(labels)));
  }
  std::lock_guard lock(mutex_);
  counters_.emplace_back(std::move(name), std::move(help), std::move(labels));
  return &counters_.back().metric;
}

Gauge* Registry::AddGauge(std::string name, std::string help, Labels labels) {
  if (root_ != nullptr) {
    return root_->AddGauge(std::move(name), std::move(help),
                           Prepend(base_, std::move(labels)));
  }
  std::lock_guard lock(mutex_);
  gauges_.emplace_back(std::move(name), std::move(help), std::move(labels));
  return &gauges_.back().metric;
}

Histogram* Registry::AddHistogram(std::string name, std::string help,
                                  std::vector<double> upper_bounds,
                                  Labels labels) {
  if (root_ != nullptr) {
    return root_->AddHistogram(std::move(name), std::move(help),
                               std::move(upper_bounds),
                               Prepend(base_, std::move(labels)));
  }
  std::lock_guard lock(mutex_);
  histograms_.emplace_back(std::move(name), std::move(help),
                           std::move(labels), upper_bounds);
  return &histograms_.back().metric;
}

std::unique_ptr<Registry> Registry::ScopedView(Labels base) {
  Registry* root = root_ != nullptr ? root_ : this;
  // Compose through intermediate views: the new view binds directly to
  // the root with the accumulated label prefix.
  return std::unique_ptr<Registry>(
      new Registry(root, Prepend(base_, std::move(base))));
}

MetricsSnapshot Registry::Collect() const {
  if (root_ != nullptr) return root_->Collect();
  std::lock_guard lock(mutex_);
  // std::map keys give a stable, name-sorted snapshot order.
  std::map<std::string, SeriesSnapshot> agg;
  for (const auto& cell : counters_) {
    SeriesSnapshot& s = agg[KeyOf(cell.name, cell.labels)];
    if (s.name.empty()) {
      s.name = cell.name;
      s.help = cell.help;
      s.kind = MetricKind::kCounter;
      s.labels = cell.labels;
    }
    s.ivalue += static_cast<std::int64_t>(cell.metric.value());
  }
  for (const auto& cell : gauges_) {
    SeriesSnapshot& s = agg[KeyOf(cell.name, cell.labels)];
    if (s.name.empty()) {
      s.name = cell.name;
      s.help = cell.help;
      s.kind = MetricKind::kGauge;
      s.labels = cell.labels;
    }
    s.ivalue += cell.metric.value();
  }
  for (const auto& cell : histograms_) {
    SeriesSnapshot& s = agg[KeyOf(cell.name, cell.labels)];
    if (s.name.empty()) {
      s.name = cell.name;
      s.help = cell.help;
      s.kind = MetricKind::kHistogram;
      s.labels = cell.labels;
      s.bounds.assign(cell.metric.bound_count(), 0.0);
      for (std::size_t i = 0; i < s.bounds.size(); ++i) {
        s.bounds[i] = cell.metric.bound(i);
      }
      s.buckets.assign(s.bounds.size() + 1, 0);
    }
    for (std::size_t i = 0; i < s.buckets.size(); ++i) {
      s.buckets[i] += cell.metric.bucket(i);
    }
    s.count += cell.metric.count();
    s.sum += cell.metric.sum();
  }
  MetricsSnapshot snapshot;
  snapshot.series.reserve(agg.size());
  for (auto& [key, s] : agg) snapshot.series.push_back(std::move(s));
  return snapshot;
}

double SeriesSnapshot::Quantile(double q) const {
  if (kind != MetricKind::kHistogram || count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t before = cumulative;
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) < rank) continue;
    if (i >= bounds.size()) {
      // Landed in +Inf: no upper edge to interpolate against.
      return bounds.empty() ? 0.0 : bounds.back();
    }
    const double hi = bounds[i];
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    if (buckets[i] == 0) return hi;
    const double frac =
        (rank - static_cast<double>(before)) / static_cast<double>(buckets[i]);
    return lo + (hi - lo) * (frac < 0.0 ? 0.0 : frac);
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

std::string MetricsSnapshot::RenderJson() const {
  std::string out = "{\n  \"series\": [\n";
  for (std::size_t i = 0; i < series.size(); ++i) {
    const SeriesSnapshot& s = series[i];
    out += "    {\"name\":\"" + JsonEscape(s.name) + "\",\"type\":\"";
    out += KindName(s.kind);
    out += "\",\"labels\":{";
    for (std::size_t j = 0; j < s.labels.size(); ++j) {
      if (j) out += ',';
      out += '"' + JsonEscape(s.labels[j].first) + "\":\"" +
             JsonEscape(s.labels[j].second) + '"';
    }
    out += '}';
    if (s.kind == MetricKind::kHistogram) {
      out += ",\"count\":" + std::to_string(s.count);
      out += ",\"sum\":" + FormatDouble(s.sum);
      out += ",\"p50\":" + FormatDouble(s.Quantile(0.50));
      out += ",\"p99\":" + FormatDouble(s.Quantile(0.99));
      out += ",\"buckets\":[";
      for (std::size_t j = 0; j < s.buckets.size(); ++j) {
        if (j) out += ',';
        out += "{\"le\":";
        out += j < s.bounds.size() ? FormatDouble(s.bounds[j])
                                   : std::string("\"+Inf\"");
        out += ",\"n\":" + std::to_string(s.buckets[j]) + '}';
      }
      out += ']';
    } else {
      out += ",\"value\":" + std::to_string(s.ivalue);
    }
    out += '}';
    if (i + 1 < series.size()) out += ',';
    out += '\n';
  }
  out += "  ]\n}\n";
  return out;
}

std::string MetricsSnapshot::RenderPrometheus() const {
  std::string out;
  std::string last_name;
  for (const SeriesSnapshot& s : series) {
    if (s.name != last_name) {
      out += "# HELP " + s.name + ' ' + PromEscapeHelp(s.help) + '\n';
      out += "# TYPE " + s.name + ' ' + KindName(s.kind) + '\n';
      last_name = s.name;
    }
    if (s.kind == MetricKind::kHistogram) {
      std::uint64_t cumulative = 0;
      for (std::size_t j = 0; j < s.buckets.size(); ++j) {
        cumulative += s.buckets[j];
        const std::string le =
            j < s.bounds.size() ? FormatDouble(s.bounds[j]) : "+Inf";
        out += s.name + "_bucket" + PromLabels(s.labels, "le", le) + ' ' +
               std::to_string(cumulative) + '\n';
      }
      out += s.name + "_sum" + PromLabels(s.labels) + ' ' +
             FormatDouble(s.sum) + '\n';
      out += s.name + "_count" + PromLabels(s.labels) + ' ' +
             std::to_string(s.count) + '\n';
    } else {
      out += s.name + PromLabels(s.labels) + ' ' + std::to_string(s.ivalue) +
             '\n';
    }
  }
  return out;
}

std::int64_t MetricsSnapshot::Value(const std::string& name) const {
  std::int64_t total = 0;
  for (const SeriesSnapshot& s : series) {
    if (s.name == name) total += s.ivalue;
  }
  return total;
}

bool WriteSnapshotFiles(const MetricsSnapshot& snapshot,
                        const std::string& path) {
  // Each stream closes before its check, so a failed final flush (a full
  // disk) counts as a failed write.
  std::ofstream json(path, std::ios::trunc);
  json << snapshot.RenderJson();
  json.close();
  std::ofstream prom(path + ".prom", std::ios::trunc);
  prom << snapshot.RenderPrometheus();
  prom.close();
  return static_cast<bool>(json) && static_cast<bool>(prom);
}

}  // namespace sld::obs
