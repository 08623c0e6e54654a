#include "core/digest.h"

#include <algorithm>
#include <cmath>

#include "pipeline/pipeline.h"

namespace sld::core {

std::string DigestEvent::Format() const {
  std::string out = FormatTimestamp(start);
  out += '|';
  out += FormatTimestamp(end);
  out += '|';
  out += location_text;
  out += '|';
  out += label;
  out += '|';
  out += std::to_string(messages.size());
  out += " messages";
  return out;
}

double MessageScore(const Augmented& msg, const KnowledgeBase& kb,
                    const LocationDict& dict) {
  // l_m: weight of the message's most significant location level; f_m:
  // historical frequency of the signature on this router (§4.2.4).  The
  // +2 smoothing keeps log(f_m) positive for rare and unseen signatures.
  double level_weight = LevelWeight(LocLevel::kRouter);
  if (msg.HasDetailLocation()) {
    int best = 99;
    for (std::size_t i = 1; i < msg.locs.size(); ++i) {
      best = std::min(best, static_cast<int>(dict.Get(msg.locs[i]).level));
    }
    level_weight = LevelWeight(static_cast<LocLevel>(best));
  }
  const double freq =
      static_cast<double>(kb.FrequencyOf(msg.tmpl, msg.router_key));
  return level_weight / std::log(freq + 2.0);
}

DigestEvent BuildEvent(const std::vector<const Augmented*>& messages,
                       const KnowledgeBase& kb, const LocationDict& dict) {
  DigestEvent ev;
  for (const Augmented* msg : messages) {
    ev.messages.push_back(msg->raw_index);
    ev.start = ev.messages.size() == 1 ? msg->time
                                       : std::min(ev.start, msg->time);
    ev.end = std::max(ev.end, msg->time);
    ev.score += MessageScore(*msg, kb, dict);
    ev.templates.push_back(msg->tmpl);
    ev.router_keys.push_back(msg->router_key);
  }
  std::sort(ev.templates.begin(), ev.templates.end());
  ev.templates.erase(std::unique(ev.templates.begin(), ev.templates.end()),
                     ev.templates.end());
  std::sort(ev.router_keys.begin(), ev.router_keys.end());
  ev.router_keys.erase(
      std::unique(ev.router_keys.begin(), ev.router_keys.end()),
      ev.router_keys.end());
  ev.label = LabelFor(ev.templates, kb.templates,
                      kb.label_rules.empty() ? nullptr : &kb.label_rules);
  ev.location_text = LocationTextFor(messages, dict);
  return ev;
}

DigestResult Digester::Digest(std::span<const syslog::SyslogRecord> stream,
                              const DigestOptions& options) {
  // The one digest driver at one shard, with the default unbounded idle
  // and max-age horizons: no group closes before the final flush, so the
  // partition is the closed-stream partition.
  pipeline::PipelineOptions opts;
  opts.digest = options;
  opts.metrics = metrics_;
  pipeline::ShardedPipeline pipeline(kb_, dict_, opts);
  pipeline.Push(stream);
  return pipeline.Finish();
}

}  // namespace sld::core
