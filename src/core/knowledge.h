// The domain knowledge base of Fig. 1: everything the offline learning
// component hands to the online system.
//
// Contents: learned message templates, per-template temporal priors and
// tuned (α, β), the association rule base with its mining parameters, and
// historical signature frequencies per router (the f_m of the §4.2.4
// scoring formula).  The location dictionary is NOT serialized — it is
// rebuilt from router configs, which are the authoritative source.
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>

#include "core/priority/present.h"
#include "core/rules/rules.h"
#include "core/temporal/temporal.h"

namespace sld::core {

class KnowledgeBase {
 public:
  TemplateSet templates;
  TemporalPriors temporal_priors;
  TemporalParams temporal_params;
  RuleBase rules;
  RuleMinerParams rule_params;
  // Expert event-naming rules (§4.2.4); consulted before the built-in
  // phrasebook when labeling events.
  std::vector<LabelRule> label_rules;
  // (template id << 32 | router key) -> historical message count.
  std::unordered_map<std::uint64_t, std::uint32_t> signature_freq;
  std::uint64_t history_message_count = 0;

  static std::uint64_t FreqKey(TemplateId tmpl,
                               std::uint32_t router_key) noexcept {
    return (static_cast<std::uint64_t>(tmpl) << 32) | router_key;
  }

  // Historical occurrence count of a signature on a router (0 if unseen).
  std::uint32_t FrequencyOf(TemplateId tmpl,
                            std::uint32_t router_key) const {
    const auto it = signature_freq.find(FreqKey(tmpl, router_key));
    return it == signature_freq.end() ? 0 : it->second;
  }

  // Text round-trip.  Requires the same configs (and hence router keys)
  // when the knowledge base is reloaded.  Serialize's text starts with
  // the line kHeader.
  static constexpr std::string_view kHeader = "KB v1\n";
  std::string Serialize() const;
  static KnowledgeBase Deserialize(std::string_view text);
};

}  // namespace sld::core
