#include "core/knowledge.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/strings.h"

namespace sld::core {

std::string KnowledgeBase::Serialize() const {
  std::string out(kHeader);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "P %.10g %.10g %lld %lld %lld %.10g %.10g %llu\n",
                temporal_params.alpha, temporal_params.beta,
                static_cast<long long>(temporal_params.smin),
                static_cast<long long>(temporal_params.smax),
                static_cast<long long>(rule_params.window_ms),
                rule_params.min_support, rule_params.min_confidence,
                static_cast<unsigned long long>(history_message_count));
  out += buf;
  out += templates.Serialize();
  for (const Template& tmpl : templates.All()) {
    const auto it = temporal_priors.find(tmpl.id);
    if (it == temporal_priors.end()) continue;
    std::snprintf(buf, sizeof(buf), "I %u %.10g\n", tmpl.id, it->second);
    out += buf;
  }
  out += rules.Serialize(templates);
  for (const LabelRule& rule : label_rules) {
    out += "L\t";
    out += rule.code_marker;
    out += '\t';
    out += rule.noun;
    out += '\t';
    out += rule.flappable ? "flap" : "plain";
    out += '\n';
  }
  // Frequencies sorted for deterministic output.
  std::vector<std::uint64_t> keys;
  keys.reserve(signature_freq.size());
  for (const auto& [key, count] : signature_freq) {
    (void)count;
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  for (const std::uint64_t key : keys) {
    std::snprintf(buf, sizeof(buf), "F %llu %u\n",
                  static_cast<unsigned long long>(key),
                  signature_freq.at(key));
    out += buf;
  }
  return out;
}

KnowledgeBase KnowledgeBase::Deserialize(std::string_view text) {
  KnowledgeBase kb;
  kb.templates = TemplateSet::Deserialize(text);
  kb.rules = RuleBase::Deserialize(text, kb.templates);
  for (const std::string_view line : SplitChar(text, '\n')) {
    if (line.starts_with("P ")) {
      const auto f = SplitWhitespace(line.substr(2));
      if (f.size() >= 8) {
        kb.temporal_params.alpha =
            std::strtod(std::string(f[0]).c_str(), nullptr);
        kb.temporal_params.beta =
            std::strtod(std::string(f[1]).c_str(), nullptr);
        kb.temporal_params.smin = ParseInt(f[2]).value_or(1000);
        kb.temporal_params.smax =
            ParseInt(f[3]).value_or(3 * kMsPerHour);
        kb.rule_params.window_ms = ParseInt(f[4]).value_or(60000);
        kb.rule_params.min_support =
            std::strtod(std::string(f[5]).c_str(), nullptr);
        kb.rule_params.min_confidence =
            std::strtod(std::string(f[6]).c_str(), nullptr);
        kb.history_message_count =
            static_cast<std::uint64_t>(ParseInt(f[7]).value_or(0));
      }
    } else if (line.starts_with("I ")) {
      const auto f = SplitWhitespace(line.substr(2));
      if (f.size() >= 2) {
        const auto id = ParseInt(f[0]);
        if (id) {
          kb.temporal_priors[static_cast<TemplateId>(*id)] =
              std::strtod(std::string(f[1]).c_str(), nullptr);
        }
      }
    } else if (line.starts_with("L\t")) {
      const auto fields = SplitChar(line, '\t');
      if (fields.size() >= 4) {
        LabelRule rule;
        rule.code_marker = std::string(fields[1]);
        rule.noun = std::string(fields[2]);
        rule.flappable = fields[3] == "flap";
        kb.label_rules.push_back(std::move(rule));
      }
    } else if (line.starts_with("F ")) {
      const auto f = SplitWhitespace(line.substr(2));
      if (f.size() >= 2) {
        const auto key = ParseInt(f[0]);
        const auto count = ParseInt(f[1]);
        if (key && count) {
          kb.signature_freq[static_cast<std::uint64_t>(*key)] =
              static_cast<std::uint32_t>(*count);
        }
      }
    }
  }
  return kb;
}

}  // namespace sld::core
