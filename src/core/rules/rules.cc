#include "core/rules/rules.h"

#include <algorithm>
#include <map>

#include "common/strings.h"

namespace sld::core {

double MiningStats::Support(TemplateId t) const {
  if (transaction_count == 0) return 0.0;
  const auto it = item_tx.find(t);
  if (it == item_tx.end()) return 0.0;
  return static_cast<double>(it->second) /
         static_cast<double>(transaction_count);
}

double MiningStats::PairSupport(TemplateId a, TemplateId b) const {
  if (transaction_count == 0) return 0.0;
  const auto it = pair_tx.find(PairKey(a, b));
  if (it == pair_tx.end()) return 0.0;
  return static_cast<double>(it->second) /
         static_cast<double>(transaction_count);
}

double MiningStats::Confidence(TemplateId from, TemplateId to) const {
  const auto item = item_tx.find(from);
  if (item == item_tx.end() || item->second == 0) return 0.0;
  const auto pair = pair_tx.find(PairKey(from, to));
  if (pair == pair_tx.end()) return 0.0;
  return static_cast<double>(pair->second) /
         static_cast<double>(item->second);
}

MiningStats MineCooccurrence(std::span<const Augmented> stream,
                             TimeMs window_ms) {
  MiningStats stats;
  stats.message_count = stream.size();

  // Split the (time-sorted) stream into per-router index sequences.
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> per_router;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    per_router[stream[i].router_key].push_back(i);
    ++stats.item_messages[stream[i].tmpl];
  }

  // Guards against quadratic blowup inside a pathological burst: a
  // transaction considers at most this many distinct templates.
  constexpr std::size_t kMaxDistinct = 64;

  std::vector<TemplateId> distinct;
  for (const auto& [router, indices] : per_router) {
    (void)router;
    std::size_t tail = 0;
    for (std::size_t head = 0; head < indices.size(); ++head) {
      const TimeMs t0 = stream[indices[head]].time;
      if (tail < head) tail = head;
      while (tail + 1 < indices.size() &&
             stream[indices[tail + 1]].time - t0 <= window_ms) {
        ++tail;
      }
      // One transaction: distinct templates in [head, tail].
      distinct.clear();
      for (std::size_t j = head; j <= tail; ++j) {
        const TemplateId t = stream[indices[j]].tmpl;
        if (std::find(distinct.begin(), distinct.end(), t) ==
            distinct.end()) {
          distinct.push_back(t);
          if (distinct.size() >= kMaxDistinct) break;
        }
      }
      ++stats.transaction_count;
      for (std::size_t x = 0; x < distinct.size(); ++x) {
        ++stats.item_tx[distinct[x]];
        for (std::size_t y = x + 1; y < distinct.size(); ++y) {
          ++stats.pair_tx[MiningStats::PairKey(distinct[x], distinct[y])];
        }
      }
    }
  }
  return stats;
}

std::vector<Rule> ExtractRules(const MiningStats& stats,
                               const RuleMinerParams& params) {
  std::vector<Rule> rules;
  for (const auto& [key, count] : stats.pair_tx) {
    const TemplateId a = static_cast<TemplateId>(key >> 32);
    const TemplateId b = static_cast<TemplateId>(key & 0xffffffffu);
    if (stats.Support(a) < params.min_support ||
        stats.Support(b) < params.min_support) {
      continue;
    }
    const double conf =
        std::max(stats.Confidence(a, b), stats.Confidence(b, a));
    if (conf < params.min_confidence) continue;
    Rule rule;
    rule.a = a;
    rule.b = b;
    rule.support = static_cast<double>(count) /
                   static_cast<double>(stats.transaction_count);
    rule.confidence = conf;
    rules.push_back(rule);
  }
  std::sort(rules.begin(), rules.end(), [](const Rule& x, const Rule& y) {
    return std::tie(x.a, x.b) < std::tie(y.a, y.b);
  });
  return rules;
}

RuleBase::UpdateResult RuleBase::Update(const MiningStats& stats,
                                        const RuleMinerParams& params,
                                        bool naive_deletion) {
  UpdateResult result;

  // Deletion first (on the existing set, judged by this period's data).
  std::vector<std::uint64_t> doomed;
  for (auto& [key, rule] : rules_) {
    if (rule.expert) continue;  // expert-pinned rules are never evicted
    const std::size_t cnt_a =
        stats.item_tx.count(rule.a) ? stats.item_tx.at(rule.a) : 0;
    const std::size_t cnt_b =
        stats.item_tx.count(rule.b) ? stats.item_tx.at(rule.b) : 0;
    if (naive_deletion) {
      if (stats.Support(rule.a) < params.min_support ||
          stats.Support(rule.b) < params.min_support) {
        doomed.push_back(key);
        continue;
      }
    }
    if (std::max(cnt_a, cnt_b) < kMinEvidence) continue;  // no evidence
    const double conf =
        std::max(stats.Confidence(rule.a, rule.b),
                 stats.Confidence(rule.b, rule.a));
    // Conservative deletion (§4.1.4): a rule hovering just under the
    // admission threshold is not evidence against the association, so the
    // deletion threshold carries a margin; only a clear confidence drop
    // evicts the rule.
    if (conf < params.min_confidence * kDeletionMargin) {
      doomed.push_back(key);
    }
  }
  for (const std::uint64_t key : doomed) {
    const Rule& rule = rules_.at(key);
    Unlink(rule.a, rule.b);
    rules_.erase(key);
  }
  result.deleted = doomed.size();

  // Addition.
  for (const Rule& rule : ExtractRules(stats, params)) {
    const std::uint64_t key = MiningStats::PairKey(rule.a, rule.b);
    const auto [it, inserted] = rules_.emplace(key, rule);
    if (inserted) {
      Link(rule.a, rule.b);
      ++result.added;
    } else {
      const bool expert = it->second.expert;
      it->second = rule;  // refresh stats of an existing rule
      it->second.expert = expert;
    }
  }
  return result;
}

void RuleBase::AddExpertRule(TemplateId a, TemplateId b) {
  Rule rule;
  rule.a = std::min(a, b);
  rule.b = std::max(a, b);
  rule.confidence = 1.0;  // asserted, not measured
  rule.expert = true;
  const auto [it, inserted] =
      rules_.emplace(MiningStats::PairKey(a, b), rule);
  if (inserted) {
    Link(a, b);
  } else {
    it->second.expert = true;
  }
}

bool RuleBase::RemoveRule(TemplateId a, TemplateId b) {
  if (rules_.erase(MiningStats::PairKey(a, b)) == 0) return false;
  Unlink(a, b);
  return true;
}

void RuleBase::Link(TemplateId a, TemplateId b) {
  const auto add = [this](TemplateId from, TemplateId to) {
    if (from >= adjacency_.size()) adjacency_.resize(from + 1);
    std::vector<TemplateId>& list = adjacency_[from];
    list.insert(std::lower_bound(list.begin(), list.end(), to), to);
  };
  add(a, b);
  if (a != b) add(b, a);
}

void RuleBase::Unlink(TemplateId a, TemplateId b) {
  const auto drop = [this](TemplateId from, TemplateId to) {
    std::vector<TemplateId>& list = adjacency_[from];
    list.erase(std::lower_bound(list.begin(), list.end(), to));
  };
  drop(a, b);
  if (a != b) drop(b, a);
}

std::vector<Rule> RuleBase::All() const {
  std::vector<Rule> out;
  out.reserve(rules_.size());
  for (const auto& [key, rule] : rules_) {
    (void)key;
    out.push_back(rule);
  }
  std::sort(out.begin(), out.end(), [](const Rule& x, const Rule& y) {
    return std::tie(x.a, x.b) < std::tie(y.a, y.b);
  });
  return out;
}

std::string RuleBase::Serialize(const TemplateSet& templates) const {
  std::string out;
  for (const Rule& rule : All()) {
    out += "R\t";
    out += templates.Get(rule.a).Canonical();
    out += '\t';
    out += templates.Get(rule.b).Canonical();
    out += '\t';
    out += std::to_string(rule.support);
    out += '\t';
    out += std::to_string(rule.confidence);
    out += '\t';
    out += rule.expert ? "expert" : "mined";
    out += '\n';
  }
  return out;
}

RuleBase RuleBase::Deserialize(std::string_view text,
                               const TemplateSet& templates) {
  // Canonical form -> id map.
  std::unordered_map<std::string, TemplateId> by_canonical;
  for (const Template& tmpl : templates.All()) {
    by_canonical.emplace(tmpl.Canonical(), tmpl.id);
  }
  RuleBase base;
  for (const std::string_view line : SplitChar(text, '\n')) {
    if (!line.starts_with("R\t")) continue;
    const auto fields = SplitChar(line, '\t');
    if (fields.size() < 5) continue;
    const auto a = by_canonical.find(std::string(fields[1]));
    const auto b = by_canonical.find(std::string(fields[2]));
    if (a == by_canonical.end() || b == by_canonical.end()) continue;
    Rule rule;
    rule.a = std::min(a->second, b->second);
    rule.b = std::max(a->second, b->second);
    rule.support = std::strtod(std::string(fields[3]).c_str(), nullptr);
    rule.confidence = std::strtod(std::string(fields[4]).c_str(), nullptr);
    rule.expert = fields.size() >= 6 && fields[5] == "expert";
    if (base.rules_.emplace(MiningStats::PairKey(rule.a, rule.b), rule)
            .second) {
      base.Link(rule.a, rule.b);
    }
  }
  return base;
}

}  // namespace sld::core
