// Association rule mining over Syslog+ streams (§4.1.4) and the adaptive
// rule base (weekly add / conservative delete).
//
// Transactions are built with a sliding window W over each router's
// time-sorted message stream (one transaction per message: the set of
// templates seen within W of it).  Only pairwise rules are mined — the
// paper's choice for tractability and reviewability — with thresholds
// SP_min on item support and Conf_min on confidence.  Grouping later
// ignores rule direction and relies on transitivity (§4.2.2).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/augment.h"

namespace sld::core {

struct RuleMinerParams {
  TimeMs window_ms = 60 * kMsPerSecond;  // W
  double min_support = 0.0005;           // SP_min
  double min_confidence = 0.8;           // Conf_min
};

// A mined pairwise rule; `a < b` canonically, confidence is the larger of
// the two directions (direction is ignored when grouping).
struct Rule {
  TemplateId a = kNoTemplate;
  TemplateId b = kNoTemplate;
  double support = 0.0;     // supp({a, b})
  double confidence = 0.0;  // max(conf(a->b), conf(b->a))
  // Expert-pinned rules (Fig. 1's "Domain Expert Rule Adjustment"):
  // entered or vetted by an operator, never touched by periodic updates.
  bool expert = false;
};

// Raw co-occurrence statistics for one mining run (e.g. one week of data).
struct MiningStats {
  std::size_t transaction_count = 0;
  std::size_t message_count = 0;
  // Transactions containing the template at least once.
  std::unordered_map<TemplateId, std::size_t> item_tx;
  // Raw message count per template (for Table 5's coverage column).
  std::unordered_map<TemplateId, std::size_t> item_messages;
  // Transactions containing both templates of the (a<b) pair.
  std::unordered_map<std::uint64_t, std::size_t> pair_tx;

  static std::uint64_t PairKey(TemplateId a, TemplateId b) noexcept {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  double Support(TemplateId t) const;
  double PairSupport(TemplateId a, TemplateId b) const;
  double Confidence(TemplateId from, TemplateId to) const;
};

// Builds transaction statistics from a time-sorted augmented stream.
// Transactions are per-router (messages on different routers never share a
// transaction).
MiningStats MineCooccurrence(std::span<const Augmented> stream,
                             TimeMs window_ms);

// Extracts the rules satisfying (support, confidence) thresholds.
std::vector<Rule> ExtractRules(const MiningStats& stats,
                               const RuleMinerParams& params);

// The adaptive rule knowledge base.
class RuleBase {
 public:
  // Applies one periodic (weekly) update: new qualifying rules are added;
  // an existing rule is deleted only when this period's data contains
  // enough observations of either item and the confidence fell below the
  // threshold (the paper's conservative deletion).  With
  // `naive_deletion`, a rule is also deleted when its items simply fail
  // the support threshold this period — the ablation of DESIGN.md §5.
  struct UpdateResult {
    std::size_t added = 0;
    std::size_t deleted = 0;
  };
  UpdateResult Update(const MiningStats& stats, const RuleMinerParams& params,
                      bool naive_deletion = false);

  bool Has(TemplateId a, TemplateId b) const {
    return rules_.count(MiningStats::PairKey(a, b)) != 0;
  }
  // Every template sharing a rule with `t`, ascending; a self-rule lists
  // `t` itself.  Rule grouping visits only these templates' windows.
  std::span<const TemplateId> Neighbors(TemplateId t) const {
    if (t >= adjacency_.size()) return {};
    return adjacency_[t];
  }
  std::size_t size() const noexcept { return rules_.size(); }
  std::vector<Rule> All() const;

  // -- domain expert adjustment (Fig. 1) ----------------------------------
  // Pins a rule the expert asserts; it participates in grouping and is
  // exempt from periodic deletion.  Pinning an existing mined rule
  // upgrades it in place.
  void AddExpertRule(TemplateId a, TemplateId b);
  // Removes a rule the expert rejects ("puzzling or even bizarre" mined
  // associations, §3.1).  Returns false when absent.
  bool RemoveRule(TemplateId a, TemplateId b);

  // Serialization by template canonical names (stable across processes).
  std::string Serialize(const TemplateSet& templates) const;
  static RuleBase Deserialize(std::string_view text,
                              const TemplateSet& templates);

 private:
  // Minimum observations of an item this period before a rule involving
  // it may be deleted.
  static constexpr std::size_t kMinEvidence = 5;
  // Deletion hysteresis: evict only when confidence falls clearly below
  // the admission threshold (conservative deletion, §4.1.4).
  static constexpr double kDeletionMargin = 0.75;

  // Keep adjacency_ in step with rules_: every insert links the pair,
  // every erase unlinks it.
  void Link(TemplateId a, TemplateId b);
  void Unlink(TemplateId a, TemplateId b);

  std::unordered_map<std::uint64_t, Rule> rules_;
  // Template id -> Neighbors(), sorted.
  std::vector<std::vector<TemplateId>> adjacency_;
};

}  // namespace sld::core
