// Offline template learning (§4.1.1, Fig. 2).
//
// For each message type (error code), messages are decomposed into
// whitespace-separated words and organized into a sub-type tree:
//  - words denoting specific locations are excluded from signatures,
//  - a word position taking more than `max_branch` (the paper's k = 10)
//    distinct values is considered variable and masked,
//  - a position with a small set of distinct values splits the node into
//    one child per value (the "most frequent word combination" step, with
//    the paper's pruning rule folded in: a split that would create more
//    than k children is masked instead),
//  - every root-to-leaf path becomes one template.
//
// The paper's stated caveat applies here too: a variable position with too
// few observed values (e.g. a protocol enabled on one interface type only)
// is learned as a constant or a small set of sub-types.  §5.2.1 measures
// exactly how often that happens against ground truth.
#pragma once

#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/interner.h"
#include "core/templates/template.h"

namespace sld::core {

struct TemplateLearnerParams {
  // k: maximum children of a node; positions with more distinct values are
  // masked.  The paper uses 10.
  int max_branch = 10;
  // A position is forcibly masked when at least this fraction of its
  // distinct values are location-like words.
  double location_fraction = 0.5;
};

class TemplateLearner {
 public:
  explicit TemplateLearner(TemplateLearnerParams params = {})
      : params_(params) {}

  // Feeds one historical message.
  void Add(std::string_view code, std::string_view detail);

  // Number of messages fed so far.
  std::size_t message_count() const noexcept { return message_count_; }

  // Builds the template set from everything fed so far.  Templates
  // never straddle codes or token counts, so one sub-type tree is built
  // per (code, token count), in code then token-count ascending order;
  // that order fixes the template ids.
  TemplateSet Learn() const;

 private:
  using TokenId = StringInterner::Id;

  struct TypeData {
    // Messages of this code, each a token-id sequence.
    std::vector<std::vector<TokenId>> messages;
  };

  void Split(std::string_view code,
             const std::vector<const std::vector<TokenId>*>& msgs,
             std::vector<TokenId>& shape, TemplateSet& out) const;
  bool IsLocationToken(TokenId id) const;

  TemplateLearnerParams params_;
  StringInterner interner_;
  // Sentinel token ids used in `shape` during tree construction.
  static constexpr TokenId kOpen = 0xfffffffeu;   // position undecided
  static constexpr TokenId kMasked = 0xffffffffu;
  std::unordered_map<std::string, TypeData> types_;
  mutable std::vector<signed char> location_cache_;  // -1 unknown, 0/1
  std::size_t message_count_ = 0;
};

}  // namespace sld::core
