#include "core/templates/learner.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/strings.h"
#include "core/templates/token_class.h"

namespace sld::core {

void TemplateLearner::Add(std::string_view code, std::string_view detail) {
  std::vector<std::string_view>& tokens = TlsTokenScratch();
  SplitWhitespace(detail, &tokens);
  std::vector<TokenId> ids;
  ids.reserve(tokens.size());
  for (const std::string_view tok : tokens) {
    ids.push_back(interner_.Intern(tok));
  }
  types_[std::string(code)].messages.push_back(std::move(ids));
  ++message_count_;
}

bool TemplateLearner::IsLocationToken(TokenId id) const {
  if (location_cache_.size() <= id) {
    location_cache_.resize(interner_.size(), -1);
  }
  signed char& slot = location_cache_[id];
  if (slot < 0) {
    slot = LooksLikeLocationToken(StripPunct(interner_.Get(id))) ? 1 : 0;
  }
  return slot == 1;
}

TemplateSet TemplateLearner::Learn() const {
  std::map<std::string_view, const TypeData*> ordered;
  for (const auto& [code, data] : types_) ordered.emplace(code, &data);
  TemplateSet out;
  for (const auto& [code, data] : ordered) {
    std::map<std::size_t, std::vector<const std::vector<TokenId>*>> by_len;
    for (const std::vector<TokenId>& msg : data->messages) {
      by_len[msg.size()].push_back(&msg);
    }
    for (const auto& [len, msgs] : by_len) {
      std::vector<TokenId> shape(len, kOpen);
      Split(code, msgs, shape, out);
    }
  }
  return out;
}

void TemplateLearner::Split(
    std::string_view code,
    const std::vector<const std::vector<TokenId>*>& msgs,
    std::vector<TokenId>& shape, TemplateSet& out) const {
  const std::size_t len = shape.size();
  // Effective branch cap: the paper's k, tightened by sample size — "there
  // would be many more messages associated with each sub type" (§4.1.1),
  // so a node of n messages may not split into more than ~sqrt(n)
  // children; with scarce data a varied position masks instead.
  const std::size_t cap = std::min(
      static_cast<std::size_t>(params_.max_branch),
      static_cast<std::size_t>(
          std::ceil(std::sqrt(static_cast<double>(msgs.size())))));

  // Examine every undecided position: count distinct values (capped) and
  // how many of them are location words.  Masking is NOT committed here:
  // a position that looks variable in a heterogeneous parent may become
  // constant inside a child, so variable positions stay open and are only
  // masked when a leaf is emitted.
  std::size_t split_pos = len;  // best splittable position
  std::size_t split_card = cap + 1;
  for (std::size_t p = 0; p < len; ++p) {
    if (shape[p] != kOpen) continue;
    std::vector<TokenId> distinct;
    bool overflow = false;
    for (const auto* msg : msgs) {
      const TokenId id = (*msg)[p];
      if (std::find(distinct.begin(), distinct.end(), id) ==
          distinct.end()) {
        distinct.push_back(id);
        if (distinct.size() > cap) {
          overflow = true;
          break;
        }
      }
    }
    std::size_t location_values = 0;
    for (const TokenId id : distinct) {
      if (IsLocationToken(id)) ++location_values;
    }
    // Location words are excluded from signatures (§3.1): the position is
    // neither fixed as a constant nor split on, so it masks at the leaf.
    const bool location_pos =
        !distinct.empty() &&
        static_cast<double>(location_values) >=
            params_.location_fraction * static_cast<double>(distinct.size());
    if (location_pos || overflow) continue;
    if (distinct.size() == 1) {
      shape[p] = distinct.front();  // constant word
    } else if (distinct.size() < split_card) {
      split_card = distinct.size();
      split_pos = p;
    }
  }

  if (split_pos == len) {
    // No splittable position left: emit this leaf as a template; every
    // still-open position is a variable and masks to "*".
    std::vector<std::string> tokens;
    tokens.reserve(len);
    for (const TokenId id : shape) {
      tokens.emplace_back(id == kMasked || id == kOpen
                              ? std::string(kMask)
                              : std::string(interner_.Get(id)));
    }
    out.Add(std::string(code), std::move(tokens));
    return;
  }

  // Split: one child per distinct value at the chosen position (the
  // "most frequent word combination first" of the paper's BFS, realized
  // as the most concentrated position).
  std::map<TokenId, std::vector<const std::vector<TokenId>*>> children;
  for (const auto* msg : msgs) children[(*msg)[split_pos]].push_back(msg);
  // Undo constant fixing for positions that must be re-examined per child
  // is unnecessary: constants stay constant in subsets; open positions
  // stay open and are re-evaluated recursively.
  for (auto& [value, child_msgs] : children) {
    std::vector<TokenId> child_shape = shape;
    child_shape[split_pos] = value;
    Split(code, child_msgs, child_shape, out);
  }
}

}  // namespace sld::core
