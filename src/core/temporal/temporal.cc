#include "core/temporal/temporal.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ckpt/codec.h"

namespace sld::core {

double TemporalGrouper::PriorFor(TemplateId tmpl) const {
  if (priors_ != nullptr) {
    const auto it = priors_->find(tmpl);
    if (it != priors_->end()) return it->second;
  }
  return kDefaultPriorMs;
}

std::size_t TemporalGrouper::Feed(const Augmented& msg,
                                  std::optional<std::size_t>* prev) {
  // Keyed on (template, router): "temporal grouping targets messages with
  // the same template on the same router" (§3.2).
  const std::uint64_t key =
      (static_cast<std::uint64_t>(msg.tmpl) << 32) | msg.router_key;
  auto [it, inserted] = states_.try_emplace(key);
  KeyState& st = it->second;
  if (inserted) {
    st.last_time = msg.time;
    st.shat = PriorFor(msg.tmpl);
    st.group = next_group_++;
    st.tail = msg.raw_index;
    return st.group;
  }
  const TimeMs s = msg.time - st.last_time;
  st.last_time = msg.time;
  const bool same_group =
      s <= params_.smin ||
      (s <= params_.smax &&
       static_cast<double>(s) <= params_.beta * st.shat);
  // EWMA update (the paper's Ŝ_t = α·S_{t-1} + (1-α)·Ŝ_{t-1}).
  st.shat = params_.alpha * static_cast<double>(s) +
            (1.0 - params_.alpha) * st.shat;
  if (!same_group) {
    st.group = next_group_++;
    st.shat = PriorFor(msg.tmpl);  // fresh burst: reseed the prediction
  } else if (prev != nullptr) {
    *prev = st.tail;
  }
  st.tail = msg.raw_index;
  return st.group;
}

void TemporalGrouper::SaveChains(
    std::span<const TemporalGrouper* const> groupers, ckpt::Writer* w) {
  // A router's chains live on one grouper, so keys never repeat.
  std::vector<std::pair<std::uint64_t, const KeyState*>> chains;
  for (const TemporalGrouper* grouper : groupers) {
    for (const auto& [key, st] : grouper->states_) {
      chains.emplace_back(key, &st);
    }
  }
  std::sort(chains.begin(), chains.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w->U64(chains.size());
  for (const auto& [key, st] : chains) {
    w->U64(key);
    w->U32(0);  // reserved, always 0
    w->I64(st->last_time);
    w->F64(st->shat);
    w->U64(st->tail);
  }
}

bool TemporalGrouper::LoadChains(
    ckpt::Reader* r,
    const std::function<TemporalGrouper*(std::uint32_t)>& owner) {
  const std::uint64_t n = r->Count(8 + 4 + 8 + 8 + 8);
  for (std::uint64_t i = 0; i < n && r->ok(); ++i) {
    const std::uint64_t key = r->U64();
    const std::uint32_t reserved = r->U32();
    KeyState st;
    st.last_time = r->I64();
    st.shat = r->F64();
    st.tail = r->U64();
    if (!r->ok() || reserved != 0) return false;
    TemporalGrouper* grouper = owner(static_cast<std::uint32_t>(key));
    st.group = grouper->next_group_++;
    grouper->states_[key] = st;
  }
  return r->ok();
}

TemporalPriors MineTemporalPriors(std::span<const Augmented> history,
                                  TimeMs smax) {
  struct PerKey {
    TimeMs last = 0;
    bool seen = false;
  };
  std::unordered_map<std::uint64_t, PerKey> keys;
  std::unordered_map<TemplateId, std::vector<double>> gaps;
  for (const Augmented& msg : history) {
    const std::uint64_t key = (static_cast<std::uint64_t>(msg.tmpl) << 32) |
                              msg.router_key;
    PerKey& pk = keys[key];
    if (pk.seen) {
      const TimeMs gap = msg.time - pk.last;
      if (gap > 0 && gap <= smax) {
        gaps[msg.tmpl].push_back(static_cast<double>(gap));
      }
    }
    pk.last = msg.time;
    pk.seen = true;
  }
  TemporalPriors priors;
  for (auto& [tmpl, values] : gaps) {
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    priors[tmpl] = values[mid];
  }
  return priors;
}

std::size_t CountTemporalGroups(std::span<const Augmented> history,
                                const TemporalParams& params,
                                const TemporalPriors& priors) {
  TemporalGrouper grouper(params, &priors);
  for (const Augmented& msg : history) grouper.Feed(msg);
  return grouper.group_count();
}

TemporalParams SelectTemporalParams(std::span<const Augmented> history,
                                    const TemporalPriors& priors,
                                    std::span<const double> alpha_grid,
                                    std::span<const double> beta_grid) {
  TemporalParams best;
  std::size_t best_groups = SIZE_MAX;
  for (const double alpha : alpha_grid) {
    for (const double beta : beta_grid) {
      TemporalParams params;
      params.alpha = alpha;
      params.beta = beta;
      const std::size_t groups = CountTemporalGroups(history, params, priors);
      if (groups < best_groups) {
        best_groups = groups;
        best = params;
      }
    }
  }
  return best;
}

}  // namespace sld::core
