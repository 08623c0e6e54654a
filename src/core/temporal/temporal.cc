#include "core/temporal/temporal.h"

#include <algorithm>
#include <cstdint>

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
  const Key key{(static_cast<std::uint64_t>(msg.tmpl) << 32) |
                    msg.router_key,
                0};
  auto [it, inserted] = states_.emplace(key, KeyState{});
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

std::size_t CountFixedGapGroups(std::span<const Augmented> history,
                                TimeMs gap_ms) {
  std::unordered_map<std::uint64_t, TimeMs> last;
  std::size_t groups = 0;
  for (const Augmented& msg : history) {
    const std::uint64_t key = (static_cast<std::uint64_t>(msg.tmpl) << 32) |
                              msg.router_key;
    const auto [it, inserted] = last.try_emplace(key, msg.time);
    if (inserted || msg.time - it->second > gap_ms) ++groups;
    it->second = msg.time;
  }
  return groups;
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
