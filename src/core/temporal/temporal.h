// Temporal pattern mining and temporal grouping (§4.1.3, §4.2.1).
//
// Messages with the same template at the same location often recur
// periodically (timers, unstable hardware).  The interarrival time is
// tracked with an exponentially weighted moving average
//     Ŝ_t = α · S_{t-1} + (1 − α) · Ŝ_{t-1}
// and a new message joins the current group iff its real interarrival S_t
// is no more than β times the prediction, clamped by S_min (always group)
// and S_max (never group) — the clamps the paper introduces because the
// EWMA alone does not converge.
//
// The offline miner learns (a) per-template interarrival priors used to
// seed Ŝ for fresh groups and (b) the α/β that optimize the compression
// ratio on historical data (the sweeps of Figs. 10-11).
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "core/augment.h"

namespace sld::core {

struct TemporalParams {
  double alpha = 0.05;
  double beta = 5.0;
  TimeMs smin = 1 * kMsPerSecond;  // finest syslog granularity
  TimeMs smax = 3 * kMsPerHour;    // domain-knowledge upper bound
};

// Per-template interarrival prior (seeds Ŝ when a group starts).
using TemporalPriors = std::unordered_map<TemplateId, double>;

inline constexpr double kDefaultPriorMs = 60.0 * 1000.0;

// Streaming temporal grouper.  Feed messages in time order; each call
// returns the group id the message belongs to.  Group ids are globally
// unique within one grouper instance.
class TemporalGrouper {
 public:
  TemporalGrouper(TemporalParams params, const TemporalPriors* priors)
      : params_(params), priors_(priors) {}

  // Returns the temporal group id assigned to this message.
  std::size_t Feed(const Augmented& msg);

  std::size_t group_count() const noexcept { return next_group_; }

  // Checkpointing (DESIGN.md §14): one live (template, router) chain.
  // Exported group ids identify chains within one export; on import
  // each chain gets a freshly allocated id, so snapshots are portable
  // across instances (and shard counts) — only chain identity matters.
  struct ChainState {
    std::uint64_t key_a = 0;
    std::uint32_t key_b = 0;
    TimeMs last_time = 0;
    double shat = 0.0;
    std::size_t group = 0;
  };
  void ExportChains(std::vector<ChainState>* out) const {
    out->reserve(out->size() + states_.size());
    for (const auto& [key, st] : states_) {
      out->push_back({key.a, key.b, st.last_time, st.shat, st.group});
    }
  }
  // Restores one chain under a new group id and returns that id.
  std::size_t ImportChain(const ChainState& chain) {
    KeyState st;
    st.last_time = chain.last_time;
    st.shat = chain.shat;
    st.group = next_group_++;
    states_[Key{chain.key_a, chain.key_b}] = st;
    return st.group;
  }

 private:
  struct KeyState {
    TimeMs last_time = 0;
    double shat = 0.0;
    bool has_interval = false;
    std::size_t group = 0;
  };

  double PriorFor(TemplateId tmpl) const;

  TemporalParams params_;
  const TemporalPriors* priors_;
  // Key: (template, primary location, router) packed into a string-free
  // 96-bit key.
  struct Key {
    std::uint64_t a;
    std::uint32_t b;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return std::hash<std::uint64_t>{}(k.a * 1000003u + k.b);
    }
  };
  std::unordered_map<Key, KeyState, KeyHash> states_;
  std::size_t next_group_ = 0;
};

// Computes per-template interarrival priors from a historical augmented
// stream (median interarrival among gaps below smax).
TemporalPriors MineTemporalPriors(std::span<const Augmented> history,
                                  TimeMs smax = 3 * kMsPerHour);

// Number of temporal groups produced on `history` with the given
// parameters; compression ratio = groups / messages.
std::size_t CountTemporalGroups(std::span<const Augmented> history,
                                const TemporalParams& params,
                                const TemporalPriors& priors);

// Grid-search for the (alpha, beta) minimizing the temporal compression
// ratio on `history` (the paper's Figs. 10-11 procedure): one full pass
// per grid point, alpha outer and beta inner; the first minimum wins.
TemporalParams SelectTemporalParams(std::span<const Augmented> history,
                                    const TemporalPriors& priors,
                                    std::span<const double> alpha_grid,
                                    std::span<const double> beta_grid);

// Ablation baseline: grouping with a FIXED gap threshold (same group iff
// the interarrival is <= `gap_ms`) instead of the adaptive EWMA.  Used by
// bench_ablation_fixed_gap to show why the paper predicts per-template
// periods rather than picking one global cutoff.
std::size_t CountFixedGapGroups(std::span<const Augmented> history,
                                TimeMs gap_ms);

}  // namespace sld::core
