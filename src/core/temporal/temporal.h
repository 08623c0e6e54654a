// Temporal pattern mining and temporal grouping (§4.1.3, §4.2.1).
//
// Messages with the same template on the same router often recur
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
// ratio on historical data (the sweeps of Figs. 10-11).  Online, every
// pipeline shard holds one TemporalGrouper as its temporal pass: a chain
// lives on the shard of its router, and the shard turns the tail each
// Feed reports into a merge edge.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <unordered_map>

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
// unique within one grouper instance.  One chain per (template, router).
class TemporalGrouper {
 public:
  TemporalGrouper(TemporalParams params, const TemporalPriors* priors)
      : params_(params), priors_(priors) {}

  // Returns the temporal group id assigned to this message.  When the
  // message continues its chain's group and `prev` is given, *prev
  // receives the sequence number (raw index) of the chain's previous
  // message.
  std::size_t Feed(const Augmented& msg,
                   std::optional<std::size_t>* prev = nullptr);

  std::size_t group_count() const noexcept { return next_group_; }

  // Checkpointing (DESIGN.md §14): the live chains of every grouper in
  // `groupers` (one per shard), merged in key order, so the section does
  // not depend on the shard count.  LoadChains hands each chain to
  // `owner(router_key)`, where it gets a freshly allocated group id:
  // only chain identity matters.
  static void SaveChains(std::span<const TemporalGrouper* const> groupers,
                         ckpt::Writer* w);
  static bool LoadChains(
      ckpt::Reader* r,
      const std::function<TemporalGrouper*(std::uint32_t)>& owner);

 private:
  struct KeyState {
    TimeMs last_time = 0;
    double shat = 0.0;
    std::size_t group = 0;
    std::size_t tail = 0;  // sequence number of the chain's latest message
  };

  double PriorFor(TemplateId tmpl) const;

  TemporalParams params_;
  const TemporalPriors* priors_;
  // Keyed on (template << 32 | router key).
  std::unordered_map<std::uint64_t, KeyState> states_;
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

}  // namespace sld::core
