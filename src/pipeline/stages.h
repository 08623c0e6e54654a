// The staged grouping pipeline (§4.2): the three grouping passes of the
// online system expressed as composable, single-responsibility stage types
// over the augmented stream.
//
// Every stage consumes messages in timestamp order and emits *merge
// edges* — pairs of message sequence numbers (raw indices) that belong to
// the same network event.  All edges flow into one union-find (the
// GroupTracker), so the final partition is independent of which stage
// found an edge first — the §4.2.3 order-independence property the seed
// digesters relied on, now load-bearing for sharding:
//
//   decode/collect -> signature match + augment -> per-router shard
//     (core::TemporalGrouper + RuleStage: only touch per-router state)
//   -> sequenced merge (CrossRouterStage + GroupTracker: the only
//      globally-coupled pass, §4.2.3's 1-second window)
//   -> prioritize / present.
//
// The temporal pass (§4.2.1) is core::TemporalGrouper itself, keyed by
// (template, router); RuleStage keys its windows by router.  So a shard
// that owns a subset of routers and sees its messages in global
// timestamp order produces exactly the edges the single-threaded
// digester would.  CrossRouterStage compares messages across routers and
// therefore runs on the one sequenced merge thread.  Stages keep their
// own bounded copies of the window fields they need, so they never point
// into the tracker's arena, whose slots are reused once their group
// closes.
//
// Each stage reads and writes its own checkpoint section (DESIGN.md
// §14).  The per-router passes save every shard's state in one section,
// merged in key order, and load each router's state into the shard that
// owns it, so a snapshot restores at any shard count.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/augment.h"
#include "core/rules/rules.h"

namespace sld::pipeline {

// A merge instruction: the messages with sequence numbers (raw indices)
// `a` and `b` belong to the same event.
struct MergeEdge {
  std::size_t a = 0;
  std::size_t b = 0;
};

// Pass 2 (§4.2.2): different templates on the same router related by a
// mined association rule, spatially matched, within the mining window W.
// Per-router sliding windows, so shardable.
//
// Each router's window is one arrival-order deque (eviction and the
// snapshot walk it) plus, per template with entries in the window, the
// entries' positions.  A message visits only the position lists of its
// template's rule neighbours, and each list carries a *join*: the latest
// message that matched every entry of the list's prefix, all of one
// spatial scope.  A later message of that scope emits one edge to the
// joiner instead of one per prefix entry, so a storm costs O(rule
// degree) per message, not O(window).  DESIGN.md §7 states the invariants
// that keep the partition identical to the per-entry scan.
class RuleStage {
 public:
  RuleStage(const core::RuleBase* rules, TimeMs window_ms,
            const core::LocationDict* dict)
      : rules_(rules), window_ms_(window_ms), dict_(dict) {}

  // Appends the merge edges for `msg` and the pair key of every rule it
  // fired (once per neighbour template with a match).
  void Feed(const core::Augmented& msg, std::vector<MergeEdge>* out,
            std::vector<std::uint64_t>* fired_rules);

  // Checkpointing: the windows of every stage in `stages` (one per
  // shard) in router-key order, entries oldest-first.  LoadWindows hands
  // each window to `owner(router_key)`.  Joins are not saved; after a
  // restore, a list's first visit scans it.
  static void SaveWindows(std::span<const RuleStage* const> stages,
                          ckpt::Writer* w);
  static bool LoadWindows(
      ckpt::Reader* r, const std::function<RuleStage*(std::uint32_t)>& owner);

 private:
  // Messages of one scope always pass the spatial check against each
  // other: both without locations, or both led by the same router-level
  // location (SpatiallyMatched(x, x) holds).  kNoScope: check per entry.
  using Scope = std::uint32_t;
  static constexpr Scope kNoScope = core::kNoId;
  static constexpr Scope kNoLocations = core::kNoId - 1;

  struct Entry {
    std::size_t seq;
    TimeMs time;
    core::TemplateId tmpl;
    Scope scope;
    std::vector<core::LocationId> locs;
  };
  // One template's entries in a router's window, oldest first, as
  // absolute window positions pos[head..).  The first `joined` of them
  // all have scope `scope`, and `joiner` was merged with the newest of
  // them while it was open, so the joiner's group holds every one that
  // is still open.
  struct TemplateList {
    std::vector<std::uint64_t> pos;
    std::size_t head = 0;
    std::size_t joined = 0;
    std::size_t joiner = 0;
    Scope scope = kNoScope;
  };
  struct Window {
    std::deque<Entry> entries;
    std::uint64_t base = 0;  // absolute position of entries.front()
    std::unordered_map<core::TemplateId, TemplateList> lists;
  };

  Scope ScopeOf(const std::vector<core::LocationId>& locs) const;
  bool Matched(const core::Augmented& msg, Scope scope,
               const Entry& other) const;
  void Append(Window& window, Entry entry);
  void Evict(Window& window, TimeMs now);

  const core::RuleBase* rules_;
  TimeMs window_ms_;
  const core::LocationDict* dict_;
  std::unordered_map<std::uint32_t, Window> windows_;
  // Entries below this sequence number were restored: a Flush before the
  // snapshot may have closed them, so no join may rest on them.
  std::size_t live_seq_ = 0;
};

// Pass 3 (§4.2.3): the same template on connected locations of different
// routers at "almost the same time" (the 1-second window).  This is the
// only stage whose window spans routers, so it runs on the sequenced
// merge thread, after the shard edges for the message have been applied.
class CrossRouterStage {
 public:
  // "Almost the same time": §4.2.3's 1 second.
  static constexpr TimeMs kWindowMs = 1 * kMsPerSecond;

  explicit CrossRouterStage(const core::LocationDict* dict) : dict_(dict) {}

  // `same_group(a, b)` lets the stage skip the location scan for pairs the
  // tracker already holds together (an optimization, not a correctness
  // requirement: re-merging a joined pair is a no-op).
  template <typename SameGroupFn>
  void Feed(const core::Augmented& msg, SameGroupFn&& same_group,
            std::vector<MergeEdge>* out) {
    while (!window_.empty() &&
           msg.time - window_.front().time > kWindowMs) {
      window_.pop_front();
    }
    // A message without locations is Connected to nothing: it only joins
    // the window.
    if (!msg.locs.empty()) {
      for (const Entry& other : window_) {
        if (other.tmpl != msg.tmpl) continue;
        if (other.router_key == msg.router_key) continue;
        if (same_group(msg.raw_index, other.seq)) continue;
        bool connected = false;
        for (const core::LocationId la : msg.locs) {
          for (const core::LocationId lb : other.locs) {
            if (dict_->Connected(la, lb)) {
              connected = true;
              break;
            }
          }
          if (connected) break;
        }
        if (connected) out->push_back({msg.raw_index, other.seq});
      }
    }
    window_.push_back(
        {msg.raw_index, msg.time, msg.tmpl, msg.router_key, msg.locs});
  }

  // Checkpointing: the cross-router window in deque (= global time)
  // order.  This stage lives on the one merge thread, so its section is
  // already canonical.
  void SaveState(ckpt::Writer* w) const;
  bool LoadState(ckpt::Reader* r);

 private:
  struct Entry {
    std::size_t seq;
    TimeMs time;
    core::TemplateId tmpl;
    std::uint32_t router_key;
    std::vector<core::LocationId> locs;
  };

  const core::LocationDict* dict_;
  std::deque<Entry> window_;
};

}  // namespace sld::pipeline
