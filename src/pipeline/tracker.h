// GroupTracker: the sequenced merge step's bookkeeping.
//
// One union-find over the open messages receives every merge edge the
// stages emit (temporal + rule edges from the shard step, cross-router
// edges from the merge step itself), so the final partition is
// bit-identical at every shard count of pipeline::ShardedPipeline.  The
// tracker also owns the streaming lifecycle: per-group first/last
// activity clocks, and a sweep each time the stream clock enters a new
// 30 s bucket that closes every group idle past the horizon or alive
// past the max age (the force close that bounds latency and memory for
// never-ending periodic trains).
//
// A sweep costs what it closes.  Open groups sit in two orders, by last
// activity and by first message, so a sweep takes the idle and over-age
// groups off their fronts; each group keeps its members in a list
// threaded through the arena, so a close walks only its own messages.
// Closed slots go on a free list that Add reuses, so the arena, forest
// and links are sized by the peak number of open messages, not by the
// messages seen.
//
// Messages are addressed by their sequence number (raw index), which a
// table indexed from the oldest open message maps to its slot; an edge
// whose endpoint has already been emitted is skipped — its chain tail
// closed under a short idle horizon.
#pragma once

#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/union_find.h"
#include "core/digest.h"
#include "obs/metrics.h"
#include "pipeline/stages.h"

namespace sld::obs {
class Registry;
}  // namespace sld::obs

namespace sld::ckpt {
class Writer;
class Reader;
}  // namespace sld::ckpt

namespace sld::pipeline {

class GroupTracker {
 public:
  // An idle horizon that never closes a group before Flush (batch mode).
  static constexpr TimeMs kUnboundedMs = INT64_MAX / 4;
  // The sweep cadence: Observe sweeps when the stream clock enters a
  // later bucket of this width, so no group closes between two messages
  // of one bucket (RuleStage's joins rely on it).  At serve's 1,800 s
  // horizon it adds at most this much close latency.
  static constexpr TimeMs kSweepIntervalMs = 30 * kMsPerSecond;

  // The sweep bucket of stream time `t`, rounded down (so the initial
  // clock, INT64_MIN, buckets before every stream time).
  static constexpr TimeMs SweepBucket(TimeMs t) noexcept {
    return t / kSweepIntervalMs - (t % kSweepIntervalMs < 0 ? 1 : 0);
  }

  // `kb_mutex`, when given, is reader-locked around event building: the
  // sharded pipeline's workers may grow the template set (catch-all
  // creation) concurrently with the merge thread reading it for labels.
  GroupTracker(const core::KnowledgeBase* kb, const core::LocationDict* dict,
               TimeMs idle_close_ms, TimeMs max_group_age_ms,
               std::shared_mutex* kb_mutex = nullptr);

  // The idle index points into groups_, so a tracker stays where it is.
  GroupTracker(const GroupTracker&) = delete;
  GroupTracker& operator=(const GroupTracker&) = delete;

  // Advances the stream clock; when it enters a later sweep bucket,
  // closes every group that has been idle past the horizon (or alive
  // past the max age) and returns its events, ordered by start time.
  std::vector<core::DigestEvent> Observe(TimeMs now);

  // Admits a message (sequence numbers must be fresh and increasing, and
  // stream time non-decreasing — the sequenced merge stage guarantees
  // both).  A reused slot keeps its location buffer's capacity.
  void Add(const core::Augmented& msg);

  // Applies merge edges; endpoints already emitted (or never seen) are
  // skipped and the edge is dropped.
  void ApplyEdges(const std::vector<MergeEdge>& edges);

  // True when both messages are open and currently in the same group.
  bool SameGroup(std::size_t seq_a, std::size_t seq_b);

  // Refreshes the activity clock of the group containing `seq`.
  void Touch(std::size_t seq, TimeMs t);

  // Records rules that fired (distinct count reported to the result).
  void NoteRules(const std::vector<std::uint64_t>& keys);

  // Closes every open group (end of stream) and hands the arena's
  // storage back; events ordered by start.  The stream clock keeps the
  // last observed time, so a tracker restored from a snapshot taken
  // after Flush sweeps as the stream continues.
  std::vector<core::DigestEvent> Flush();

  // Registers tracker metrics (tracker_* series) with `reg`: open-group /
  // open-message gauges and per-reason close counters (idle sweep,
  // max-age force close, end-of-stream flush).  `reg` must outlive the
  // tracker; call before the first message.
  void BindMetrics(obs::Registry* reg);

  // Checkpointing (DESIGN.md §14): serializes the open messages in
  // sequence order with the canonical forest over them (each message
  // points at its group's first member), the group metadata, fired-rule
  // set, processed count, and stream clock — slot assignment never shows
  // in the bytes.  LoadState expects a fresh tracker constructed with
  // the same kb/dict/horizons, and refuses a body whose forest or group
  // rows are malformed.
  void SaveState(ckpt::Writer* w);
  bool LoadState(ckpt::Reader* r);

  std::size_t open_group_count() const noexcept { return groups_.size(); }
  std::size_t open_message_count() const noexcept { return open_messages_; }
  std::size_t processed_count() const noexcept { return processed_; }
  // Arena slots, open or free: the peak open-message count since
  // construction, restore or Flush.
  std::size_t slot_count() const noexcept { return arena_.size(); }
  std::size_t active_rule_count() const noexcept {
    return active_rules_.size();
  }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  struct GroupMeta;
  // A group's place in one order of the idle index.
  struct Link {
    GroupMeta* prev = nullptr;
    GroupMeta* next = nullptr;
  };
  struct GroupMeta {
    std::size_t root = 0;  // its key in groups_
    TimeMs first_time = 0;
    TimeMs last_time = 0;
    // Member slots, linked through next_ (any order).
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    Link by_last;   // in recent_
    Link by_first;  // in aged_
  };
  // Open groups ordered by one of their clocks, oldest first, linked
  // through the groups' own metadata (groups_ nodes never move).  Stream
  // time never decreases, so a refreshed or new group lands at the back
  // after one comparison.
  class Order {
   public:
    Order(Link GroupMeta::*link, TimeMs GroupMeta::*clock)
        : link_(link), clock_(clock) {}
    GroupMeta* oldest() const noexcept { return head_; }
    // Links `g` behind every group whose clock is not later than its own.
    void Insert(GroupMeta* g) noexcept;
    void Erase(GroupMeta* g) noexcept;
    // Folds `from` into `into` when two groups merge: the merged group
    // keeps `into`'s place when `into_holds` (its clock is the merged
    // one), else takes `from`'s.  `from` leaves the order.
    void Fold(GroupMeta* into, GroupMeta* from, bool into_holds) noexcept;
    void Clear() noexcept { head_ = tail_ = nullptr; }

   private:
    // The pointer that leads to the group after `g` (head_ when null),
    // and the one that leads back to the group before `g` (tail_).
    GroupMeta*& NextOf(GroupMeta* g) noexcept {
      return g != nullptr ? (g->*link_).next : head_;
    }
    GroupMeta*& PrevOf(GroupMeta* g) noexcept {
      return g != nullptr ? (g->*link_).prev : tail_;
    }

    Link GroupMeta::*link_;
    TimeMs GroupMeta::*clock_;
    GroupMeta* head_ = nullptr;
    GroupMeta* tail_ = nullptr;
  };

  // The slot of an open message, else kNil.
  std::uint32_t SlotOf(std::size_t seq) const noexcept {
    return seq >= seq_base_ && seq - seq_base_ < slot_of_.size()
               ? slot_of_[seq - seq_base_]
               : kNil;
  }
  void MergeSlots(std::size_t a, std::size_t b);
  // Closes the groups idle past the horizon at `now`, then those alive
  // past the max age (or, flushing, every group).
  std::vector<core::DigestEvent> Sweep(TimeMs now, bool flushing);
  // Builds `g`'s event and frees its slots.
  core::DigestEvent Close(GroupMeta* g);
  void SyncGauges() noexcept;
  core::DigestEvent BuildLocked(
      const std::vector<const core::Augmented*>& members) const;

  const core::KnowledgeBase* kb_;
  const core::LocationDict* dict_;
  TimeMs idle_close_ms_;
  TimeMs max_group_age_ms_;
  std::shared_mutex* kb_mutex_;

  // Arena of slots; union-find and next_ index into it.  A free slot is
  // linked through next_ from free_ and keeps its last message until
  // reused.
  std::vector<core::Augmented> arena_;
  std::vector<std::uint32_t> next_;
  std::uint32_t free_ = kNil;
  UnionFind uf_{0};
  // Sequence number -> arena slot: slot_of_[i] holds sequence number
  // seq_base_ + i, kNil once closed.  Sequence numbers are dense, so it
  // spans the open ones from the oldest and sheds its closed front.
  std::deque<std::uint32_t> slot_of_;
  std::size_t seq_base_ = 0;
  // union-find root -> group bookkeeping (kept in sync across unions).
  std::unordered_map<std::size_t, GroupMeta> groups_;
  Order recent_{&GroupMeta::by_last, &GroupMeta::last_time};
  Order aged_{&GroupMeta::by_first, &GroupMeta::first_time};
  std::unordered_set<std::uint64_t> active_rules_;
  // Reused by every close: a group's (sequence number, slot) pairs and
  // its members in sequence order.
  std::vector<std::pair<std::size_t, std::uint32_t>> close_order_;
  std::vector<const core::Augmented*> close_members_;
  std::size_t open_messages_ = 0;
  std::size_t processed_ = 0;
  TimeMs clock_ = INT64_MIN;

  // Metric cells (null until BindMetrics).
  struct Cells {
    obs::Gauge* open_groups = nullptr;
    obs::Gauge* open_messages = nullptr;
    obs::Counter* closed_idle = nullptr;
    obs::Counter* closed_max_age = nullptr;
    obs::Counter* closed_flush = nullptr;
    obs::Histogram* event_messages = nullptr;  // group size at close
  } cells_;
};

}  // namespace sld::pipeline
