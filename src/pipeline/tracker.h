// GroupTracker: the sequenced merge step's bookkeeping.
//
// One union-find over the open messages receives every merge edge the
// stages emit (temporal + rule edges from the shard step, cross-router
// edges from the merge step itself), so the final partition is
// bit-identical at every shard count of pipeline::ShardedPipeline.  The
// tracker also owns the streaming lifecycle: per-group first/last
// activity clocks, the idle sweep that closes groups no further message
// could join (run only when a message follows a stream gap of 30 s or
// more), the max-age force close that bounds latency and memory for
// never-ending periodic trains, and arena compaction once closed
// messages dominate.
//
// Messages are addressed by their sequence number (raw index); an edge
// whose endpoint has already been emitted is skipped — its chain tail
// closed under a short idle horizon.
#pragma once

#include <cstdint>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
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
  // Sweeps run only when the stream clock has advanced this far since the
  // last observed message, so no group closes between two messages less
  // than this far apart (RuleStage's joins rely on it).
  static constexpr TimeMs kSweepIntervalMs = 30 * kMsPerSecond;

  // `kb_mutex`, when given, is reader-locked around event building: the
  // sharded pipeline's workers may grow the template set (catch-all
  // creation) concurrently with the merge thread reading it for labels.
  GroupTracker(const core::KnowledgeBase* kb, const core::LocationDict* dict,
               TimeMs idle_close_ms, TimeMs max_group_age_ms,
               std::shared_mutex* kb_mutex = nullptr);

  // Advances the stream clock; when a sweep is due, closes every group
  // that has been idle past the horizon (or alive past the max age) and
  // returns its events, ordered by start time.
  std::vector<core::DigestEvent> Observe(TimeMs now);

  // Admits a message to the arena (sequence numbers must be fresh and
  // increasing — the sequenced merge stage guarantees that).
  void Add(core::Augmented msg);

  // Applies merge edges; endpoints already emitted (or never seen) are
  // skipped and the edge is dropped.
  void ApplyEdges(const std::vector<MergeEdge>& edges);

  // True when both messages are open and currently in the same group.
  bool SameGroup(std::size_t seq_a, std::size_t seq_b);

  // Refreshes the activity clock of the group containing `seq`.
  void Touch(std::size_t seq, TimeMs t);

  // Records rules that fired (distinct count reported to the result).
  void NoteRules(const std::vector<std::uint64_t>& keys);

  // Closes every open group (end of stream); events ordered by start.
  // The stream clock keeps the last observed time, so a tracker restored
  // from a snapshot taken after Flush sweeps as the stream continues.
  std::vector<core::DigestEvent> Flush();

  // Registers tracker metrics (tracker_* series) with `reg`: open-group /
  // open-message gauges and per-reason close counters (idle sweep,
  // max-age force close, end-of-stream flush).  `reg` must outlive the
  // tracker; call before the first message.
  void BindMetrics(obs::Registry* reg);

  // Checkpointing (DESIGN.md §14): compacts the arena (observably
  // transparent — it already runs at arbitrary times), then serializes
  // the open messages, union-find forest, group metadata, fired-rule
  // set, processed count, and stream clock.  LoadState expects a fresh
  // tracker constructed with the same kb/dict/horizons.
  void SaveState(ckpt::Writer* w);
  bool LoadState(ckpt::Reader* r);

  std::size_t open_group_count() const noexcept { return groups_.size(); }
  std::size_t open_message_count() const noexcept { return open_messages_; }
  std::size_t processed_count() const noexcept { return processed_; }
  std::size_t active_rule_count() const noexcept {
    return active_rules_.size();
  }

 private:
  struct GroupMeta {
    TimeMs first_time = 0;
    TimeMs last_time = 0;
  };

  void MergeSlots(std::size_t a, std::size_t b);
  std::vector<core::DigestEvent> CloseIdle(TimeMs now, bool flushing);
  void SyncGauges() noexcept;
  core::DigestEvent BuildLocked(
      const std::vector<const core::Augmented*>& members) const;
  void CompactArena();

  const core::KnowledgeBase* kb_;
  const core::LocationDict* dict_;
  TimeMs idle_close_ms_;
  TimeMs max_group_age_ms_;
  std::shared_mutex* kb_mutex_;

  // Arena of messages still belonging to open groups (plus closed ones
  // awaiting compaction); union-find indexes into it.
  std::vector<core::Augmented> arena_;
  std::vector<bool> closed_;
  UnionFind uf_{0};
  // sequence number -> arena slot, for OPEN messages only.
  std::unordered_map<std::size_t, std::size_t> slot_;
  // union-find root -> group bookkeeping (kept in sync across unions).
  std::unordered_map<std::size_t, GroupMeta> groups_;
  std::unordered_set<std::uint64_t> active_rules_;
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
