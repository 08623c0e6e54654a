#include "pipeline/tracker.h"

#include <algorithm>
#include <mutex>

#include "ckpt/codec.h"
#include "obs/registry.h"

namespace sld::pipeline {

GroupTracker::GroupTracker(const core::KnowledgeBase* kb,
                           const core::LocationDict* dict,
                           TimeMs idle_close_ms,
                           TimeMs max_group_age_ms,
                           std::shared_mutex* kb_mutex)
    : kb_(kb),
      dict_(dict),
      idle_close_ms_(idle_close_ms),
      max_group_age_ms_(max_group_age_ms),
      kb_mutex_(kb_mutex) {}

void GroupTracker::BindMetrics(obs::Registry* reg) {
  cells_.open_groups =
      reg->AddGauge("tracker_open_groups", "groups not yet closed");
  cells_.open_messages = reg->AddGauge(
      "tracker_open_messages", "messages belonging to open groups");
  cells_.closed_idle = reg->AddCounter(
      "tracker_groups_closed_total", "groups closed, by reason",
      {{"reason", "idle"}});
  cells_.closed_max_age = reg->AddCounter(
      "tracker_groups_closed_total", "groups closed, by reason",
      {{"reason", "max_age"}});
  cells_.closed_flush = reg->AddCounter(
      "tracker_groups_closed_total", "groups closed, by reason",
      {{"reason", "flush"}});
  cells_.event_messages = reg->AddHistogram(
      "tracker_event_messages", "messages per closed event",
      obs::SizeBuckets());
  SyncGauges();
}

void GroupTracker::SyncGauges() noexcept {
  if (cells_.open_groups == nullptr) return;
  cells_.open_groups->Set(static_cast<std::int64_t>(groups_.size()));
  cells_.open_messages->Set(static_cast<std::int64_t>(open_messages_));
}

std::vector<core::DigestEvent> GroupTracker::Observe(TimeMs now) {
  std::vector<core::DigestEvent> events;
  // Saturates: a snapshot that an older build took after Flush carries
  // the sentinel clock INT64_MAX - idle - 1.
  const TimeMs due = clock_ > INT64_MAX - kSweepIntervalMs
                         ? INT64_MAX
                         : clock_ + kSweepIntervalMs;
  if (now >= due) events = CloseIdle(now, /*flushing=*/false);
  clock_ = std::max(clock_, now);
  return events;
}

void GroupTracker::Add(core::Augmented msg) {
  const std::size_t index = arena_.size();
  const std::size_t seq = msg.raw_index;
  const TimeMs t = msg.time;
  arena_.push_back(std::move(msg));
  closed_.push_back(false);
  uf_.Add();
  slot_[seq] = index;
  groups_[uf_.Find(index)] = {t, t};
  ++open_messages_;
  ++processed_;
  SyncGauges();

  if (arena_.size() > 4096 && arena_.size() > 4 * open_messages_) {
    CompactArena();
  }
}

void GroupTracker::MergeSlots(std::size_t a, std::size_t b) {
  const std::size_t ra = uf_.Find(a);
  const std::size_t rb = uf_.Find(b);
  if (ra == rb) return;
  const GroupMeta ma = groups_[ra];
  const GroupMeta mb = groups_[rb];
  groups_.erase(ra);
  groups_.erase(rb);
  const std::size_t merged = uf_.Union(ra, rb);
  groups_[merged] = {std::min(ma.first_time, mb.first_time),
                     std::max(ma.last_time, mb.last_time)};
}

void GroupTracker::ApplyEdges(const std::vector<MergeEdge>& edges) {
  for (const MergeEdge& e : edges) {
    const auto a = slot_.find(e.a);
    if (a == slot_.end()) continue;  // already emitted; starts anew
    const auto b = slot_.find(e.b);
    if (b == slot_.end()) continue;
    MergeSlots(a->second, b->second);
  }
}

bool GroupTracker::SameGroup(std::size_t seq_a, std::size_t seq_b) {
  const auto a = slot_.find(seq_a);
  if (a == slot_.end()) return false;
  const auto b = slot_.find(seq_b);
  if (b == slot_.end()) return false;
  return uf_.Connected(a->second, b->second);
}

void GroupTracker::Touch(std::size_t seq, TimeMs t) {
  const auto it = slot_.find(seq);
  if (it == slot_.end()) return;
  groups_[uf_.Find(it->second)].last_time = t;
}

void GroupTracker::NoteRules(const std::vector<std::uint64_t>& keys) {
  active_rules_.insert(keys.begin(), keys.end());
}

core::DigestEvent GroupTracker::BuildLocked(
    const std::vector<const core::Augmented*>& members) const {
  if (kb_mutex_ == nullptr) return core::BuildEvent(members, *kb_, *dict_);
  std::shared_lock lock(*kb_mutex_);
  return core::BuildEvent(members, *kb_, *dict_);
}

std::vector<core::DigestEvent> GroupTracker::CloseIdle(TimeMs now,
                                                       bool flushing) {
  std::vector<std::size_t> closing;
  for (const auto& [root, meta] : groups_) {
    const bool idle = now - meta.last_time > idle_close_ms_;
    const bool aged = now - meta.first_time > max_group_age_ms_;
    if (idle || aged) {
      closing.push_back(root);
      if (cells_.closed_idle != nullptr) {
        if (flushing) {
          cells_.closed_flush->Inc();
        } else if (idle) {
          cells_.closed_idle->Inc();
        } else {
          cells_.closed_max_age->Inc();
        }
      }
    }
  }
  if (closing.empty()) return {};

  // One arena scan (ascending sequence order, so score summation matches
  // the batch digester bit for bit) collects every closing group.
  std::unordered_map<std::size_t, std::vector<const core::Augmented*>>
      members;
  for (const std::size_t root : closing) members[root];
  for (std::size_t i = 0; i < arena_.size(); ++i) {
    if (closed_[i]) continue;
    const auto it = members.find(uf_.Find(i));
    if (it == members.end()) continue;
    it->second.push_back(&arena_[i]);
    closed_[i] = true;
    slot_.erase(arena_[i].raw_index);
    --open_messages_;
  }
  std::vector<core::DigestEvent> events;
  events.reserve(closing.size());
  for (const std::size_t root : closing) {
    if (!members[root].empty()) {
      if (cells_.event_messages != nullptr) {
        cells_.event_messages->Observe(
            static_cast<double>(members[root].size()));
      }
      events.push_back(BuildLocked(members[root]));
    }
    groups_.erase(root);
  }
  SyncGauges();
  // Start-time ties are broken by the first member's stream index — a
  // total order over groups that survives checkpoint/restore, where the
  // groups_ map is rebuilt and its iteration order (the old implicit
  // tiebreak) changes.
  std::sort(events.begin(), events.end(),
            [](const core::DigestEvent& a, const core::DigestEvent& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.messages.front() < b.messages.front();
            });
  return events;
}

std::vector<core::DigestEvent> GroupTracker::Flush() {
  std::vector<core::DigestEvent> events =
      CloseIdle(INT64_MAX - 1, /*flushing=*/true);
  CompactArena();
  SyncGauges();
  return events;
}

void GroupTracker::CompactArena() {
  // Remap open messages into a fresh arena, preserving group structure.
  std::vector<core::Augmented> new_arena;
  new_arena.reserve(open_messages_);
  std::vector<std::size_t> remap(arena_.size(), SIZE_MAX);
  for (std::size_t i = 0; i < arena_.size(); ++i) {
    if (closed_[i]) continue;
    remap[i] = new_arena.size();
    new_arena.push_back(std::move(arena_[i]));
  }
  UnionFind new_uf(new_arena.size());
  // Reconstruct unions: connect every open message to its root's first
  // open representative.
  std::unordered_map<std::size_t, std::size_t> first_of_root;
  std::unordered_map<std::size_t, GroupMeta> new_groups;
  for (std::size_t i = 0; i < arena_.size(); ++i) {
    if (remap[i] == SIZE_MAX) continue;
    const std::size_t root = uf_.Find(i);
    const auto [it, inserted] = first_of_root.emplace(root, remap[i]);
    if (!inserted) new_uf.Union(it->second, remap[i]);
  }
  for (const auto& [root, meta] : groups_) {
    const auto it = first_of_root.find(root);
    if (it != first_of_root.end()) {
      new_groups[new_uf.Find(it->second)] = meta;
    }
  }
  arena_ = std::move(new_arena);
  closed_.assign(arena_.size(), false);
  uf_ = std::move(new_uf);
  groups_ = std::move(new_groups);
  slot_.clear();
  for (std::size_t i = 0; i < arena_.size(); ++i) {
    slot_[arena_[i].raw_index] = i;
  }
}

namespace {

void SaveAugmented(const core::Augmented& msg, ckpt::Writer* w) {
  w->I64(msg.time);
  w->U64(msg.raw_index);
  w->U32(msg.tmpl);
  w->U32(msg.router_key);
  w->U8(msg.router_known ? 1 : 0);
  w->U64(msg.locs.size());
  for (const core::LocationId loc : msg.locs) w->U32(loc);
  w->U32(msg.primary);
}

core::Augmented LoadAugmented(ckpt::Reader* r) {
  core::Augmented msg;
  msg.time = r->I64();
  msg.raw_index = r->U64();
  msg.tmpl = r->U32();
  msg.router_key = r->U32();
  msg.router_known = r->U8() != 0;
  msg.locs.resize(r->Count(4));
  for (core::LocationId& loc : msg.locs) loc = r->U32();
  msg.primary = r->U32();
  return msg;
}

}  // namespace

void GroupTracker::SaveState(ckpt::Writer* w) {
  // After compaction the arena holds exactly the open messages in
  // sequence order, closed_ is all-false, and slot_ is the identity —
  // none of those need bytes in the snapshot.
  CompactArena();
  w->U64(arena_.size());
  for (const core::Augmented& msg : arena_) SaveAugmented(msg, w);
  for (const std::size_t p : uf_.parents()) w->U64(p);
  for (const std::size_t s : uf_.sizes()) w->U64(s);
  w->U64(groups_.size());
  // Group metadata sorted by root for a canonical byte stream.
  std::vector<std::pair<std::size_t, GroupMeta>> metas(groups_.begin(),
                                                       groups_.end());
  std::sort(metas.begin(), metas.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [root, meta] : metas) {
    w->U64(root);
    w->I64(meta.first_time);
    w->I64(meta.last_time);
  }
  std::vector<std::uint64_t> rules(active_rules_.begin(),
                                   active_rules_.end());
  std::sort(rules.begin(), rules.end());
  w->U64(rules.size());
  for (const std::uint64_t key : rules) w->U64(key);
  w->U64(processed_);
  w->I64(clock_);
}

bool GroupTracker::LoadState(ckpt::Reader* r) {
  const std::uint64_t n = r->Count(8);
  arena_.clear();
  arena_.reserve(n);
  slot_.clear();
  for (std::uint64_t i = 0; i < n && r->ok(); ++i) {
    arena_.push_back(LoadAugmented(r));
    slot_[arena_.back().raw_index] = i;
  }
  closed_.assign(arena_.size(), false);
  std::vector<std::size_t> parents(arena_.size());
  for (std::size_t& p : parents) p = r->U64();
  std::vector<std::size_t> sizes(arena_.size());
  for (std::size_t& s : sizes) s = r->U64();
  uf_.Rebuild(std::move(parents), std::move(sizes));
  groups_.clear();
  const std::uint64_t n_groups = r->Count(24);
  for (std::uint64_t i = 0; i < n_groups && r->ok(); ++i) {
    const std::size_t root = r->U64();
    GroupMeta meta;
    meta.first_time = r->I64();
    meta.last_time = r->I64();
    groups_[root] = meta;
  }
  active_rules_.clear();
  const std::uint64_t n_rules = r->Count(8);
  for (std::uint64_t i = 0; i < n_rules && r->ok(); ++i) {
    active_rules_.insert(r->U64());
  }
  open_messages_ = arena_.size();
  processed_ = r->U64();
  clock_ = r->I64();
  if (!r->ok()) return false;
  // Sanity: every union-find index must be in range and every group root
  // must exist; refuse rather than corrupt downstream state.
  for (const std::size_t p : uf_.parents()) {
    if (p >= arena_.size()) return false;
  }
  for (const auto& entry : groups_) {
    if (entry.first >= arena_.size()) return false;
  }
  SyncGauges();
  return true;
}

}  // namespace sld::pipeline
