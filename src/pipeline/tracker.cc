#include "pipeline/tracker.h"

#include <algorithm>
#include <mutex>
#include <tuple>
#include <utility>

#include "ckpt/codec.h"
#include "obs/registry.h"

namespace sld::pipeline {

void GroupTracker::Order::Insert(GroupMeta* g) noexcept {
  GroupMeta* after = tail_;
  while (after != nullptr && after->*clock_ > g->*clock_) {
    after = (after->*link_).prev;
  }
  Link& link = g->*link_;
  link.prev = after;
  link.next = NextOf(after);
  NextOf(after) = g;
  PrevOf(link.next) = g;
}

void GroupTracker::Order::Erase(GroupMeta* g) noexcept {
  Link& link = g->*link_;
  NextOf(link.prev) = link.next;
  PrevOf(link.next) = link.prev;
  link = {};
}

void GroupTracker::Order::Fold(GroupMeta* into, GroupMeta* from,
                               bool into_holds) noexcept {
  if (into_holds) {
    Erase(from);
    return;
  }
  Erase(into);
  Link& link = into->*link_;
  link = from->*link_;
  NextOf(link.prev) = into;
  PrevOf(link.next) = into;
  from->*link_ = {};
}

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
  // A snapshot that an older build took after Flush carries the sentinel
  // clock INT64_MAX - idle - 1, whose bucket no stream time reaches.
  if (SweepBucket(now) > SweepBucket(clock_)) {
    events = Sweep(now, /*flushing=*/false);
  }
  clock_ = std::max(clock_, now);
  return events;
}

void GroupTracker::Add(const core::Augmented& msg) {
  const std::size_t seq = msg.raw_index;
  const TimeMs t = msg.time;
  std::uint32_t s = free_;
  if (s != kNil) {
    free_ = next_[s];
    next_[s] = kNil;
    arena_[s] = msg;
    uf_.Reset(s);
  } else {
    s = static_cast<std::uint32_t>(arena_.size());
    arena_.push_back(msg);
    next_.push_back(kNil);
    uf_.Add();
  }
  if (slot_of_.empty()) seq_base_ = seq;
  slot_of_.resize(seq - seq_base_, kNil);  // a gap in the sequence
  slot_of_.push_back(s);
  GroupMeta& g = groups_[s];
  g.root = s;
  g.first_time = t;
  g.last_time = t;
  g.head = s;
  g.tail = s;
  recent_.Insert(&g);
  aged_.Insert(&g);
  ++open_messages_;
  ++processed_;
  SyncGauges();
}

void GroupTracker::MergeSlots(std::size_t a, std::size_t b) {
  const std::size_t ra = uf_.Find(a);
  const std::size_t rb = uf_.Find(b);
  if (ra == rb) return;
  const std::size_t root = uf_.Union(ra, rb);
  GroupMeta& into = groups_.find(root)->second;
  const auto from_it = groups_.find(root == ra ? rb : ra);
  GroupMeta& from = from_it->second;
  // Each order keeps the place of the group whose clock the merged group
  // takes: the later last activity, the earlier first message.
  recent_.Fold(&into, &from, into.last_time >= from.last_time);
  aged_.Fold(&into, &from, into.first_time <= from.first_time);
  into.first_time = std::min(into.first_time, from.first_time);
  into.last_time = std::max(into.last_time, from.last_time);
  next_[into.tail] = from.head;
  into.tail = from.tail;
  groups_.erase(from_it);
}

void GroupTracker::ApplyEdges(const std::vector<MergeEdge>& edges) {
  for (const MergeEdge& e : edges) {
    const std::uint32_t a = SlotOf(e.a);
    if (a == kNil) continue;  // already emitted; starts anew
    const std::uint32_t b = SlotOf(e.b);
    if (b == kNil) continue;
    MergeSlots(a, b);
  }
}

bool GroupTracker::SameGroup(std::size_t seq_a, std::size_t seq_b) {
  const std::uint32_t a = SlotOf(seq_a);
  const std::uint32_t b = SlotOf(seq_b);
  return a != kNil && b != kNil && uf_.Connected(a, b);
}

void GroupTracker::Touch(std::size_t seq, TimeMs t) {
  const std::uint32_t s = SlotOf(seq);
  if (s == kNil) return;
  GroupMeta& g = groups_.find(uf_.Find(s))->second;
  g.last_time = t;
  recent_.Erase(&g);
  recent_.Insert(&g);
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

core::DigestEvent GroupTracker::Close(GroupMeta* g) {
  recent_.Erase(g);
  aged_.Erase(g);
  // Members in ascending sequence order, so score summation matches the
  // batch digester bit for bit.
  close_order_.clear();
  for (std::uint32_t s = g->head; s != kNil; s = next_[s]) {
    close_order_.emplace_back(arena_[s].raw_index, s);
  }
  std::sort(close_order_.begin(), close_order_.end());
  close_members_.clear();
  for (const auto& [seq, s] : close_order_) {
    close_members_.push_back(&arena_[s]);
  }
  if (cells_.event_messages != nullptr) {
    cells_.event_messages->Observe(static_cast<double>(close_order_.size()));
  }
  core::DigestEvent event = BuildLocked(close_members_);
  // No open slot points into a closed group, so Add may reuse its slots.
  for (const auto& [seq, s] : close_order_) {
    slot_of_[seq - seq_base_] = kNil;
    next_[s] = free_;
    free_ = s;
  }
  while (!slot_of_.empty() && slot_of_.front() == kNil) {
    slot_of_.pop_front();
    ++seq_base_;
  }
  open_messages_ -= close_order_.size();
  const std::size_t root = g->root;
  groups_.erase(root);
  return event;
}

std::vector<core::DigestEvent> GroupTracker::Sweep(TimeMs now,
                                                   bool flushing) {
  std::vector<core::DigestEvent> events;
  const auto close = [&](GroupMeta* g, obs::Counter* reason) {
    if (reason != nullptr) reason->Inc();
    events.push_back(Close(g));
  };
  // Both orders run oldest first, so the groups due are a prefix of
  // each.  Reasons keep their precedence: flush, then idle, then max age.
  while (GroupMeta* g = recent_.oldest()) {
    if (flushing) {
      close(g, cells_.closed_flush);
    } else if (now - g->last_time > idle_close_ms_) {
      close(g, cells_.closed_idle);
    } else {
      break;
    }
  }
  while (GroupMeta* g = aged_.oldest()) {
    if (now - g->first_time <= max_group_age_ms_) break;
    close(g, cells_.closed_max_age);
  }
  SyncGauges();
  // Start-time ties are broken by the first member's stream index — a
  // total order over groups that survives checkpoint/restore and slot
  // reuse.
  std::sort(events.begin(), events.end(),
            [](const core::DigestEvent& a, const core::DigestEvent& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.messages.front() < b.messages.front();
            });
  return events;
}

std::vector<core::DigestEvent> GroupTracker::Flush() {
  std::vector<core::DigestEvent> events = Sweep(clock_, /*flushing=*/true);
  // Nothing is open: hand the storage back before the events go out.
  arena_ = {};
  next_ = {};
  free_ = kNil;
  uf_ = UnionFind(0);
  slot_of_ = {};
  close_order_ = {};
  close_members_ = {};
  return events;
}

namespace {

// The v1 layout ends each message with a location that nothing reads
// back: the deepest-level one in `locs`, the first on a tie, kNoId when
// there is none.  Saving it keeps the snapshot bytes of v1.
core::LocationId DeepestLocation(const std::vector<core::LocationId>& locs,
                                 const core::LocationDict& dict) {
  core::LocationId deepest = core::kNoId;
  for (const core::LocationId loc : locs) {
    if (deepest == core::kNoId ||
        dict.Get(loc).level > dict.Get(deepest).level) {
      deepest = loc;
    }
  }
  return deepest;
}

void SaveAugmented(const core::Augmented& msg, const core::LocationDict& dict,
                   ckpt::Writer* w) {
  w->I64(msg.time);
  w->U64(msg.raw_index);
  w->U32(msg.tmpl);
  w->U32(msg.router_key);
  w->U8(msg.router_known ? 1 : 0);
  w->U32List(msg.locs);
  w->U32(DeepestLocation(msg.locs, dict));
}

core::Augmented LoadAugmented(ckpt::Reader* r) {
  core::Augmented msg;
  msg.time = r->I64();
  msg.raw_index = r->U64();
  msg.tmpl = r->U32();
  msg.router_key = r->U32();
  msg.router_known = r->U8() != 0;
  msg.locs = r->U32List();
  r->U32();  // DeepestLocation, recomputed on save
  return msg;
}

// A forest the tracker can rebuild from: every parent in range, no
// cycle, and exactly one group row per root.
bool SoundForest(const std::vector<std::size_t>& parents,
                 const std::vector<std::size_t>& rows) {
  const std::size_t n = parents.size();
  // 0: not seen; 1: on the current walk; 2: reaches a root.
  std::vector<std::uint8_t> state(n, 0);
  std::size_t roots = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (parents[i] >= n) return false;
    if (parents[i] == i) ++roots;
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t x = i;
    while (state[x] == 0 && parents[x] != x) {
      state[x] = 1;
      x = parents[x];
    }
    if (state[x] == 1) return false;  // the walk met itself: a cycle
    state[x] = 2;
    for (std::size_t y = i; state[y] == 1; y = parents[y]) state[y] = 2;
  }
  std::vector<bool> has_row(n, false);
  for (const std::size_t root : rows) {
    if (root >= n || parents[root] != root || has_row[root]) return false;
    has_row[root] = true;
  }
  return rows.size() == roots;
}

}  // namespace

void GroupTracker::SaveState(ckpt::Writer* w) {
  // The canonical layout: open messages in sequence order, each pointing
  // at its group's first member, which carries the group size.
  std::vector<std::uint32_t> open;
  open.reserve(open_messages_);
  for (const std::uint32_t s : slot_of_) {
    if (s != kNil) open.push_back(s);
  }
  std::vector<std::size_t> parents(open.size());
  std::vector<std::size_t> sizes(open.size(), 1);
  std::unordered_map<std::size_t, std::size_t> first_of_root;
  for (std::size_t i = 0; i < open.size(); ++i) {
    const auto [it, fresh] = first_of_root.emplace(uf_.Find(open[i]), i);
    parents[i] = it->second;
    if (!fresh) ++sizes[it->second];
  }
  w->U64(open.size());
  for (const std::uint32_t s : open) SaveAugmented(arena_[s], *dict_, w);
  for (const std::size_t p : parents) w->U64(p);
  for (const std::size_t size : sizes) w->U64(size);
  std::vector<std::pair<std::size_t, const GroupMeta*>> rows;
  rows.reserve(groups_.size());
  for (const auto& [root, meta] : groups_) {
    rows.emplace_back(first_of_root.at(root), &meta);
  }
  std::sort(rows.begin(), rows.end());
  w->U64(rows.size());
  for (const auto& [root, meta] : rows) {
    w->U64(root);
    w->I64(meta->first_time);
    w->I64(meta->last_time);
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
  for (std::uint64_t i = 0; i < n && r->ok(); ++i) {
    arena_.push_back(LoadAugmented(r));
  }
  std::vector<std::size_t> parents(arena_.size());
  for (std::size_t& p : parents) p = r->U64();
  std::vector<std::size_t> sizes(arena_.size());
  for (std::size_t& s : sizes) s = r->U64();
  groups_.clear();
  std::vector<std::size_t> roots;
  const std::uint64_t n_groups = r->Count(24);
  for (std::uint64_t i = 0; i < n_groups && r->ok(); ++i) {
    const std::size_t root = r->U64();
    GroupMeta& g = groups_[root];
    g.root = root;
    g.first_time = r->I64();
    g.last_time = r->I64();
    roots.push_back(root);
  }
  active_rules_.clear();
  const std::uint64_t n_rules = r->Count(8);
  for (std::uint64_t i = 0; i < n_rules && r->ok(); ++i) {
    active_rules_.insert(r->U64());
  }
  processed_ = r->U64();
  clock_ = r->I64();
  // Refuse rather than corrupt downstream state: Find must terminate,
  // and the member lists and the idle index are built from the rows.
  if (!r->ok() || arena_.size() >= kNil || !SoundForest(parents, roots)) {
    return false;
  }
  // Open messages come in increasing sequence order, each below the
  // processed count, which bounds the slot table.
  for (std::size_t i = 0; i < arena_.size(); ++i) {
    const std::size_t seq = arena_[i].raw_index;
    if (seq >= processed_ || (i > 0 && seq <= arena_[i - 1].raw_index)) {
      return false;
    }
  }
  seq_base_ = arena_.empty() ? 0 : arena_.front().raw_index;
  slot_of_.clear();
  for (std::uint32_t s = 0; s < arena_.size(); ++s) {
    slot_of_.resize(arena_[s].raw_index - seq_base_, kNil);
    slot_of_.push_back(s);
  }
  uf_.Rebuild(std::move(parents), std::move(sizes));
  next_.assign(arena_.size(), kNil);
  free_ = kNil;
  std::vector<GroupMeta*> order;
  order.reserve(groups_.size());
  for (auto& [root, g] : groups_) order.push_back(&g);
  for (std::uint32_t s = 0; s < arena_.size(); ++s) {
    GroupMeta& g = groups_.find(uf_.Find(s))->second;
    if (g.head == kNil) {
      g.head = s;
    } else {
      next_[g.tail] = s;
    }
    g.tail = s;
  }
  // Both orders break clock ties by root index.
  recent_.Clear();
  std::sort(order.begin(), order.end(), [](const GroupMeta* a,
                                           const GroupMeta* b) {
    return std::tie(a->last_time, a->root) < std::tie(b->last_time, b->root);
  });
  for (GroupMeta* g : order) recent_.Insert(g);
  aged_.Clear();
  std::sort(order.begin(), order.end(), [](const GroupMeta* a,
                                           const GroupMeta* b) {
    return std::tie(a->first_time, a->root) <
           std::tie(b->first_time, b->root);
  });
  for (GroupMeta* g : order) aged_.Insert(g);
  open_messages_ = arena_.size();
  SyncGauges();
  return true;
}

}  // namespace sld::pipeline
