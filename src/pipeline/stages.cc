#include "pipeline/stages.h"

#include <algorithm>
#include <utility>

#include "ckpt/codec.h"
#include "pipeline/tracker.h"

namespace sld::pipeline {

RuleStage::Scope RuleStage::ScopeOf(
    const std::vector<core::LocationId>& locs) const {
  if (locs.empty()) return kNoLocations;
  if (dict_->Get(locs.front()).level == core::LocLevel::kRouter) {
    return locs.front();
  }
  return kNoScope;
}

bool RuleStage::Matched(const core::Augmented& msg, Scope scope,
                        const Entry& other) const {
  if (scope != kNoScope && scope == other.scope) return true;
  // Spatial match between any location pair of the two messages.
  for (const core::LocationId la : msg.locs) {
    for (const core::LocationId lb : other.locs) {
      if (dict_->SpatiallyMatched(la, lb)) return true;
    }
  }
  // Messages whose router is absent from the configs have no locations;
  // same router key is the best spatial evidence.
  return msg.locs.empty() && other.locs.empty();
}

void RuleStage::Feed(const core::Augmented& msg, std::vector<MergeEdge>* out,
                     std::vector<std::uint64_t>* fired_rules) {
  Window& window = windows_[msg.router_key];
  Evict(window, msg.time);
  const Scope scope = ScopeOf(msg.locs);
  for (const core::TemplateId tmpl : rules_->Neighbors(msg.tmpl)) {
    if (tmpl == msg.tmpl) continue;  // a self-rule never groups
    const auto it = window.lists.find(tmpl);
    if (it == window.lists.end()) continue;
    TemplateList& list = it->second;
    const Entry& newest = window.entries[list.pos.back() - window.base];
    std::size_t i = list.head;
    bool fired = false;
    // Same-scope entries all match msg, and the joiner's group holds the
    // open ones: one edge to the joiner stands in for the joined prefix.
    const bool reuse = list.joined > 0 && scope == list.scope;
    if (reuse) {
      out->push_back({msg.raw_index, list.joiner});
      i += list.joined;
      fired = true;
    }
    // msg joins the list when every entry shares its scope.
    bool joins = scope != kNoScope && (reuse || list.joined == 0);
    for (; i < list.pos.size(); ++i) {
      const Entry& other = window.entries[list.pos[i] - window.base];
      joins = joins && other.scope == scope;
      if (!Matched(msg, scope, other)) continue;
      out->push_back({msg.raw_index, other.seq});
      fired = true;
    }
    if (fired) {
      fired_rules->push_back(core::MiningStats::PairKey(msg.tmpl, tmpl));
    }
    // The join needs msg merged with the newest entry while that entry
    // was open: in one sweep bucket no sweep falls between them, and no
    // Flush before a restore closed it.
    if (joins && newest.seq >= live_seq_ &&
        GroupTracker::SweepBucket(msg.time) ==
            GroupTracker::SweepBucket(newest.time)) {
      list.joined = list.pos.size() - list.head;
      list.joiner = msg.raw_index;
      list.scope = scope;
    }
  }
  Append(window, {msg.raw_index, msg.time, msg.tmpl, scope, msg.locs});
}

void RuleStage::Append(Window& window, Entry entry) {
  TemplateList& list = window.lists[entry.tmpl];
  list.pos.push_back(window.base + window.entries.size());
  window.entries.push_back(std::move(entry));
}

void RuleStage::Evict(Window& window, TimeMs now) {
  while (!window.entries.empty() &&
         now - window.entries.front().time > window_ms_) {
    const auto it = window.lists.find(window.entries.front().tmpl);
    TemplateList& list = it->second;
    if (list.joined > 0) --list.joined;
    if (++list.head == list.pos.size()) {
      window.lists.erase(it);
    } else if (list.head >= 32 && 2 * list.head >= list.pos.size()) {
      list.pos.erase(list.pos.begin(),
                     list.pos.begin() + static_cast<std::ptrdiff_t>(list.head));
      list.head = 0;
    }
    window.entries.pop_front();
    ++window.base;
  }
}

void RuleStage::SaveWindows(std::span<const RuleStage* const> stages,
                            ckpt::Writer* w) {
  // A router's window lives on one stage, so keys never repeat.
  std::vector<std::pair<std::uint32_t, const Window*>> windows;
  for (const RuleStage* stage : stages) {
    for (const auto& [router_key, window] : stage->windows_) {
      // A fully evicted window holds no state.
      if (!window.entries.empty()) windows.emplace_back(router_key, &window);
    }
  }
  std::sort(windows.begin(), windows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w->U64(windows.size());
  for (const auto& [router_key, window] : windows) {
    w->U32(router_key);
    w->U64(window->entries.size());
    for (const Entry& e : window->entries) {
      w->U64(e.seq);
      w->I64(e.time);
      w->U32(e.tmpl);
      w->U32List(e.locs);
    }
  }
}

bool RuleStage::LoadWindows(
    ckpt::Reader* r, const std::function<RuleStage*(std::uint32_t)>& owner) {
  const std::uint64_t n = r->Count(4 + 8);
  for (std::uint64_t i = 0; i < n && r->ok(); ++i) {
    const std::uint32_t router_key = r->U32();
    const std::uint64_t entries = r->Count(8 + 8 + 4 + 8);
    if (!r->ok()) break;
    RuleStage* stage = owner(router_key);
    Window& window = stage->windows_[router_key];
    for (std::uint64_t j = 0; j < entries; ++j) {
      const auto seq = static_cast<std::size_t>(r->U64());
      const TimeMs time = r->I64();
      const core::TemplateId tmpl = r->U32();
      std::vector<core::LocationId> locs = r->U32List();
      if (!r->ok()) break;
      const Scope scope = stage->ScopeOf(locs);
      stage->Append(window, {seq, time, tmpl, scope, std::move(locs)});
      stage->live_seq_ = std::max(stage->live_seq_, seq + 1);
    }
  }
  return r->ok();
}

void CrossRouterStage::SaveState(ckpt::Writer* w) const {
  w->U64(window_.size());
  for (const Entry& e : window_) {
    w->U64(e.seq);
    w->I64(e.time);
    w->U32(e.tmpl);
    w->U32(e.router_key);
    w->U32List(e.locs);
  }
}

bool CrossRouterStage::LoadState(ckpt::Reader* r) {
  const std::uint64_t n = r->Count(8 + 8 + 4 + 4 + 8);
  for (std::uint64_t i = 0; i < n && r->ok(); ++i) {
    Entry e;
    e.seq = static_cast<std::size_t>(r->U64());
    e.time = r->I64();
    e.tmpl = r->U32();
    e.router_key = r->U32();
    e.locs = r->U32List();
    if (r->ok()) window_.push_back(std::move(e));
  }
  return r->ok();
}

}  // namespace sld::pipeline
