#include "pipeline/stages.h"

#include <algorithm>

#include "pipeline/tracker.h"

namespace sld::pipeline {

void TemporalStage::Feed(const core::Augmented& msg,
                         std::vector<MergeEdge>* out) {
  std::optional<std::size_t> prev;
  grouper_.Feed(msg, &prev);
  if (prev) out->push_back({*prev, msg.raw_index});
}

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

void RuleStage::ExportState(std::vector<WindowSnapshot>* out) const {
  for (const auto& [router_key, window] : windows_) {
    if (window.entries.empty()) continue;  // fully evicted: no state
    WindowSnapshot snap;
    snap.router_key = router_key;
    snap.entries.reserve(window.entries.size());
    for (const Entry& e : window.entries) {
      snap.entries.push_back({e.seq, e.time, e.tmpl, e.locs});
    }
    out->push_back(std::move(snap));
  }
}

void RuleStage::ImportWindow(const WindowSnapshot& snap) {
  Window& window = windows_[snap.router_key];
  for (const EntrySnapshot& e : snap.entries) {
    Append(window, {static_cast<std::size_t>(e.seq), e.time, e.tmpl,
                    ScopeOf(e.locs), e.locs});
    live_seq_ = std::max(live_seq_, static_cast<std::size_t>(e.seq) + 1);
  }
}

}  // namespace sld::pipeline
