// Canonical serialization of the stage-graph state (DESIGN.md §14).
//
// ShardedPipeline writes its stage state through these helpers, merged
// across shards and sorted, so a snapshot taken at N shards restores
// bit-identically at M shards (state is re-partitioned by router key at
// import, exactly how Push deals records to shards).
#pragma once

#include <algorithm>
#include <functional>
#include <vector>

#include "ckpt/codec.h"
#include "core/augment.h"
#include "pipeline/stages.h"

namespace sld::pipeline {

// Router resolver: interned names in first-sight order.  Restoring
// re-Resolve()s each name, which recomputes the identical dense keys.
inline void SaveResolverState(const core::RouterResolver& resolver,
                              ckpt::Writer* w) {
  const std::size_t n = resolver.interned_count();
  w->U64(n);
  for (std::size_t id = 0; id < n; ++id) {
    w->Str(resolver.interned_name(static_cast<std::uint32_t>(id)));
  }
}

inline bool LoadResolverState(core::RouterResolver* resolver,
                              ckpt::Reader* r) {
  const std::uint64_t n = r->Count(8);
  for (std::uint64_t i = 0; i < n && r->ok(); ++i) {
    resolver->Resolve(r->Str());
  }
  return r->ok();
}

// Temporal chains, sorted by key (shard-count independent).
inline void SaveTemporalChains(std::vector<TemporalStage::ChainState> chains,
                               ckpt::Writer* w) {
  std::sort(chains.begin(), chains.end(),
            [](const TemporalStage::ChainState& a,
               const TemporalStage::ChainState& b) {
              if (a.key_a != b.key_a) return a.key_a < b.key_a;
              return a.key_b < b.key_b;
            });
  w->U64(chains.size());
  for (const TemporalStage::ChainState& chain : chains) {
    w->U64(chain.key_a);
    w->U32(chain.key_b);
    w->I64(chain.last_time);
    w->F64(chain.shat);
    w->U64(chain.tail);
  }
}

inline bool LoadTemporalChains(
    ckpt::Reader* r,
    const std::function<void(const TemporalStage::ChainState&)>& add) {
  const std::uint64_t n = r->Count(8 + 4 + 8 + 8 + 8);
  for (std::uint64_t i = 0; i < n && r->ok(); ++i) {
    TemporalStage::ChainState chain;
    chain.key_a = r->U64();
    chain.key_b = r->U32();
    chain.last_time = r->I64();
    chain.shat = r->F64();
    chain.tail = static_cast<std::size_t>(r->U64());
    if (r->ok()) add(chain);
  }
  return r->ok();
}

// Rule windows, sorted by router key (each router's window lives on
// exactly one shard, so concatenating shard exports and sorting is
// canonical).  Entries stay in window (oldest-first) order.
inline void SaveRuleWindows(std::vector<RuleStage::WindowSnapshot> windows,
                            ckpt::Writer* w) {
  std::sort(windows.begin(), windows.end(),
            [](const RuleStage::WindowSnapshot& a,
               const RuleStage::WindowSnapshot& b) {
              return a.router_key < b.router_key;
            });
  w->U64(windows.size());
  for (const RuleStage::WindowSnapshot& win : windows) {
    w->U32(win.router_key);
    w->U64(win.entries.size());
    for (const RuleStage::EntrySnapshot& e : win.entries) {
      w->U64(e.seq);
      w->I64(e.time);
      w->U32(e.tmpl);
      w->U64(e.locs.size());
      for (const core::LocationId loc : e.locs) w->U32(loc);
    }
  }
}

inline bool LoadRuleWindows(
    ckpt::Reader* r,
    const std::function<void(const RuleStage::WindowSnapshot&)>& add) {
  const std::uint64_t n = r->Count(4 + 8);
  for (std::uint64_t i = 0; i < n && r->ok(); ++i) {
    RuleStage::WindowSnapshot win;
    win.router_key = r->U32();
    const std::uint64_t entries = r->Count(8 + 8 + 4 + 8);
    win.entries.reserve(entries);
    for (std::uint64_t j = 0; j < entries && r->ok(); ++j) {
      RuleStage::EntrySnapshot e;
      e.seq = r->U64();
      e.time = r->I64();
      e.tmpl = r->U32();
      e.locs.resize(r->Count(4));
      for (core::LocationId& loc : e.locs) loc = r->U32();
      win.entries.push_back(std::move(e));
    }
    if (r->ok()) add(win);
  }
  return r->ok();
}

// Cross-router window, already in global time order (merge-thread state).
inline void SaveCrossEntries(
    const std::vector<CrossRouterStage::EntrySnapshot>& entries,
    ckpt::Writer* w) {
  w->U64(entries.size());
  for (const CrossRouterStage::EntrySnapshot& e : entries) {
    w->U64(e.seq);
    w->I64(e.time);
    w->U32(e.tmpl);
    w->U32(e.router_key);
    w->U64(e.locs.size());
    for (const core::LocationId loc : e.locs) w->U32(loc);
  }
}

inline bool LoadCrossEntries(
    ckpt::Reader* r,
    const std::function<void(const CrossRouterStage::EntrySnapshot&)>& add) {
  const std::uint64_t n = r->Count(8 + 8 + 4 + 4 + 8);
  for (std::uint64_t i = 0; i < n && r->ok(); ++i) {
    CrossRouterStage::EntrySnapshot e;
    e.seq = r->U64();
    e.time = r->I64();
    e.tmpl = r->U32();
    e.router_key = r->U32();
    e.locs.resize(r->Count(4));
    for (core::LocationId& loc : e.locs) loc = r->U32();
    if (r->ok()) add(e);
  }
  return r->ok();
}

}  // namespace sld::pipeline
