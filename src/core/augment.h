// Syslog+ construction (§3.1): raw records augmented with template id and
// extracted, dictionary-validated locations.
//
// Both the offline miners and the online digester run on this augmented
// stream, exactly as the paper's Fig. 1 routes "Syslog+ data" into rule
// mining, temporal mining and the three grouping stages.
#pragma once

#include <span>
#include <vector>

#include "common/interner.h"
#include "core/location/extractor.h"
#include "core/templates/template.h"
#include "syslog/record.h"

namespace sld::core {

struct Augmented {
  TimeMs time = 0;
  std::size_t raw_index = 0;     // position in the input stream
  TemplateId tmpl = kNoTemplate;
  // Router key: the dictionary router id, or (for routers absent from all
  // configs) an interned id offset past the dictionary range, so grouping
  // keys stay well-defined for every message.
  std::uint32_t router_key = kNoId;
  bool router_known = false;
  // Extracted locations; element 0 is the originating router's location
  // when the router is known.  Later elements come from the detail text.
  std::vector<LocationId> locs;
  // The most specific detail-text location, or the router-level location
  // when the text names none (used for temporal keys and scoring).
  // kNoId when the router is unknown.
  LocationId primary = kNoId;

  bool HasDetailLocation() const noexcept { return locs.size() > 1; }
};

// Resolves a record's originating router to a grouping key.  Known routers
// map to their dictionary id; routers absent from every config get an
// interned id offset past the dictionary range (first-sight order), so
// grouping keys stay well-defined for every message.  Stateful (the
// interner) and deliberately cheap: the sharded pipeline runs it on the
// sequential ingest thread to pick a shard before the expensive
// augmentation work fans out.
class RouterResolver {
 public:
  explicit RouterResolver(const LocationDict* dict) : dict_(dict) {}

  // Returns (router_key, router_known).  Every router name is interned at
  // first sight with its resolved key, so the steady-state path is a
  // single transparent string_view hash — no dictionary probe, no second
  // hash for unknown routers, no allocation.
  std::pair<std::uint32_t, bool> Resolve(std::string_view router) {
    if (const auto seen = names_.Lookup(router)) return keys_[*seen];
    // Interned ids are dense in first-sight order, so this slot lands at
    // keys_[names_.Intern(router)].
    names_.Intern(router);
    std::pair<std::uint32_t, bool> key;
    if (const auto rid = dict_->RouterByName(router)) {
      key = {*rid, true};
    } else {
      // Unknown routers get ids offset past the dictionary range, dense
      // in first-sight order among unknowns (same assignment as before
      // the memo existed, so grouping keys stay stable).
      key = {static_cast<std::uint32_t>(dict_->router_count() +
                                        unknown_count_++),
             false};
    }
    keys_.push_back(key);
    return key;
  }

  // Checkpointing (DESIGN.md §14): the interned names in first-sight
  // order.  Restoring means re-Resolve()ing each name in that order,
  // which recomputes the identical dense keys — the snapshot never has
  // to store them.
  std::size_t interned_count() const noexcept { return names_.size(); }
  std::string_view interned_name(std::uint32_t id) const {
    return names_.Get(id);
  }

 private:
  const LocationDict* dict_;
  StringInterner names_;
  std::vector<std::pair<std::uint32_t, bool>> keys_;  // by interned id
  std::size_t unknown_count_ = 0;
};

// Fills every Augmented field except the template id, given an already
// resolved router key.  Pure w.r.t. shared state (the extractor and dict
// are read-only), so pipeline shards may call it concurrently.
Augmented AugmentWithRouting(const syslog::SyslogRecord& rec,
                             std::size_t raw_index, std::uint32_t router_key,
                             bool router_known,
                             const LocationExtractor& extractor,
                             const LocationDict& dict);

// Augments records with template ids (creating catch-all fallbacks for
// unmatched messages) and locations.
class Augmenter {
 public:
  Augmenter(TemplateSet* templates, const LocationDict* dict)
      : templates_(templates), extractor_(dict), dict_(dict),
        resolver_(dict) {}

  Augmented Augment(const syslog::SyslogRecord& rec, std::size_t raw_index);

  // Augments a whole (time-sorted) history: Augment() on every record in
  // order, so router keys and catch-all fallbacks are assigned in
  // first-sight order.
  std::vector<Augmented> AugmentAll(
      std::span<const syslog::SyslogRecord> records);

  const LocationDict& dict() const noexcept { return *dict_; }

 private:
  TemplateSet* templates_;
  LocationExtractor extractor_;
  const LocationDict* dict_;
  RouterResolver resolver_;
};

}  // namespace sld::core
