#include "core/augment.h"

namespace sld::core {

Augmented AugmentWithRouting(const syslog::SyslogRecord& rec,
                             std::size_t raw_index, std::uint32_t router_key,
                             bool router_known,
                             const LocationExtractor& extractor,
                             const LocationDict& dict) {
  Augmented aug;
  aug.time = rec.time;
  aug.raw_index = raw_index;
  aug.router_key = router_key;
  aug.router_known = router_known;
  if (router_known) {
    aug.locs = extractor.Extract(rec.router, rec.detail);
    // The extractor puts the router-level location first for any router
    // it can resolve, but a caller may assert router_known for a name
    // the dictionary cannot place (e.g. a renamed router between config
    // snapshots) — then the list is empty and there is no primary.
    if (!aug.locs.empty()) {
      // Most specific (deepest-level) location named in the text.
      aug.primary = aug.locs.front();
      for (std::size_t i = 1; i < aug.locs.size(); ++i) {
        if (static_cast<int>(dict.Get(aug.locs[i]).level) >
            static_cast<int>(dict.Get(aug.primary).level)) {
          aug.primary = aug.locs[i];
        }
      }
    }
  }
  return aug;
}

Augmented Augmenter::Augment(const syslog::SyslogRecord& rec,
                             std::size_t raw_index) {
  const auto [router_key, known] = resolver_.Resolve(rec.router);
  Augmented aug = AugmentWithRouting(rec, raw_index, router_key, known,
                                     extractor_, *dict_);
  aug.tmpl = templates_->MatchOrFallback(rec.code, rec.detail);
  return aug;
}

std::vector<Augmented> Augmenter::AugmentAll(
    std::span<const syslog::SyslogRecord> records) {
  std::vector<Augmented> out;
  out.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    out.push_back(Augment(records[i], i));
  }
  return out;
}

}  // namespace sld::core
