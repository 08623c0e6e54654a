#include "core/augment.h"

#include "ckpt/codec.h"

namespace sld::core {

void RouterResolver::SaveState(ckpt::Writer* w) const {
  w->U64(names_.size());
  for (std::uint32_t id = 0; id < names_.size(); ++id) w->Str(names_.Get(id));
}

bool RouterResolver::LoadState(ckpt::Reader* r) {
  const std::uint64_t n = r->Count(8);
  for (std::uint64_t i = 0; i < n && r->ok(); ++i) Resolve(r->Str());
  return r->ok();
}

Augmented AugmentWithRouting(const syslog::SyslogRecord& rec,
                             std::size_t raw_index, std::uint32_t router_key,
                             bool router_known, const LocationDict& dict) {
  Augmented aug;
  aug.time = rec.time;
  aug.raw_index = raw_index;
  aug.router_key = router_key;
  aug.router_known = router_known;
  if (router_known) aug.locs = dict.Extract(router_key, rec.detail);
  return aug;
}

Augmented Augmenter::Augment(const syslog::SyslogRecord& rec,
                             std::size_t raw_index) {
  const auto [router_key, known] = resolver_.Resolve(rec.router);
  Augmented aug =
      AugmentWithRouting(rec, raw_index, router_key, known, *dict_);
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
