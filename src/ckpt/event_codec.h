// Serialization of core::DigestEvent for the durable event log.
// Header-only so the engine and the tools can encode/decode without a
// ckpt -> core link edge.
#pragma once

#include <cstdint>

#include "ckpt/codec.h"
#include "core/digest.h"

namespace sld::ckpt {

inline void WriteEvent(const core::DigestEvent& ev, Writer* w) {
  w->U64(ev.messages.size());
  for (const std::size_t m : ev.messages) w->U64(m);
  w->I64(ev.start);
  w->I64(ev.end);
  w->F64(ev.score);
  w->Str(ev.label);
  w->Str(ev.location_text);
  w->U32List(ev.templates);
  w->U32List(ev.router_keys);
}

inline bool ReadEvent(Reader* r, core::DigestEvent* ev) {
  ev->messages.resize(r->Count(8));
  for (std::size_t& m : ev->messages) m = r->U64();
  ev->start = r->I64();
  ev->end = r->I64();
  ev->score = r->F64();
  ev->label = r->Str();
  ev->location_text = r->Str();
  ev->templates = r->U32List();
  ev->router_keys = r->U32List();
  return r->ok();
}

}  // namespace sld::ckpt
