// Message templates: the learned "type + sub type" signatures of §4.1.1.
//
// A template is an error code plus the detail text's token sequence with
// variable tokens masked as "*".  Its canonical string form
// ("BGP-5-ADJCHANGE neighbor * vpn vrf * Down Interface flap") is the unit
// the rest of the system reasons about: temporal patterns, association
// rules and event labels are all keyed on template ids.
//
// Matching is the first thing every online message hits, so the lookup
// path is built to be allocation-free in steady state: the candidate index
// is keyed by a (interned-code, token-count) integer pair rather than a
// per-message key string, token counts of fixed positions are cached at
// Add time, and callers can pass pre-split tokens through a reusable
// scratch vector instead of tokenizing per probe.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/interner.h"

namespace sld::core {

using TemplateId = std::uint32_t;
inline constexpr TemplateId kNoTemplate = 0xffffffffu;

// The masked-token marker.
inline constexpr std::string_view kMask = "*";

struct Template {
  TemplateId id = kNoTemplate;
  std::string code;                 // message type / error code
  std::vector<std::string> tokens;  // detail tokens; kMask for variables
  // Cached number of non-masked positions (the match tie-break toward the
  // most specific template).  TemplateSet maintains it; call
  // RecomputeFixedCount() after mutating `tokens` by hand.
  std::size_t fixed_count = 0;

  // "code tok tok * tok" — the canonical comparable form.
  std::string Canonical() const;

  // True when `detail_tokens` (whitespace-split detail text) matches this
  // template: same length, equal at every non-masked position.
  bool Matches(std::span<const std::string_view> detail_tokens) const;

  // Number of non-masked positions (cached; see `fixed_count`).
  std::size_t FixedCount() const noexcept { return fixed_count; }
  void RecomputeFixedCount() noexcept;
};

// An immutable collection of learned templates with an online matcher.
class TemplateSet {
 public:
  TemplateSet() = default;

  // Adds a template (id assigned); returns its id.  Duplicate canonical
  // forms return the existing id.
  TemplateId Add(std::string code, std::vector<std::string> tokens);

  // Matches a raw message to the most specific learned template, or
  // nullopt when no learned template fits.
  std::optional<TemplateId> Match(std::string_view code,
                                  std::string_view detail) const;

  // Pre-split form: `detail_tokens` is the whitespace split of the detail
  // text.  Allocation-free — one string_view hash for the code, one
  // integer hash for the (code, token-count) bucket.
  std::optional<TemplateId> Match(
      std::string_view code,
      std::span<const std::string_view> detail_tokens) const;

  // Matches like Match(), but unmatched messages are assigned a catch-all
  // template "<code> <len> tokens, all masked" that is created on demand.
  // This keeps the online pipeline total: every message gets a template id,
  // as the paper's online Signature Matching stage requires.
  TemplateId MatchOrFallback(std::string_view code, std::string_view detail);

  // Scratch form: tokenizes `detail` once into the caller-owned `scratch`
  // (cleared first) and reuses the split for both the match and the masked
  // fallback, so steady-state callers neither tokenize twice nor allocate
  // a token vector per message.
  TemplateId MatchOrFallback(std::string_view code, std::string_view detail,
                             std::vector<std::string_view>* scratch);

  const Template& Get(TemplateId id) const { return templates_.at(id); }
  std::size_t size() const noexcept { return templates_.size(); }
  const std::vector<Template>& All() const noexcept { return templates_; }

  // Serialization: one template per line ("T <code>\t<tok> <tok> ...").
  std::string Serialize() const;
  static TemplateSet Deserialize(std::string_view text);

 private:
  TemplateId AddUnchecked(std::string code, std::vector<std::string> tokens,
                          std::string canonical);

  // (interned code id, token count) -> one integer bucket key.
  static std::uint64_t IndexKey(StringInterner::Id code_id,
                                std::size_t len) noexcept {
    return (static_cast<std::uint64_t>(code_id) << 32) |
           (len & 0xffffffffull);
  }

  std::vector<Template> templates_;
  // Error codes interned to dense ids: the per-message index probe is a
  // transparent string_view lookup (no key string is ever built).
  StringInterner codes_;
  // (code, token-count) -> candidate template ids, for O(candidates) match.
  std::unordered_map<std::uint64_t, std::vector<TemplateId>> index_;
  std::unordered_map<std::string, TemplateId> by_canonical_;
};

}  // namespace sld::core
