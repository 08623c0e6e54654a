#include "core/templates/template.h"

#include "common/strings.h"

namespace sld::core {

namespace {

// The canonical comparable form of a (code, tokens) pair; shared by
// Template::Canonical and TemplateSet::Add so the probe-side key is built
// exactly once per insertion.
std::string CanonicalOf(std::string_view code,
                        std::span<const std::string> tokens) {
  std::string out(code);
  for (const std::string& tok : tokens) {
    out += ' ';
    out += tok;
  }
  return out;
}

}  // namespace

std::string Template::Canonical() const { return CanonicalOf(code, tokens); }

bool Template::Matches(
    std::span<const std::string_view> detail_tokens) const {
  if (detail_tokens.size() != tokens.size()) return false;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i] != kMask && tokens[i] != detail_tokens[i]) return false;
  }
  return true;
}

void Template::RecomputeFixedCount() noexcept {
  fixed_count = 0;
  for (const std::string& tok : tokens) {
    if (tok != kMask) ++fixed_count;
  }
}

TemplateId TemplateSet::Add(std::string code,
                            std::vector<std::string> tokens) {
  std::string canonical = CanonicalOf(code, tokens);
  const auto it = by_canonical_.find(canonical);
  if (it != by_canonical_.end()) return it->second;
  return AddUnchecked(std::move(code), std::move(tokens),
                      std::move(canonical));
}

TemplateId TemplateSet::AddUnchecked(std::string code,
                                     std::vector<std::string> tokens,
                                     std::string canonical) {
  Template tmpl;
  tmpl.id = static_cast<TemplateId>(templates_.size());
  tmpl.code = std::move(code);
  tmpl.tokens = std::move(tokens);
  tmpl.RecomputeFixedCount();
  index_[IndexKey(codes_.Intern(tmpl.code), tmpl.tokens.size())].push_back(
      tmpl.id);
  by_canonical_.emplace(std::move(canonical), tmpl.id);
  templates_.push_back(std::move(tmpl));
  return templates_.back().id;
}

std::optional<TemplateId> TemplateSet::Match(std::string_view code,
                                             std::string_view detail) const {
  std::vector<std::string_view>& tokens = TlsTokenScratch();
  SplitWhitespace(detail, &tokens);
  return Match(code, tokens);
}

std::optional<TemplateId> TemplateSet::Match(
    std::string_view code,
    std::span<const std::string_view> detail_tokens) const {
  const auto code_id = codes_.Lookup(code);
  if (!code_id) return std::nullopt;
  const auto it = index_.find(IndexKey(*code_id, detail_tokens.size()));
  if (it == index_.end()) return std::nullopt;
  const Template* best = nullptr;
  for (const TemplateId id : it->second) {
    const Template& tmpl = templates_[id];
    if (!tmpl.Matches(detail_tokens)) continue;
    if (best == nullptr || tmpl.fixed_count > best->fixed_count) {
      best = &tmpl;
    }
  }
  if (best == nullptr) return std::nullopt;
  return best->id;
}

TemplateId TemplateSet::MatchOrFallback(std::string_view code,
                                        std::string_view detail) {
  std::vector<std::string_view> scratch;
  return MatchOrFallback(code, detail, &scratch);
}

TemplateId TemplateSet::MatchOrFallback(
    std::string_view code, std::string_view detail,
    std::vector<std::string_view>* scratch) {
  SplitWhitespace(detail, scratch);
  if (const auto id = Match(code, *scratch)) return *id;
  std::vector<std::string> masked(scratch->size(), std::string(kMask));
  return Add(std::string(code), std::move(masked));
}

std::string TemplateSet::Serialize() const {
  std::string out;
  for (const Template& tmpl : templates_) {
    out += "T ";
    out += tmpl.code;
    out += '\t';
    bool first = true;
    for (const std::string& tok : tmpl.tokens) {
      if (!first) out += ' ';
      out += tok;
      first = false;
    }
    out += '\n';
  }
  return out;
}

TemplateSet TemplateSet::Deserialize(std::string_view text) {
  TemplateSet set;
  for (const std::string_view line : SplitChar(text, '\n')) {
    if (!line.starts_with("T ")) continue;
    const std::size_t tab = line.find('\t');
    if (tab == std::string_view::npos) continue;
    std::string code(line.substr(2, tab - 2));
    std::vector<std::string> tokens;
    for (const std::string_view tok :
         SplitWhitespace(line.substr(tab + 1))) {
      tokens.emplace_back(tok);
    }
    set.Add(std::move(code), std::move(tokens));
  }
  return set;
}

}  // namespace sld::core
