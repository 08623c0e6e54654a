#include "common/strings.h"

#include <cctype>

#include "common/simd.h"

namespace sld {
namespace {

bool IsSpace(char c) noexcept { return c == ' ' || c == '\t'; }

}  // namespace

std::vector<std::string_view> SplitWhitespace(std::string_view text) {
  std::vector<std::string_view> out;
  SplitWhitespace(text, &out);
  return out;
}

void SplitWhitespace(std::string_view text,
                     std::vector<std::string_view>* out) {
  simd::SplitWhitespace(text, out);
}

std::vector<std::string_view>& TlsTokenScratch() {
  thread_local std::vector<std::string_view> scratch;
  return scratch;
}

std::vector<std::string_view> SplitChar(std::string_view text, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delim) {
      out.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

namespace {
template <typename Parts>
std::string JoinImpl(const Parts& parts, std::string_view sep) {
  std::string out;
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size() + sep.size();
  out.reserve(total);
  bool first = true;
  for (const auto& p : parts) {
    if (!first) out.append(sep);
    out.append(p);
    first = false;
  }
  return out;
}
}  // namespace

std::string Join(const std::vector<std::string_view>& parts,
                 std::string_view sep) {
  return JoinImpl(parts, sep);
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  return JoinImpl(parts, sep);
}

std::string_view Trim(std::string_view text) noexcept {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && (IsSpace(text[begin]) || text[begin] == '\r' ||
                         text[begin] == '\n')) {
    ++begin;
  }
  while (end > begin && (IsSpace(text[end - 1]) || text[end - 1] == '\r' ||
                         text[end - 1] == '\n')) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string_view TrimLeft(std::string_view text) noexcept {
  std::size_t begin = 0;
  while (begin < text.size() &&
         (IsSpace(text[begin]) || text[begin] == '\r' ||
          text[begin] == '\n')) {
    ++begin;
  }
  return text.substr(begin);
}

std::optional<std::int64_t> ParseInt(std::string_view text) noexcept {
  if (text.empty() || text.size() > 18) return std::nullopt;
  std::int64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + (c - '0');
  }
  return value;
}

bool IsAllDigits(std::string_view text) noexcept {
  if (text.empty()) return false;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

bool LooksLikeIpv4(std::string_view text) noexcept {
  int octets = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '.') {
      const std::string_view part = text.substr(start, i - start);
      if (part.empty() || part.size() > 3 || !IsAllDigits(part)) return false;
      const auto value = ParseInt(part);
      if (!value || *value > 255) return false;
      ++octets;
      start = i + 1;
    }
  }
  return octets == 4;
}

bool LooksLikeIfPosition(std::string_view text) noexcept {
  bool saw_slash = false;
  bool in_number = false;
  bool any_digit = false;
  for (const char c : text) {
    if (c >= '0' && c <= '9') {
      in_number = true;
      any_digit = true;
    } else if (c == '/' || c == '.' || c == ':') {
      if (!in_number) return false;  // separators must follow a number
      saw_slash = saw_slash || c == '/';
      in_number = false;
    } else {
      return false;
    }
  }
  return any_digit && in_number && saw_slash;  // must end on a digit
}

}  // namespace sld
