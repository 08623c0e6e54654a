// Minimal flag parser for the sldigest CLI: --name value, --name=value,
// and boolean --name.
//
// A following argument is consumed as the flag's value unless it looks
// like a flag itself ("--" followed by a non-digit).  The digit carve-out
// matters for negative numbers: "--day0 -5" and even "--top --5" are
// values, not flags — the seed parser's bare strncmp(next, "--", 2) test
// swallowed such values (tools/flags_test.cc pins the regression).
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace sld::tools {

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (!LooksLikeFlag(arg.c_str())) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        ok_ = false;
        continue;
      }
      arg = arg.substr(2);
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)].push_back(arg.substr(eq + 1));
      } else if (i + 1 < argc && !LooksLikeFlag(argv[i + 1])) {
        values_[arg].push_back(argv[++i]);
      } else {
        values_[arg].push_back("");
      }
    }
  }

  bool ok() const { return ok_; }
  bool Has(const std::string& name) const { return values_.count(name); }
  // Every flag name given, once each, in sorted order.
  std::vector<std::string> Names() const {
    std::vector<std::string> names;
    names.reserve(values_.size());
    for (const auto& [name, values] : values_) names.push_back(name);
    return names;
  }
  // A repeated flag keeps every value (GetAll); the scalar accessors see
  // the last occurrence, the usual CLI override convention.
  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second.back();
  }
  const std::vector<std::string>& GetAll(const std::string& name) const {
    static const std::vector<std::string> kEmpty;
    const auto it = values_.find(name);
    return it == values_.end() ? kEmpty : it->second;
  }
  long GetInt(const std::string& name, long fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end() || it->second.back().empty()) return fallback;
    const std::string& text = it->second.back();
    char* end = nullptr;
    const long value = std::strtol(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0') {
      std::fprintf(stderr, "flag --%s: not a number: %s\n", name.c_str(),
                   text.c_str());
      return fallback;
    }
    return value;
  }
  double GetDouble(const std::string& name, double fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end() || it->second.back().empty()) return fallback;
    const std::string& text = it->second.back();
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0') {
      std::fprintf(stderr, "flag --%s: not a number: %s\n", name.c_str(),
                   text.c_str());
      return fallback;
    }
    return value;
  }
  std::string Require(const std::string& name) {
    if (!Has(name) || values_.at(name).back().empty()) {
      std::fprintf(stderr, "missing required flag --%s\n", name.c_str());
      ok_ = false;
      return "";
    }
    return values_.at(name).back();
  }

 private:
  // "--name" is a flag; "-5", "--5", "-" and plain words are values.
  static bool LooksLikeFlag(const char* s) {
    return std::strncmp(s, "--", 2) == 0 && s[2] != '\0' &&
           !std::isdigit(static_cast<unsigned char>(s[2]));
  }

  std::map<std::string, std::vector<std::string>> values_;
  bool ok_ = true;
};

}  // namespace sld::tools
