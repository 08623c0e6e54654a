// String interning: maps repeated strings (router names, template tokens,
// location names) to dense integer ids.
//
// The miners treat messages as vectors of small integers; interning once at
// ingest keeps the hot loops free of string hashing.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/hash.h"

namespace sld {

class StringInterner {
 public:
  using Id = std::uint32_t;

  StringInterner() = default;
  StringInterner(const StringInterner&) = delete;
  StringInterner& operator=(const StringInterner&) = delete;
  StringInterner(StringInterner&&) = default;
  StringInterner& operator=(StringInterner&&) = default;

  // Returns the id for `s`, inserting it on first sight.
  Id Intern(std::string_view s) {
    const auto it = index_.find(s);
    if (it != index_.end()) return it->second;
    storage_.emplace_back(s);
    const Id id = static_cast<Id>(storage_.size() - 1);
    index_.emplace(storage_.back(), id);
    return id;
  }

  // Returns the id for `s` if already interned.
  std::optional<Id> Lookup(std::string_view s) const {
    const auto it = index_.find(s);
    if (it == index_.end()) return std::nullopt;
    return it->second;
  }

  // The string for a previously returned id. The view remains valid for the
  // lifetime of the interner (std::deque never relocates elements).
  std::string_view Get(Id id) const noexcept { return storage_[id]; }

  std::size_t size() const noexcept { return storage_.size(); }

 private:
  std::deque<std::string> storage_;
  std::unordered_map<std::string_view, Id, StringHash, std::equal_to<>>
      index_;
};

}  // namespace sld
