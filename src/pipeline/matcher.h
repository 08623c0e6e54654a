// Signature matching shared by pipeline shards.
//
// The template set is read-mostly: nearly every message matches a learned
// template, but the online system must stay total, so unmatched messages
// create a catch-all template on demand (TemplateSet::MatchOrFallback).
// Shards match under a reader lock and upgrade to a writer lock only on
// the rare miss.  The same mutex is reader-locked by the merge stage while
// it reads template text for event labels.
//
// Syslog is extremely repetitive (Table 5: a handful of templates cover
// most traffic), so each shard additionally keeps a private memo cache
// mapping hash(code, detail) -> TemplateId.  A memo hit touches no lock
// and performs no heap allocation — the steady-state cost of signature
// matching is one hash pass over the message plus one table probe.
//
// A memoized answer never goes stale.  The only templates added while
// serving are all-masked catch-alls for a (code, token count) that no
// template matched, and TemplateSet::Match prefers strictly more fixed
// tokens, then the earlier id: a new catch-all (zero fixed tokens, the
// newest id) never wins over a template that already matched a message.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/strings.h"
#include "core/templates/template.h"

namespace sld::pipeline {

// 64-bit memo identity of a (code, detail) pair.  HashBytes folds each
// piece's length into the chain, so ("ab", "c") and ("a", "bc") stay
// distinct; the separator byte additionally splits the domains.  0 is
// remapped because it is the cache's empty-slot sentinel.
inline std::uint64_t MessageKey(std::string_view code,
                                std::string_view detail) noexcept {
  std::uint64_t h = HashBytes(code);
  h = HashBytes(detail, h ^ 0x1f);
  return h == 0 ? 1 : h;
}

// Open-addressed (linear probing, power-of-two capacity) memo table owned
// by exactly one shard thread — no synchronization inside.  Once half
// full it stops inserting rather than evicting: the hot keys of a skewed
// syslog stream are seen early, and refusing new one-off keys is cheaper
// and more predictable than periodically dumping the hot set.  The
// default (2^15 slots = 16K usable entries, ~384 KiB) keeps the table
// L2-resident; one day of dataset A has ~5.4K distinct (code, detail)
// pairs, so capacity is not the limiter.
class ShardMatchCache {
 public:
  explicit ShardMatchCache(std::size_t log2_capacity = 15)
      : keys_(std::size_t{1} << log2_capacity, 0),
        vals_(std::size_t{1} << log2_capacity, core::kNoTemplate),
        mask_((std::size_t{1} << log2_capacity) - 1) {}

  std::optional<core::TemplateId> Lookup(std::uint64_t key) noexcept {
    ++lookups_;
    for (std::size_t i = key & mask_;; i = (i + 1) & mask_) {
      if (keys_[i] == key) {
        ++hits_;
        return vals_[i];
      }
      if (keys_[i] == 0) return std::nullopt;
    }
  }

  void Insert(std::uint64_t key, core::TemplateId id) noexcept {
    for (std::size_t i = key & mask_;; i = (i + 1) & mask_) {
      if (keys_[i] == key) {
        vals_[i] = id;
        return;
      }
      if (keys_[i] == 0) {
        if ((size_ + 1) * 2 > keys_.size()) return;  // full: keep hot set
        keys_[i] = key;
        vals_[i] = id;
        ++size_;
        return;
      }
    }
  }

  std::size_t size() const noexcept { return size_; }
  std::uint64_t lookups() const noexcept { return lookups_; }
  std::uint64_t hits() const noexcept { return hits_; }

 private:
  std::vector<std::uint64_t> keys_;  // 0 = empty slot
  std::vector<core::TemplateId> vals_;
  std::size_t mask_;
  std::size_t size_ = 0;
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
};

class ConcurrentTemplateMatcher {
 public:
  explicit ConcurrentTemplateMatcher(core::TemplateSet* set) : set_(set) {}

  // The shard hot path.  `cache` (may be null) and `scratch` are owned by
  // the calling shard; a memo hit returns without locking or allocating.
  core::TemplateId MatchOrFallback(std::string_view code,
                                   std::string_view detail,
                                   ShardMatchCache* cache,
                                   std::vector<std::string_view>* scratch) {
    std::uint64_t key = 0;
    if (cache != nullptr) {
      key = MessageKey(code, detail);
      if (const auto id = cache->Lookup(key)) return *id;
    }
    SplitWhitespace(detail, scratch);
    {
      std::shared_lock lock(mutex_);
      if (const auto id = set_->Match(code, *scratch)) {
        if (cache != nullptr) cache->Insert(key, *id);
        return *id;
      }
    }
    // Miss: take the writer lock and re-run the full fallback path
    // (another shard may have created the catch-all in between;
    // MatchOrFallback dedups on the canonical form).
    std::unique_lock lock(mutex_);
    const core::TemplateId id = set_->MatchOrFallback(code, detail, scratch);
    if (cache != nullptr) cache->Insert(key, id);
    return id;
  }

  // Reader-lockable by stages that read template text (event labeling).
  std::shared_mutex& mutex() noexcept { return mutex_; }

 private:
  core::TemplateSet* set_;
  std::shared_mutex mutex_;
};

}  // namespace sld::pipeline
