// The per-shard match memo cache and the concurrent matcher around it:
// hit/miss behavior, memo entries that outlive catch-all insertions, and
// the lock-free hit path under thread contention (run under TSan in CI).
#include "pipeline/matcher.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"

namespace sld::pipeline {
namespace {

std::vector<std::string> Tokens(std::string_view text) {
  std::vector<std::string> out;
  for (const auto tok : SplitWhitespace(text)) out.emplace_back(tok);
  return out;
}

core::TemplateSet SmallSet() {
  core::TemplateSet set;
  set.Add("LINK-3-UPDOWN", Tokens("Interface * changed state to down"));
  set.Add("BGP-5-ADJCHANGE", Tokens("neighbor * Up"));
  set.Add("BGP-5-ADJCHANGE", Tokens("neighbor * *"));
  return set;
}

TEST(MessageKeyTest, SeparatesCodeFromDetail) {
  EXPECT_NE(MessageKey("ab", "c"), MessageKey("a", "bc"));
  EXPECT_NE(MessageKey("a", ""), MessageKey("", "a"));
  EXPECT_NE(MessageKey("A", "x y"), MessageKey("A", "x z"));
  // Deterministic: same pair, same key.
  EXPECT_EQ(MessageKey("A", "x y"), MessageKey("A", "x y"));
  // Never the empty-slot sentinel.
  EXPECT_NE(MessageKey("", ""), 0u);
}

TEST(ShardMatchCacheTest, InsertLookupAndStats) {
  ShardMatchCache cache(4);
  const std::uint64_t k = MessageKey("C", "a b");
  EXPECT_FALSE(cache.Lookup(k).has_value());
  cache.Insert(k, 7);
  const auto hit = cache.Lookup(k);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 7u);
  // Overwrite of an existing key keeps the size stable.
  cache.Insert(k, 9);
  EXPECT_EQ(cache.Lookup(k).value(), 9u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookups(), 3u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(ShardMatchCacheTest, StopsInsertingWhenHalfFull) {
  ShardMatchCache cache(2);  // 4 slots, 2 usable
  cache.Insert(MessageKey("A", "1"), 1);
  cache.Insert(MessageKey("A", "2"), 2);
  EXPECT_EQ(cache.size(), 2u);
  cache.Insert(MessageKey("A", "3"), 3);
  EXPECT_EQ(cache.size(), 2u);  // refused: the hot set is kept
  EXPECT_FALSE(cache.Lookup(MessageKey("A", "3")).has_value());
  EXPECT_EQ(cache.Lookup(MessageKey("A", "1")).value(), 1u);
  EXPECT_EQ(cache.Lookup(MessageKey("A", "2")).value(), 2u);
}

TEST(ConcurrentTemplateMatcherTest, CachedResultsMatchUncached) {
  core::TemplateSet cached_set = SmallSet();
  core::TemplateSet plain_set = SmallSet();
  ConcurrentTemplateMatcher matcher(&cached_set);
  ShardMatchCache cache;
  std::vector<std::string_view> scratch;
  const std::vector<std::pair<std::string, std::string>> msgs = {
      {"LINK-3-UPDOWN", "Interface Serial1/0 changed state to down"},
      {"BGP-5-ADJCHANGE", "neighbor 10.0.0.1 Up"},
      {"BGP-5-ADJCHANGE", "neighbor 10.0.0.2 Down"},
      {"NEW-1-CODE", "some detail text"},
      {"LINK-3-UPDOWN", "Interface Serial1/0 changed state to down"},
      {"NEW-1-CODE", "other words here"},
  };
  for (int round = 0; round < 3; ++round) {
    for (const auto& [code, detail] : msgs) {
      const auto got =
          matcher.MatchOrFallback(code, detail, &cache, &scratch);
      const auto want = plain_set.MatchOrFallback(code, detail);
      EXPECT_EQ(cached_set.Get(got).Canonical(),
                plain_set.Get(want).Canonical())
          << code << " " << detail;
    }
  }
  // Steady state: with no more catch-all insertions pending, a full round
  // is all memo hits.
  const auto hits_before = cache.hits();
  for (const auto& [code, detail] : msgs) {
    matcher.MatchOrFallback(code, detail, &cache, &scratch);
  }
  EXPECT_EQ(cache.hits() - hits_before, msgs.size());
}

// A catch-all minted on one shard never changes an answer another shard
// has memoized, even for the same code and token count: it has no fixed
// token and the newest id, so Match never prefers it to a template that
// already matched.  The memo entry therefore stays and keeps hitting.
TEST(ConcurrentTemplateMatcherTest, CatchAllKeepsOtherShardMemo) {
  core::TemplateSet set = SmallSet();
  ConcurrentTemplateMatcher matcher(&set);
  ShardMatchCache shard_a;
  ShardMatchCache shard_b;
  std::vector<std::string_view> scratch;
  const std::string_view code = "BGP-5-ADJCHANGE";
  const std::string_view detail = "neighbor 10.0.0.1 Up";

  matcher.MatchOrFallback(code, detail, &shard_a, &scratch);
  // Same code, same three tokens, but no learned template fits.
  const std::size_t before = set.size();
  const auto catch_all =
      matcher.MatchOrFallback(code, "peer 10.0.0.2 Down", &shard_b, &scratch);
  ASSERT_EQ(set.size(), before + 1);
  EXPECT_EQ(set.Get(catch_all).Canonical(), "BGP-5-ADJCHANGE * * *");

  const std::uint64_t hits = shard_a.hits();
  const auto again = matcher.MatchOrFallback(code, detail, &shard_a, &scratch);
  EXPECT_EQ(shard_a.hits(), hits + 1);
  EXPECT_EQ(again, set.Match(code, detail).value());
}

// The TSan seam: concurrent lock-free hits while other threads force
// catch-all insertions through the writer lock.  Correctness check is by
// canonical template text, which is deterministic even though catch-all
// ids depend on thread interleaving.
TEST(ConcurrentTemplateMatcherTest, ConcurrentHitsAndFallbacksAreClean) {
  core::TemplateSet set = SmallSet();
  ConcurrentTemplateMatcher matcher(&set);
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  std::vector<std::thread> threads;
  std::vector<std::string> errors(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ShardMatchCache cache;
      std::vector<std::string_view> scratch;
      const std::string own_code = "GHOST-" + std::to_string(t) + "-X";
      for (int i = 0; i < kRounds; ++i) {
        struct Probe {
          std::string_view code;
          std::string_view detail;
          std::string_view canonical;
        };
        const std::string own_detail =
            "event " + std::to_string(i % 7) + " seen";
        const std::string own_canonical = own_code + " * * *";
        const Probe probes[] = {
            {"LINK-3-UPDOWN", "Interface Serial1/0 changed state to down",
             "LINK-3-UPDOWN Interface * changed state to down"},
            {"BGP-5-ADJCHANGE", "neighbor 10.0.0.1 Up",
             "BGP-5-ADJCHANGE neighbor * Up"},
            // Unique per thread: exercises the writer-lock fallback and
            // epoch bumps concurrent with other threads' cache hits.
            {own_code, own_detail, own_canonical},
        };
        for (const Probe& p : probes) {
          const auto id =
              matcher.MatchOrFallback(p.code, p.detail, &cache, &scratch);
          std::string got;
          {
            std::shared_lock lock(matcher.mutex());
            got = set.Get(id).Canonical();
          }
          if (got != p.canonical && errors[t].empty()) {
            errors[t] = got + " != " + std::string(p.canonical);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const std::string& err : errors) EXPECT_EQ(err, "");
  // Three learned + one catch-all per thread.
  std::shared_lock lock(matcher.mutex());
  EXPECT_EQ(set.size(), 3u + kThreads);
}

}  // namespace
}  // namespace sld::pipeline
