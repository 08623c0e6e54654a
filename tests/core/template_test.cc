#include "core/templates/template.h"

#include <gtest/gtest.h>

#include "common/strings.h"

namespace sld::core {
namespace {

std::vector<std::string> Tokens(std::string_view text) {
  std::vector<std::string> out;
  for (const auto tok : SplitWhitespace(text)) out.emplace_back(tok);
  return out;
}

TEST(TemplateTest, CanonicalJoinsCodeAndTokens) {
  Template tmpl;
  tmpl.code = "LINK-3-UPDOWN";
  tmpl.tokens = Tokens("Interface * changed state to down");
  tmpl.RecomputeFixedCount();
  EXPECT_EQ(tmpl.Canonical(),
            "LINK-3-UPDOWN Interface * changed state to down");
  EXPECT_EQ(tmpl.FixedCount(), 5u);
}

TEST(TemplateTest, FixedCountIsCachedBySet) {
  TemplateSet set;
  const auto id = set.Add("C", Tokens("a * c *"));
  EXPECT_EQ(set.Get(id).FixedCount(), 2u);
}

TEST(TemplateTest, MatchesRespectsMaskAndLength) {
  Template tmpl;
  tmpl.code = "X";
  tmpl.tokens = Tokens("a * c");
  EXPECT_TRUE(tmpl.Matches(SplitWhitespace("a anything c")));
  EXPECT_FALSE(tmpl.Matches(SplitWhitespace("a anything d")));
  EXPECT_FALSE(tmpl.Matches(SplitWhitespace("a c")));
  EXPECT_FALSE(tmpl.Matches(SplitWhitespace("a x c d")));
}

TEST(TemplateSetTest, AddDeduplicatesByCanonical) {
  TemplateSet set;
  const auto a = set.Add("C", Tokens("x * z"));
  const auto b = set.Add("C", Tokens("x * z"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(set.size(), 1u);
}

TEST(TemplateSetTest, MatchPicksMostSpecific) {
  TemplateSet set;
  const auto generic = set.Add("BGP-5-ADJCHANGE", Tokens("neighbor * *"));
  const auto specific = set.Add("BGP-5-ADJCHANGE", Tokens("neighbor * Up"));
  const auto up = set.Match("BGP-5-ADJCHANGE", "neighbor 10.0.0.1 Up");
  ASSERT_TRUE(up.has_value());
  EXPECT_EQ(*up, specific);
  const auto other = set.Match("BGP-5-ADJCHANGE", "neighbor 10.0.0.1 Down");
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(*other, generic);
}

TEST(TemplateSetTest, MatchRequiresSameCodeAndLength) {
  TemplateSet set;
  set.Add("A", Tokens("x y"));
  EXPECT_FALSE(set.Match("B", "x y").has_value());
  EXPECT_FALSE(set.Match("A", "x y z").has_value());
  EXPECT_TRUE(set.Match("A", "x y").has_value());
}

TEST(TemplateSetTest, FallbackCreatesCatchAll) {
  TemplateSet set;
  const auto id = set.MatchOrFallback("NEW-1-CODE", "some detail text");
  EXPECT_EQ(set.Get(id).Canonical(), "NEW-1-CODE * * *");
  // Second unseen message of the same shape reuses the same fallback.
  const auto again = set.MatchOrFallback("NEW-1-CODE", "other words here");
  EXPECT_EQ(id, again);
  EXPECT_EQ(set.size(), 1u);
}

TEST(TemplateSetTest, FallbackDoesNotShadowLearnedTemplates) {
  TemplateSet set;
  const auto learned = set.Add("C", Tokens("fixed * words"));
  const auto matched = set.MatchOrFallback("C", "fixed anything words");
  EXPECT_EQ(matched, learned);
}

TEST(TemplateSetTest, SerializeRoundTrip) {
  TemplateSet set;
  set.Add("LINK-3-UPDOWN", Tokens("Interface * changed state to down"));
  set.Add("BGP-5-ADJCHANGE", Tokens("neighbor * vpn vrf * Up"));
  set.Add("SYS-1-CPURISINGTHRESHOLD", Tokens("Threshold: * *"));
  const TemplateSet restored = TemplateSet::Deserialize(set.Serialize());
  ASSERT_EQ(restored.size(), set.size());
  for (const Template& tmpl : set.All()) {
    // Ids are assigned in order, so they must agree too.
    EXPECT_EQ(restored.Get(tmpl.id).Canonical(), tmpl.Canonical());
  }
}

TEST(TemplateSetTest, EmptyDetailMessagesSupported) {
  TemplateSet set;
  const auto id = set.Add("SYS-5-RESTART", {});
  EXPECT_EQ(set.Get(id).Canonical(), "SYS-5-RESTART");
  EXPECT_EQ(set.Match("SYS-5-RESTART", "").value(), id);
  EXPECT_FALSE(set.Match("SYS-5-RESTART", "unexpected words").has_value());
}

TEST(TemplateSetTest, EmptySetMatchesNothing) {
  TemplateSet set;
  EXPECT_FALSE(set.Match("X", "anything").has_value());
  EXPECT_EQ(TemplateSet::Deserialize("").size(), 0u);
}

TEST(TemplateSetTest, PreSplitMatchAgreesWithStringMatch) {
  TemplateSet set;
  set.Add("BGP-5-ADJCHANGE", Tokens("neighbor * *"));
  set.Add("BGP-5-ADJCHANGE", Tokens("neighbor * Up"));
  set.Add("LINK-3-UPDOWN", Tokens("Interface * changed state to down"));
  const std::vector<std::pair<std::string_view, std::string_view>> probes = {
      {"BGP-5-ADJCHANGE", "neighbor 10.0.0.1 Up"},
      {"BGP-5-ADJCHANGE", "neighbor 10.0.0.1 Down"},
      {"BGP-5-ADJCHANGE", "neighbor extra words here now"},
      {"LINK-3-UPDOWN", "Interface Serial1/0 changed state to down"},
      {"NOPE-1-X", "anything at all"},
      {"LINK-3-UPDOWN", ""},
  };
  std::vector<std::string_view> scratch;
  for (const auto& [code, detail] : probes) {
    SplitWhitespace(detail, &scratch);
    EXPECT_EQ(set.Match(code, scratch), set.Match(code, detail))
        << code << " " << detail;
  }
}

TEST(TemplateSetTest, ScratchMatchOrFallbackReusesOneSplit) {
  TemplateSet set;
  const auto learned = set.Add("C", Tokens("fixed * words"));
  std::vector<std::string_view> scratch;
  EXPECT_EQ(set.MatchOrFallback("C", "fixed anything words", &scratch),
            learned);
  EXPECT_EQ(scratch.size(), 3u);  // the split is left for the caller
  const auto fallback = set.MatchOrFallback("NEW-1-X", "a b c d", &scratch);
  EXPECT_EQ(set.Get(fallback).Canonical(), "NEW-1-X * * * *");
  // Same shape again: the fallback is found by match, not re-added.
  EXPECT_EQ(set.MatchOrFallback("NEW-1-X", "w x y z", &scratch), fallback);
  EXPECT_EQ(set.size(), 2u);
}

}  // namespace
}  // namespace sld::core
