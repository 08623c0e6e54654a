#include "net/addr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "common/strings.h"

namespace sld::net {
namespace {

TEST(Ipv4Test, ParseAndFormatRoundTrip) {
  const auto addr = Ipv4::Parse("192.168.32.42");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->ToString(), "192.168.32.42");
  EXPECT_EQ(addr->value(), (192u << 24) | (168u << 16) | (32u << 8) | 42u);
}

TEST(Ipv4Test, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4::Parse("").has_value());
  EXPECT_FALSE(Ipv4::Parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4::Parse("1.2.3.256").has_value());
  EXPECT_FALSE(Ipv4::Parse("a.b.c.d").has_value());
}

// Reference value of a string LooksLikeIpv4 accepts: split on '.' and
// ParseInt each octet.
std::uint32_t SplitParse(std::string_view text) {
  std::uint32_t value = 0;
  for (const std::string_view part : SplitChar(text, '.')) {
    value = (value << 8) | static_cast<std::uint32_t>(*ParseInt(part));
  }
  return value;
}

TEST(Ipv4Test, ParseAcceptsExactlyLooksLikeIpv4) {
  EXPECT_EQ(Ipv4::Parse("010.0.0.1"), Ipv4((10u << 24) | 1));
  for (const char* bad : {"1.2.3.4.5", "1..2.3", ".1.2.3", "1.2.3.",
                          "1234.1.1.1", "256.1.1.1"}) {
    EXPECT_FALSE(Ipv4::Parse(bad).has_value()) << bad;
    EXPECT_FALSE(LooksLikeIpv4(bad)) << bad;
  }
  // Random strings over digits, '.' and one letter, up to 16 long.  Half
  // are uniform over those characters, which almost never spell an
  // address; the other half join 3-5 fields of 0-4 characters with dots,
  // so a few percent are addresses and many more miss by one field, one
  // digit or one octet over 255.
  constexpr std::string_view kChars = "0123456789.a";
  constexpr int kFieldLength[] = {0, 1, 1, 2, 2, 3, 3, 4};
  Rng rng(20101101);
  std::string text;
  int accepted = 0;
  for (int n = 0; n < 200'000; ++n) {
    text.clear();
    if (n % 2 == 0) {
      const std::int64_t len = rng.UniformInt(0, 16);
      for (std::int64_t i = 0; i < len; ++i) {
        text += kChars[rng.Index(kChars.size())];
      }
    } else {
      const std::int64_t fields = rng.UniformInt(3, 5);
      for (std::int64_t f = 0; f < fields; ++f) {
        if (f > 0) text += '.';
        for (int i = kFieldLength[rng.Index(8)]; i > 0; --i) {
          text += rng.Index(40) == 0 ? 'a' : kChars[rng.Index(10)];
        }
      }
      text.resize(std::min<std::size_t>(text.size(), 16));
    }
    const auto parsed = Ipv4::Parse(text);
    ASSERT_EQ(parsed.has_value(), LooksLikeIpv4(text)) << text;
    if (parsed) {
      ++accepted;
      ASSERT_EQ(parsed->value(), SplitParse(text)) << text;
    }
  }
  EXPECT_GT(accepted, 2'000);
}

TEST(Ipv4Test, Ordering) {
  EXPECT_LT(*Ipv4::Parse("10.0.0.1"), *Ipv4::Parse("10.0.0.2"));
  EXPECT_EQ(*Ipv4::Parse("10.0.0.1"), Ipv4((10u << 24) | 1));
}

TEST(PrefixTest, CanonicalizesHostBits) {
  const Ipv4Prefix p(*Ipv4::Parse("10.0.0.7"), 30);
  EXPECT_EQ(p.ToString(), "10.0.0.4/30");
  EXPECT_EQ(p.length(), 30);
}

TEST(PrefixTest, ParseCidr) {
  const auto p = Ipv4Prefix::Parse("10.1.2.0/24");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->ToString(), "10.1.2.0/24");
  EXPECT_FALSE(Ipv4Prefix::Parse("10.1.2.0").has_value());
  EXPECT_FALSE(Ipv4Prefix::Parse("10.1.2.0/33").has_value());
  EXPECT_FALSE(Ipv4Prefix::Parse("banana/8").has_value());
}

TEST(PrefixTest, Containment) {
  const Ipv4Prefix p(*Ipv4::Parse("10.0.0.4"), 30);
  EXPECT_TRUE(p.Contains(*Ipv4::Parse("10.0.0.4")));
  EXPECT_TRUE(p.Contains(*Ipv4::Parse("10.0.0.5")));
  EXPECT_TRUE(p.Contains(*Ipv4::Parse("10.0.0.7")));
  EXPECT_FALSE(p.Contains(*Ipv4::Parse("10.0.0.8")));
  EXPECT_FALSE(p.Contains(*Ipv4::Parse("10.0.1.5")));
}

TEST(PrefixTest, ZeroAndFullLengths) {
  const Ipv4Prefix all(*Ipv4::Parse("1.2.3.4"), 0);
  EXPECT_TRUE(all.Contains(*Ipv4::Parse("255.255.255.255")));
  const Ipv4Prefix host(*Ipv4::Parse("1.2.3.4"), 32);
  EXPECT_TRUE(host.Contains(*Ipv4::Parse("1.2.3.4")));
  EXPECT_FALSE(host.Contains(*Ipv4::Parse("1.2.3.5")));
}

TEST(PrefixTest, FromMask) {
  const auto p = Ipv4Prefix::FromMask("10.0.0.1", "255.255.255.252");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->ToString(), "10.0.0.0/30");
  EXPECT_FALSE(
      Ipv4Prefix::FromMask("10.0.0.1", "255.0.255.0").has_value());
}

struct MaskCase {
  const char* mask;
  int length;  // -1 = invalid
};

class MaskTest : public ::testing::TestWithParam<MaskCase> {};

TEST_P(MaskTest, ConvertsOrRejects) {
  const auto length = MaskToPrefixLength(GetParam().mask);
  if (GetParam().length < 0) {
    EXPECT_FALSE(length.has_value()) << GetParam().mask;
  } else {
    ASSERT_TRUE(length.has_value()) << GetParam().mask;
    EXPECT_EQ(*length, GetParam().length);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table, MaskTest,
    ::testing::Values(MaskCase{"255.255.255.255", 32},
                      MaskCase{"255.255.255.252", 30},
                      MaskCase{"255.255.255.0", 24},
                      MaskCase{"255.255.0.0", 16},
                      MaskCase{"255.0.0.0", 8}, MaskCase{"0.0.0.0", 0},
                      MaskCase{"255.0.255.0", -1},
                      MaskCase{"0.255.0.0", -1},
                      MaskCase{"not-a-mask", -1}));

}  // namespace
}  // namespace sld::net
