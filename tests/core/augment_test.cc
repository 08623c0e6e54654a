#include "core/augment.h"

#include <gtest/gtest.h>

#include "net/config_parser.h"

namespace sld::core {
namespace {

class AugmentTest : public ::testing::Test {
 protected:
  AugmentTest() {
    dict_ = LocationDict::Build({net::ParseConfig(
        "hostname r1\n"
        "interface Loopback0\n"
        " ip address 192.168.0.1 255.255.255.255\n"
        "interface Serial0/0\n"
        " no ip address\n"
        "interface Serial0/0.10:0\n"
        " ip address 10.0.0.1 255.255.255.252\n")});
    templates_.Add("LINK-3-UPDOWN",
                   {"Interface", "*", "changed", "state", "to", "down"});
  }

  LocationDict dict_;
  TemplateSet templates_;
};

TEST_F(AugmentTest, KnownRouterGetsLocationsAndTemplate) {
  Augmenter aug(&templates_, &dict_);
  syslog::SyslogRecord rec{1000, "r1", "LINK-3-UPDOWN",
                           "Interface Serial0/0, changed state to down"};
  const Augmented a = aug.Augment(rec, 5);
  EXPECT_EQ(a.time, 1000);
  EXPECT_EQ(a.raw_index, 5u);
  EXPECT_TRUE(a.router_known);
  EXPECT_EQ(a.router_key, 0u);
  EXPECT_EQ(a.tmpl, 0u);
  ASSERT_EQ(a.locs.size(), 2u);
  EXPECT_EQ(dict_.Get(a.locs[0]).level, LocLevel::kRouter);
  EXPECT_EQ(dict_.Get(a.locs[1]).name, "Serial0/0");
  EXPECT_TRUE(a.HasDetailLocation());
}

TEST_F(AugmentTest, UnknownRouterGetsStableSyntheticKey) {
  Augmenter aug(&templates_, &dict_);
  syslog::SyslogRecord rec{0, "ghost", "X-1-Y", "detail"};
  const Augmented a = aug.Augment(rec, 0);
  const Augmented b = aug.Augment(rec, 1);
  EXPECT_FALSE(a.router_known);
  EXPECT_TRUE(a.locs.empty());
  EXPECT_EQ(a.router_key, b.router_key);
  EXPECT_GE(a.router_key, dict_.router_count());
  syslog::SyslogRecord other{0, "ghost2", "X-1-Y", "detail"};
  EXPECT_NE(aug.Augment(other, 2).router_key, a.router_key);
}

TEST_F(AugmentTest, UnmatchedMessageGetsFallbackTemplate) {
  Augmenter aug(&templates_, &dict_);
  syslog::SyslogRecord rec{0, "r1", "NEW-0-THING", "a b c"};
  const Augmented a = aug.Augment(rec, 0);
  EXPECT_EQ(templates_.Get(a.tmpl).Canonical(), "NEW-0-THING * * *");
}

TEST_F(AugmentTest, AugmentAllPreservesOrderAndIndices) {
  Augmenter aug(&templates_, &dict_);
  std::vector<syslog::SyslogRecord> recs;
  for (int i = 0; i < 5; ++i) {
    recs.push_back({i * 1000, "r1", "LINK-3-UPDOWN",
                    "Interface Serial0/0, changed state to down"});
  }
  const auto all = aug.AugmentAll(recs);
  ASSERT_EQ(all.size(), 5u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].raw_index, i);
    EXPECT_EQ(all[i].time, static_cast<TimeMs>(i) * 1000);
  }
}

}  // namespace
}  // namespace sld::core
