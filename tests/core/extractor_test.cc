#include "core/location/location.h"

#include <gtest/gtest.h>

#include "net/config_parser.h"

namespace sld::core {
namespace {

class ExtractorTest : public ::testing::Test {
 protected:
  ExtractorTest() {
    const char* r1 =
        "hostname r1\n"
        "interface Loopback0\n"
        " ip address 192.168.0.1 255.255.255.255\n"
        "controller T1 0/3\n"
        "interface Serial0/3\n"
        " description to r2 Serial0/1\n"
        " no ip address\n"
        "interface Serial0/3.10:0\n"
        " ip address 10.0.0.1 255.255.255.252\n"
        "router bgp 7018\n"
        " neighbor 192.168.0.2 remote-as 7018\n"
        " address-family ipv4 vrf 1000:1001\n"
        "  neighbor 192.168.100.77 remote-as 65001\n"
        " exit-address-family\n"
        "mpls traffic-eng tunnel mpls-path-9\n"
        " hop r1\n"
        " hop r2\n";
    const char* r2 =
        "hostname r2\n"
        "interface Loopback0\n"
        " ip address 192.168.0.2 255.255.255.255\n"
        "interface Serial0/1\n"
        " description to r1 Serial0/3\n"
        " no ip address\n"
        "interface Serial0/1.10:0\n"
        " ip address 10.0.0.2 255.255.255.252\n";
    dict_ = LocationDict::Build({net::ParseConfig(r1),
                                 net::ParseConfig(r2)});
  }

  // Resolves the router by name first, as RouterResolver does for the
  // callers; a router absent from every config names no locations.
  std::vector<std::string> Names(std::string_view router,
                                 std::string_view detail) {
    std::vector<std::string> out;
    const auto rid = dict_.RouterByName(router);
    if (!rid) return out;
    for (const LocationId id : dict_.Extract(*rid, detail)) {
      out.push_back(dict_.Get(id).name);
    }
    return out;
  }

  LocationDict dict_;
};

TEST_F(ExtractorTest, RouterLocationAlwaysFirst) {
  const auto names = Names("r1", "no locations here at all");
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "r1");
}

TEST_F(ExtractorTest, UnknownRouterYieldsNothing) {
  EXPECT_TRUE(Names("rogue", "Interface Serial0/3, down").empty());
}

TEST_F(ExtractorTest, InterfaceNameWithTrailingComma) {
  const auto names =
      Names("r1", "Interface Serial0/3.10:0, changed state to down");
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[1], "Serial0/3.10:0");
}

TEST_F(ExtractorTest, ControllerTwoTokenForm) {
  const auto names = Names("r1", "Controller T1 0/3, changed state to down");
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[1], "T1 0/3");
}

TEST_F(ExtractorTest, ConfiguredAddressResolves) {
  const auto names = Names("r1", "packet from 10.0.0.2 dropped");
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[1], "Serial0/1.10:0");  // the interface on r2 owning it
}

TEST_F(ExtractorTest, ExactAddressTablesMatchTheConfiguredText) {
  // "010.0.0.2" is r2's address in other text: it misses the exact
  // address table and resolves through the 10.0.0.0/30 prefix, whose
  // first configured owner is r1's end of the link.
  EXPECT_EQ(Names("r1", "peer 10.0.0.2 down"),
            (std::vector<std::string>{"r1", "Serial0/1.10:0"}));
  EXPECT_EQ(Names("r1", "peer 010.0.0.2 down"),
            (std::vector<std::string>{"r1", "Serial0/3.10:0"}));
  // Session endpoints are keyed by the neighbor statement's text too,
  // and a /32 loopback has no prefix entry.
  EXPECT_EQ(Names("r1", "neighbor 192.168.000.2 Down"),
            (std::vector<std::string>{"r1"}));
}

TEST_F(ExtractorTest, ScannerAddressValidatedAway) {
  // The §4.1.2 requirement: an address in no config must yield nothing.
  const auto names =
      Names("r1", "Invalid MD5 digest from 203.0.113.9(33812) to "
                  "192.168.0.1(179)");
  // 203.0.113.9 is ignored; 192.168.0.1 is r1's own loopback, which
  // deduplicates against the originating-router location.
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "r1");
}

TEST_F(ExtractorTest, BgpNeighborResolvesSessionAndPeer) {
  const auto names = Names("r1", "neighbor 192.168.0.2 Down Peer closed");
  // Session endpoint on r1 plus r2's router location (loopback owner).
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[1], "bgp 192.168.0.2");
  EXPECT_EQ(names[2], "r2");
}

TEST_F(ExtractorTest, VpnNeighborResolvesSessionOnly) {
  const auto names =
      Names("r1", "neighbor 192.168.100.77 vpn vrf 1000:1001 Up");
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[1], "bgp 192.168.100.77 vrf 1000:1001");
}

TEST_F(ExtractorTest, PathNameResolves) {
  const auto names = Names("r2", "LSP mpls-path-9 changed state to down");
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[1], "mpls-path-9");
}

TEST_F(ExtractorTest, DuplicateMentionsDeduplicated) {
  const auto names =
      Names("r1", "Serial0/3 and Serial0/3 again Serial0/3.10:0");
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[1], "Serial0/3");
  EXPECT_EQ(names[2], "Serial0/3.10:0");
}

TEST_F(ExtractorTest, OtherRoutersInterfaceNameDoesNotResolveLocally) {
  // "Serial0/1" exists on r2, not r1 — a message on r1 naming it must not
  // produce a bogus r1 location (name maps are per router).
  const auto names = Names("r1", "saw Serial0/1 somewhere");
  ASSERT_EQ(names.size(), 1u);
}

TEST_F(ExtractorTest, TrailingControllerTokenIsSafe) {
  // "T1" as the final token (no position following) must not crash or
  // resolve to anything.
  const auto names = Names("r1", "something about T1");
  ASSERT_EQ(names.size(), 1u);
}

TEST(PrefixExtractionTest, FarEndOfPointToPointResolvesViaSubnet) {
  // Only r1's config is available; the far end 10.0.0.2 is not configured
  // anywhere, but it falls inside r1's /30, so it resolves to r1's
  // interface instead of being discarded.
  LocationDict dict = LocationDict::Build({net::ParseConfig(
      "hostname r1\n"
      "interface Loopback0\n"
      " ip address 192.168.0.1 255.255.255.255\n"
      "interface Serial0/3\n"
      " no ip address\n"
      "interface Serial0/3.10:0\n"
      " ip address 10.0.0.1 255.255.255.252\n")});
  const DictRouterId r1 = *dict.RouterByName("r1");
  const auto locs = dict.Extract(r1, "neighbor 10.0.0.2 unreachable");
  ASSERT_EQ(locs.size(), 2u);
  EXPECT_EQ(dict.Get(locs[1]).name, "Serial0/3.10:0");
  // A truly foreign address still resolves to nothing.
  const auto foreign = dict.Extract(r1, "probe from 11.0.0.2");
  EXPECT_EQ(foreign.size(), 1u);
}

}  // namespace
}  // namespace sld::core
