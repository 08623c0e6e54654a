// Network model: routers, slots, ports, interfaces, bundles, links, BGP
// sessions, and multi-hop paths.
//
// This is the substrate the paper takes for granted: an operational network
// whose router configurations encode the location hierarchy of Fig. 3
// (router -> slot/line card -> port -> physical interface -> logical
// interface, plus logical constructs such as multilink bundles and
// cross-router links / sessions / paths).  SyslogDigest itself never reads
// these structs directly — it learns locations from the rendered config
// text (see config_writer.h / config_parser.h) exactly as the paper's
// offline component learns from real router configs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace sld::net {

// Router vendor, selecting both config syntax and syslog message formats.
// kV1 is IOS-like (the paper's Cisco-flavoured examples); kV2 is
// TiMOS-like (the paper's "SNMP-WARNING-linkDown" flavoured examples).
enum class Vendor : std::uint8_t { kV1, kV2 };

using RouterId = std::uint32_t;
using PhysIfId = std::uint32_t;
using LogicalIfId = std::uint32_t;
using BundleId = std::uint32_t;
using LinkId = std::uint32_t;
using SessionId = std::uint32_t;
using PathId = std::uint32_t;

inline constexpr std::uint32_t kInvalidId = 0xffffffffu;

// A router chassis. `state` is a coarse geographic tag (e.g. "TX") used by
// the trouble-ticket matching methodology of §5.3.
struct Router {
  RouterId id = kInvalidId;
  std::string name;          // e.g. "cr01.dllstx" or "vho03.chcgil"
  Vendor vendor = Vendor::kV1;
  std::string loopback_ip;   // e.g. "192.168.0.1"
  std::string state;         // e.g. "TX"
  int num_slots = 0;
  std::vector<PhysIfId> phys_ifs;
  std::vector<BundleId> bundles;
  std::vector<SessionId> sessions;
};

// A physical layer-1/2 interface on a (slot, port) position.
struct PhysIf {
  PhysIfId id = kInvalidId;
  RouterId router = kInvalidId;
  int slot = 0;
  int port = 0;
  std::string name;  // V1: "Serial1/0:0"; V2: "1/1/1"
  std::vector<LogicalIfId> logical_ifs;
  // Set when this interface terminates an inter-router link.
  std::optional<LinkId> link;
  // Set when this interface is a member of a multilink bundle.
  std::optional<BundleId> bundle;
  // V1 channelized interfaces sit on a controller (e.g. "T1 1/0").
  bool has_controller = false;
};

// A logical (layer-3) sub-interface carrying an IP address.
struct LogicalIf {
  LogicalIfId id = kInvalidId;
  RouterId router = kInvalidId;
  PhysIfId phys = kInvalidId;
  int sub_id = 0;
  std::string name;  // V1: "Serial1/0.10:0"; V2: "0/0/1"
  std::string ip;    // e.g. "10.0.1.1"
};

// A multilink / bundle-link aggregating several physical interfaces.
struct Bundle {
  BundleId id = kInvalidId;
  RouterId router = kInvalidId;
  std::string name;  // e.g. "Multilink3" / "lag-3"
  std::vector<PhysIfId> members;
};

// A point-to-point link between physical interfaces on two routers.
// The layer-3 endpoints are the first logical sub-interface on each side.
struct Link {
  LinkId id = kInvalidId;
  RouterId router_a = kInvalidId;
  RouterId router_b = kInvalidId;
  PhysIfId phys_a = kInvalidId;
  PhysIfId phys_b = kInvalidId;
};

// A BGP session. eBGP-VPN sessions carry a VRF id ("1000:1001") and a
// remote CE neighbor address; iBGP sessions run between router loopbacks.
struct BgpSession {
  SessionId id = kInvalidId;
  RouterId router_a = kInvalidId;
  // For iBGP: the remote router. For eBGP-VPN: kInvalidId (CE is external).
  RouterId router_b = kInvalidId;
  std::string neighbor_ip_of_a;  // address A speaks to
  std::string neighbor_ip_of_b;  // address B speaks to (empty for eBGP)
  std::string vrf;               // empty for iBGP
};

// A multi-hop unidirectional path (e.g. an MPLS transport tunnel used as a
// secondary FRR path in the IPTV network of §6.1).
struct Path {
  PathId id = kInvalidId;
  std::string name;
  std::vector<RouterId> hops;
  std::vector<LinkId> links;  // links[i] connects hops[i] and hops[i+1]
};

// The whole network.  All cross-references are by dense index, so lookups
// are O(1) array accesses.
struct Topology {
  std::vector<Router> routers;
  std::vector<PhysIf> phys_ifs;
  std::vector<LogicalIf> logical_ifs;
  std::vector<Bundle> bundles;
  std::vector<Link> links;
  std::vector<BgpSession> sessions;
  std::vector<Path> paths;

  const Router& router(RouterId id) const { return routers.at(id); }
  const PhysIf& phys(PhysIfId id) const { return phys_ifs.at(id); }
  const LogicalIf& logical(LogicalIfId id) const { return logical_ifs.at(id); }

  // The physical interface on `router` terminating `link`.
  PhysIfId LinkEnd(LinkId link, RouterId router) const;
  // The router on the other side of `link` from `router`.
  RouterId LinkPeer(LinkId link, RouterId router) const;
  // First logical sub-interface of a physical interface (its L3 endpoint),
  // or kInvalidId if the interface has none.
  LogicalIfId PrimaryLogical(PhysIfId phys) const;
  // Finds a router by name; returns nullptr when absent.
  const Router* FindRouter(std::string_view name) const;
};

// Generation parameters. Defaults produce a mid-size network; the dataset
// presets in sim/workload.h scale them per evaluation dataset.
struct TopologyParams {
  Vendor vendor = Vendor::kV1;
  int num_routers = 40;
  int slots_per_router = 4;
  int ports_per_slot = 4;
  int subifs_per_phys = 2;       // logical sub-interfaces per physical
  double extra_link_factor = 0.6;  // extra random links beyond spanning tree
  int bundles_per_router = 1;
  int bundle_width = 2;           // member interfaces per bundle
  int ebgp_sessions_per_router = 3;  // VPN sessions to external CEs
  int num_paths = 12;             // multi-hop MPLS paths
  int path_len = 3;               // hops per path
  std::uint64_t seed = 1;
};

// Builds a random connected network honouring `params`.
// Throws std::invalid_argument on infeasible parameters (e.g. more links
// requested than ports available).
Topology GenerateTopology(const TopologyParams& params);

}  // namespace sld::net
