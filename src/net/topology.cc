#include "net/topology.h"

#include <algorithm>
#include <array>
#include <set>
#include <stdexcept>

#include "common/rng.h"

namespace sld::net {
namespace {

struct City {
  const char* code;
  const char* state;
};

// Airport-style city codes with their states, used to synthesize router
// names ("cr03.dllstx") and the state tags trouble tickets are matched on.
constexpr std::array<City, 16> kCities = {{
    {"dllstx", "TX"}, {"chcgil", "IL"}, {"nycmny", "NY"}, {"attlga", "GA"},
    {"sttlwa", "WA"}, {"sffrca", "CA"}, {"hstntx", "TX"}, {"dnvrco", "CO"},
    {"phlapa", "PA"}, {"miamfl", "FL"}, {"bstnma", "MA"}, {"kscymo", "MO"},
    {"ptldor", "OR"}, {"phnxaz", "AZ"}, {"mplsmn", "MN"}, {"clevoh", "OH"},
}};

std::string RouterName(Vendor vendor, int index) {
  const City& city = kCities[static_cast<std::size_t>(index) % kCities.size()];
  const char* prefix = vendor == Vendor::kV1 ? "cr" : "vho";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%02d.%s", prefix, index + 1, city.code);
  return buf;
}

std::string LoopbackIp(int index) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "192.168.%d.%d", index / 250,
                index % 250 + 1);
  return buf;
}

// /30 subnet per link out of 10.0.0.0/8.
std::string LinkIp(std::uint32_t link_index, int side) {
  const std::uint32_t base = link_index * 4;
  char buf[20];
  std::snprintf(buf, sizeof(buf), "10.%u.%u.%u", (base >> 16) & 255,
                (base >> 8) & 255, (base & 255) + 1 + static_cast<unsigned>(side));
  return buf;
}

// Secondary (non-link) logical interfaces draw from 172.16.0.0/12.
std::string SecondaryIp(std::uint32_t index) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "172.%u.%u.%u", 16 + ((index >> 16) & 15),
                (index >> 8) & 255, (index & 255));
  return buf;
}

std::string PhysName(Vendor vendor, int slot, int port) {
  char buf[40];
  if (vendor == Vendor::kV1) {
    // Even slots carry channelized serial interfaces (with a T1 controller),
    // odd slots carry gigabit ethernet — two distinct naming shapes, as in
    // real mixed-linecard chassis.
    if (slot % 2 == 0) {
      std::snprintf(buf, sizeof(buf), "Serial%d/%d", slot, port);
    } else {
      std::snprintf(buf, sizeof(buf), "GigabitEthernet%d/%d/0", slot, port);
    }
  } else {
    std::snprintf(buf, sizeof(buf), "%d/1/%d", slot + 1, port + 1);
  }
  return buf;
}

std::string LogicalName(Vendor vendor, const std::string& phys_name, int slot,
                        int sub) {
  char buf[48];
  if (vendor == Vendor::kV1) {
    if (slot % 2 == 0) {
      // Matches the paper's "Serial1/0.10/10:0" flavour.
      std::snprintf(buf, sizeof(buf), "%s.%d:0", phys_name.c_str(),
                    (sub + 1) * 10);
    } else {
      std::snprintf(buf, sizeof(buf), "%s.%d", phys_name.c_str(),
                    (sub + 1) * 10);
    }
  } else {
    if (sub == 0) return phys_name;  // untagged L3 interface on the port
    std::snprintf(buf, sizeof(buf), "%s.%d", phys_name.c_str(), sub);
  }
  return buf;
}

}  // namespace

PhysIfId Topology::LinkEnd(LinkId link, RouterId router) const {
  const Link& l = links.at(link);
  if (l.router_a == router) return l.phys_a;
  if (l.router_b == router) return l.phys_b;
  return kInvalidId;
}

RouterId Topology::LinkPeer(LinkId link, RouterId router) const {
  const Link& l = links.at(link);
  if (l.router_a == router) return l.router_b;
  if (l.router_b == router) return l.router_a;
  return kInvalidId;
}

LogicalIfId Topology::PrimaryLogical(PhysIfId phys) const {
  const PhysIf& p = phys_ifs.at(phys);
  return p.logical_ifs.empty() ? kInvalidId : p.logical_ifs.front();
}

const Router* Topology::FindRouter(std::string_view name) const {
  for (const Router& r : routers) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

Topology GenerateTopology(const TopologyParams& params) {
  if (params.num_routers < 2) {
    throw std::invalid_argument("topology needs at least 2 routers");
  }
  if (params.slots_per_router < 1 || params.ports_per_slot < 1 ||
      params.subifs_per_phys < 1) {
    throw std::invalid_argument("topology needs slots, ports and subifs");
  }
  Rng rng(params.seed);
  Topology topo;

  // Routers, physical interfaces, logical sub-interfaces.
  for (int r = 0; r < params.num_routers; ++r) {
    Router router;
    router.id = static_cast<RouterId>(topo.routers.size());
    router.name = RouterName(params.vendor, r);
    router.vendor = params.vendor;
    router.loopback_ip = LoopbackIp(r);
    router.state = kCities[static_cast<std::size_t>(r) % kCities.size()].state;
    router.num_slots = params.slots_per_router;
    for (int slot = 0; slot < params.slots_per_router; ++slot) {
      for (int port = 0; port < params.ports_per_slot; ++port) {
        PhysIf phys;
        phys.id = static_cast<PhysIfId>(topo.phys_ifs.size());
        phys.router = router.id;
        phys.slot = slot;
        phys.port = port;
        phys.name = PhysName(params.vendor, slot, port);
        phys.has_controller = params.vendor == Vendor::kV1 && slot % 2 == 0;
        for (int sub = 0; sub < params.subifs_per_phys; ++sub) {
          LogicalIf logical;
          logical.id = static_cast<LogicalIfId>(topo.logical_ifs.size());
          logical.router = router.id;
          logical.phys = phys.id;
          logical.sub_id = sub;
          logical.name = LogicalName(params.vendor, phys.name, slot, sub);
          phys.logical_ifs.push_back(logical.id);
          topo.logical_ifs.push_back(std::move(logical));
        }
        router.phys_ifs.push_back(phys.id);
        topo.phys_ifs.push_back(std::move(phys));
      }
    }
    topo.routers.push_back(std::move(router));
  }

  // Free (not yet link-terminating, not bundled) interfaces per router.
  std::vector<std::vector<PhysIfId>> free_ifs(topo.routers.size());
  for (const Router& r : topo.routers) {
    free_ifs[r.id] = r.phys_ifs;
    rng.Shuffle(free_ifs[r.id]);
  }
  const auto take_if = [&](RouterId r) -> PhysIfId {
    if (free_ifs[r].empty()) return kInvalidId;
    const PhysIfId id = free_ifs[r].back();
    free_ifs[r].pop_back();
    return id;
  };

  std::set<std::pair<RouterId, RouterId>> linked_pairs;
  const auto add_link = [&](RouterId a, RouterId b) -> bool {
    if (a == b) return false;
    const auto key = std::minmax(a, b);
    if (linked_pairs.count({key.first, key.second}) != 0) return false;
    const PhysIfId pa = take_if(a);
    if (pa == kInvalidId) return false;
    const PhysIfId pb = take_if(b);
    if (pb == kInvalidId) {
      free_ifs[a].push_back(pa);
      return false;
    }
    Link link;
    link.id = static_cast<LinkId>(topo.links.size());
    link.router_a = a;
    link.router_b = b;
    link.phys_a = pa;
    link.phys_b = pb;
    topo.phys_ifs[pa].link = link.id;
    topo.phys_ifs[pb].link = link.id;
    linked_pairs.insert({key.first, key.second});
    topo.links.push_back(link);
    return true;
  };

  // Spanning tree keeps the network connected.
  for (RouterId r = 1; r < topo.routers.size(); ++r) {
    bool ok = false;
    for (int attempt = 0; attempt < 64 && !ok; ++attempt) {
      ok = add_link(r, static_cast<RouterId>(rng.Index(r)));
    }
    if (!ok) throw std::invalid_argument("not enough ports for spanning tree");
  }
  // Extra random links for realistic degree distribution.
  const int extra = static_cast<int>(params.num_routers *
                                     params.extra_link_factor);
  for (int i = 0; i < extra; ++i) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const RouterId a = static_cast<RouterId>(rng.Index(topo.routers.size()));
      const RouterId b = static_cast<RouterId>(rng.Index(topo.routers.size()));
      if (add_link(a, b)) break;
    }
  }

  // Multilink bundles over remaining free interfaces.
  for (Router& router : topo.routers) {
    for (int n = 0; n < params.bundles_per_router; ++n) {
      if (free_ifs[router.id].size() <
          static_cast<std::size_t>(params.bundle_width)) {
        break;
      }
      Bundle bundle;
      bundle.id = static_cast<BundleId>(topo.bundles.size());
      bundle.router = router.id;
      // Named by the network-wide bundle id so the config writer's group
      // numbers and the name agree.
      char buf[24];
      if (params.vendor == Vendor::kV1) {
        std::snprintf(buf, sizeof(buf), "Multilink%u", bundle.id + 1);
      } else {
        std::snprintf(buf, sizeof(buf), "lag-%u", bundle.id + 1);
      }
      bundle.name = buf;
      for (int m = 0; m < params.bundle_width; ++m) {
        const PhysIfId member = take_if(router.id);
        topo.phys_ifs[member].bundle = bundle.id;
        bundle.members.push_back(member);
      }
      router.bundles.push_back(bundle.id);
      topo.bundles.push_back(std::move(bundle));
    }
  }

  // Layer-3 addresses: link endpoints get the link /30; everything else
  // draws from the secondary pool.
  std::uint32_t secondary = 1;
  for (LogicalIf& logical : topo.logical_ifs) {
    const PhysIf& phys = topo.phys_ifs[logical.phys];
    if (phys.link.has_value() && logical.id == phys.logical_ifs.front()) {
      const Link& link = topo.links[*phys.link];
      const int side = link.router_a == logical.router ? 0 : 1;
      logical.ip = LinkIp(link.id, side);
    } else {
      logical.ip = SecondaryIp(secondary++);
    }
  }

  // iBGP sessions between loopbacks of directly linked routers.
  for (const Link& link : topo.links) {
    if (!rng.Bernoulli(0.5)) continue;
    BgpSession s;
    s.id = static_cast<SessionId>(topo.sessions.size());
    s.router_a = link.router_a;
    s.router_b = link.router_b;
    s.neighbor_ip_of_a = topo.routers[link.router_b].loopback_ip;
    s.neighbor_ip_of_b = topo.routers[link.router_a].loopback_ip;
    topo.routers[link.router_a].sessions.push_back(s.id);
    topo.routers[link.router_b].sessions.push_back(s.id);
    topo.sessions.push_back(std::move(s));
  }

  // eBGP VPN sessions to external customer-edge neighbors.
  std::uint32_t ce = 1;
  for (Router& router : topo.routers) {
    for (int n = 0; n < params.ebgp_sessions_per_router; ++n) {
      BgpSession s;
      s.id = static_cast<SessionId>(topo.sessions.size());
      s.router_a = router.id;
      s.router_b = kInvalidId;
      char ip[20];
      std::snprintf(ip, sizeof(ip), "192.168.%u.%u", 100 + ((ce >> 8) & 127),
                    ce & 255);
      ++ce;
      s.neighbor_ip_of_a = ip;
      char vrf[16];
      std::snprintf(vrf, sizeof(vrf), "1000:%u",
                    1000 + static_cast<unsigned>(rng.UniformInt(0, 31)));
      s.vrf = vrf;
      router.sessions.push_back(s.id);
      topo.sessions.push_back(std::move(s));
    }
  }

  // Multi-hop MPLS paths as random walks over the link graph.
  std::vector<std::vector<LinkId>> links_of(topo.routers.size());
  for (const Link& link : topo.links) {
    links_of[link.router_a].push_back(link.id);
    links_of[link.router_b].push_back(link.id);
  }
  for (int n = 0; n < params.num_paths; ++n) {
    Path path;
    path.id = static_cast<PathId>(topo.paths.size());
    RouterId at = static_cast<RouterId>(rng.Index(topo.routers.size()));
    path.hops.push_back(at);
    for (int hop = 0; hop < params.path_len; ++hop) {
      if (links_of[at].empty()) break;
      const LinkId link = rng.Pick(links_of[at]);
      const RouterId next = topo.LinkPeer(link, at);
      if (std::find(path.hops.begin(), path.hops.end(), next) !=
          path.hops.end()) {
        break;  // avoid loops; a shorter path is fine
      }
      path.links.push_back(link);
      path.hops.push_back(next);
      at = next;
    }
    if (path.hops.size() < 2) continue;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "mpls-path-%d", n + 1);
    path.name = buf;
    topo.paths.push_back(std::move(path));
  }

  return topo;
}

}  // namespace sld::net
