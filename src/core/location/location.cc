#include "core/location/location.h"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <span>

#include "common/strings.h"
#include "core/templates/token_class.h"
#include "net/addr.h"

namespace sld::core {
namespace {

bool IsAlpha(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool IsDigit(char c) noexcept { return c >= '0' && c <= '9'; }

// Extracts (slot, port) from an interface/port name: the first two numbers
// after the optional alphabetic prefix ("Serial1/0.10:0" -> 1/0,
// "GigabitEthernet0/1/0" -> 0/1, "2/1/3" -> 2/1).
void ParsePosition(std::string_view name, int& slot, int& port) noexcept {
  slot = -1;
  port = -1;
  std::size_t i = 0;
  while (i < name.size() && IsAlpha(name[i])) ++i;
  int* targets[2] = {&slot, &port};
  int found = 0;
  while (i < name.size() && found < 2) {
    if (IsDigit(name[i])) {
      int value = 0;
      while (i < name.size() && IsDigit(name[i])) {
        value = value * 10 + (name[i] - '0');
        ++i;
      }
      *targets[found++] = value;
    } else {
      ++i;
    }
  }
}

}  // namespace

double LevelWeight(LocLevel level) noexcept {
  // "The value of l_m at a higher level is several (e.g. 10) times that of
  // a lower level" (§4.2.4).  Router-scope messages weigh most.
  switch (level) {
    case LocLevel::kRouter:
      return 100.0;
    case LocLevel::kBundle:
    case LocLevel::kPath:
      return 50.0;
    case LocLevel::kSession:
      return 20.0;
    case LocLevel::kPhysIf:
      return 10.0;
    case LocLevel::kLogicalIf:
      return 5.0;
  }
  return 5.0;
}

LocationId LocationDict::AddLocation(Location loc) {
  loc.id = static_cast<LocationId>(locations_.size());
  locations_.push_back(std::move(loc));
  return locations_.back().id;
}

LocationDict LocationDict::Build(
    const std::vector<net::ParsedConfig>& configs) {
  LocationDict dict;

  // Pass 1: routers (so cross-references resolve regardless of order).
  for (const net::ParsedConfig& cfg : configs) {
    if (dict.router_index_.count(cfg.hostname) != 0) continue;
    const DictRouterId rid =
        static_cast<DictRouterId>(dict.router_names_.size());
    dict.router_names_.push_back(cfg.hostname);
    dict.router_index_.emplace(cfg.hostname, rid);
    dict.on_router_.emplace_back();
    Location loc;
    loc.router = rid;
    loc.level = LocLevel::kRouter;
    loc.name = cfg.hostname;
    dict.router_locations_.push_back(dict.AddLocation(std::move(loc)));
  }

  // Pass 2: everything on each router.  Link claims are resolved after all
  // ports exist.
  struct LinkClaim {
    LocationId local = kNoId;
    std::string peer_router;
    std::string peer_if;
  };
  std::vector<LinkClaim> claims;
  // Port names kept separately, by router id: on V2 routers an untagged
  // layer-3 interface shares its port's name, and both meanings must stay
  // addressable (ports for link resolution, interfaces for addresses).
  std::vector<NameMap> port_names(dict.router_names_.size());

  for (const net::ParsedConfig& cfg : configs) {
    const DictRouterId rid = dict.router_index_.at(cfg.hostname);
    RouterNames& own = dict.on_router_[rid];

    if (!cfg.loopback_ip.empty()) {
      dict.by_ip_.emplace(cfg.loopback_ip, dict.router_locations_[rid]);
    }

    for (const net::ParsedPort& port : cfg.ports) {
      Location loc;
      loc.router = rid;
      loc.level = LocLevel::kPhysIf;
      ParsePosition(port.name, loc.slot, loc.port);
      loc.name = port.name;
      const LocationId id = dict.AddLocation(std::move(loc));
      own.names.emplace(port.name, id);
      port_names[rid].emplace(port.name, id);
      if (!port.peer_router.empty()) {
        claims.push_back({id, port.peer_router, port.peer_if});
      }
    }

    for (const std::string& ctrl : cfg.controllers) {
      Location loc;
      loc.router = rid;
      loc.level = LocLevel::kPhysIf;
      // "T1 0/0": position is in the second word.
      const std::size_t space = ctrl.find(' ');
      if (space != std::string::npos) {
        ParsePosition(std::string_view(ctrl).substr(space + 1), loc.slot,
                      loc.port);
      }
      loc.name = ctrl;
      const LocationId id = dict.AddLocation(std::move(loc));
      own.names.emplace(ctrl, id);
    }

    for (const net::ParsedInterface& intf : cfg.interfaces) {
      Location loc;
      loc.router = rid;
      loc.level = LocLevel::kLogicalIf;
      loc.name = intf.name;
      // Owning port: the name up to the first sub-interface separator
      // ("Serial1/0.10:0" -> "Serial1/0"; a V2 untagged interface is the
      // port name itself).
      const std::size_t dot = intf.name.find('.');
      const auto parent =
          port_names[rid].find(std::string_view(intf.name).substr(0, dot));
      if (parent != port_names[rid].end()) {
        loc.parent = parent->second;
        loc.slot = dict.locations_[parent->second].slot;
        loc.port = dict.locations_[parent->second].port;
      } else {
        ParsePosition(intf.name, loc.slot, loc.port);
      }
      const LocationId id = dict.AddLocation(std::move(loc));
      // The logical interface is the more specific meaning of the name
      // (V2 untagged interfaces share their port's name).
      own.names.insert_or_assign(intf.name, id);
      if (!intf.ip.empty()) {
        dict.by_ip_.emplace(intf.ip, id);
        if (intf.prefix_len < 32) {
          if (const auto parsed = net::Ipv4::Parse(intf.ip)) {
            const net::Ipv4Prefix block(*parsed, intf.prefix_len);
            dict.by_prefix_[intf.prefix_len].emplace(
                block.network().value(), id);
          }
        }
      }
    }

    for (const net::ParsedBundle& bundle : cfg.bundles) {
      Location loc;
      loc.router = rid;
      loc.level = LocLevel::kBundle;
      loc.name = bundle.name;
      for (const std::string& member : bundle.members) {
        int slot = -1;
        int port = -1;
        ParsePosition(member, slot, port);
        if (slot >= 0) loc.bundle_slots.push_back(slot);
      }
      const LocationId id = dict.AddLocation(std::move(loc));
      own.names.emplace(bundle.name, id);
    }

    for (const net::ParsedBgpNeighbor& nbr : cfg.bgp_neighbors) {
      Location loc;
      loc.router = rid;
      loc.level = LocLevel::kSession;
      loc.name = "bgp " + nbr.ip + (nbr.vrf.empty() ? "" : " vrf " + nbr.vrf);
      const LocationId id = dict.AddLocation(std::move(loc));
      own.sessions.emplace(nbr.ip, id);
    }

    for (const net::ParsedPath& path : cfg.paths) {
      DictPath dp;
      dp.name = path.name;
      for (const std::string& hop : path.hops) {
        const auto it = dict.router_index_.find(hop);
        if (it != dict.router_index_.end()) dp.hops.push_back(it->second);
      }
      const std::uint32_t path_idx =
          static_cast<std::uint32_t>(dict.paths_.size());
      dict.paths_.push_back(std::move(dp));
      Location loc;
      loc.router = rid;
      loc.level = LocLevel::kPath;
      loc.name = path.name;
      loc.path = path_idx;
      const LocationId id = dict.AddLocation(std::move(loc));
      dict.path_by_name_.emplace(path.name, id);
    }
  }

  // Resolve link claims: two claims describing the same pair collapse into
  // one link; a one-sided description still yields a link.
  std::map<std::pair<LocationId, LocationId>, std::uint32_t> link_index;
  for (const LinkClaim& claim : claims) {
    const auto rit = dict.router_index_.find(claim.peer_router);
    if (rit == dict.router_index_.end()) continue;
    // Descriptions name the peer's *port*.
    const NameMap& peer_ports = port_names[rit->second];
    const auto pit = peer_ports.find(claim.peer_if);
    if (pit == peer_ports.end()) continue;
    const LocationId a = claim.local;
    const LocationId b = pit->second;
    const auto key = std::minmax(a, b);
    const auto [it, inserted] = link_index.emplace(
        std::make_pair(key.first, key.second),
        static_cast<std::uint32_t>(dict.links_.size()));
    if (inserted) {
      DictLink link;
      link.phys_a = key.first;
      link.phys_b = key.second;
      link.router_a = dict.locations_[key.first].router;
      link.router_b = dict.locations_[key.second].router;
      dict.links_.push_back(link);
    }
    dict.locations_[a].link = it->second;
    dict.locations_[b].link = it->second;
  }

  // Logical interfaces inherit their port's link.
  for (Location& loc : dict.locations_) {
    if (loc.level == LocLevel::kLogicalIf && loc.parent != kNoId) {
      loc.link = dict.locations_[loc.parent].link;
    }
  }

  // Name filter: 128 bits per distinct name, rounded up to a power of two
  // so the top bits of the hash index it.
  std::vector<std::uint64_t> hashes;
  for (const RouterNames& own : dict.on_router_) {
    for (const auto& [name, id] : own.names) hashes.push_back(HashBytes(name));
  }
  for (const auto& [name, id] : dict.path_by_name_) {
    hashes.push_back(HashBytes(name));
  }
  std::sort(hashes.begin(), hashes.end());
  hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
  const std::size_t bits =
      std::max<std::size_t>(64, std::bit_ceil(hashes.size() * 128));
  dict.filter_shift_ = 64 - std::countr_zero(bits);
  dict.name_filter_.assign(bits / 64, 0);
  for (const std::uint64_t h : hashes) {
    const std::uint64_t bit = h >> dict.filter_shift_;
    dict.name_filter_[bit / 64] |= std::uint64_t{1} << (bit % 64);
  }

  return dict;
}

bool LocationDict::MayName(std::string_view name) const noexcept {
  const std::uint64_t bit = HashBytes(name) >> filter_shift_;
  return (name_filter_[bit / 64] >> (bit % 64)) & 1;
}

std::vector<LocationId> LocationDict::Extract(DictRouterId router,
                                             std::string_view detail) const {
  std::vector<LocationId> out;
  const auto add = [&out](LocationId id) {
    if (std::find(out.begin(), out.end(), id) == out.end()) {
      out.push_back(id);
    }
  };
  add(RouterLocation(router));

  // Extract() is const and runs concurrently on pool workers, so the
  // tokenization scratch is per-thread rather than a member.
  std::vector<std::string_view>& tokens = TlsTokenScratch();
  SplitWhitespace(detail, &tokens);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string_view s = StripPunct(tokens[i]);
    if (s.empty()) continue;
    if (const auto ip = net::Ipv4::Parse(s)) {
      // A neighbor statement on this router (BGP session endpoint)...
      if (const auto sess = SessionOnRouter(router, s)) add(*sess);
      // ...and/or an address configured somewhere in the network; an
      // unconfigured address still resolves if it falls inside a
      // configured interface subnet (the far end of a point-to-point).
      // Both exact tables are keyed by the configured text, so "010.0.0.2"
      // misses them and resolves through the prefix tables alone.
      if (const auto owner = ByIp(s)) {
        add(*owner);
      } else if (const auto subnet = ByIpInPrefix(*ip)) {
        add(*subnet);
      }
      continue;
    }
    // Two-token controller form: "T1 0/3".  The joined name is built in
    // per-thread scratch, which stops allocating once it has grown.
    if (s.size() <= 3 && i + 1 < tokens.size()) {
      const std::string_view pos = StripPunct(tokens[i + 1]);
      if (LooksLikeIfPosition(pos)) {
        thread_local std::string name;
        name.assign(s).append(1, ' ').append(pos);
        if (const auto loc = NameOnRouter(router, name)) {
          add(*loc);
          ++i;
          continue;
        }
      }
    }
    if (!MayName(s)) continue;
    if (const auto loc = NameOnRouter(router, s)) {
      add(*loc);
      continue;
    }
    if (const auto path = PathByName(s)) {
      add(*path);
      continue;
    }
  }
  return out;
}

std::optional<DictRouterId> LocationDict::RouterByName(
    std::string_view name) const {
  const auto it = router_index_.find(name);
  if (it == router_index_.end()) return std::nullopt;
  return it->second;
}

LocationId LocationDict::RouterLocation(DictRouterId router) const {
  return router_locations_.at(router);
}

std::optional<LocationId> LocationDict::NameOnRouter(
    DictRouterId router, std::string_view name) const {
  const NameMap& names = on_router_.at(router).names;
  const auto it = names.find(name);
  if (it == names.end()) return std::nullopt;
  return it->second;
}

std::optional<LocationId> LocationDict::ByIp(std::string_view ip) const {
  const auto it = by_ip_.find(ip);
  if (it == by_ip_.end()) return std::nullopt;
  return it->second;
}

std::optional<LocationId> LocationDict::ByIpInPrefix(net::Ipv4 ip) const {
  for (const auto& [length, table] : by_prefix_) {  // longest prefix first
    const net::Ipv4Prefix block(ip, length);
    const auto it = table.find(block.network().value());
    if (it != table.end()) return it->second;
  }
  return std::nullopt;
}

std::optional<LocationId> LocationDict::PathByName(
    std::string_view name) const {
  const auto it = path_by_name_.find(name);
  if (it == path_by_name_.end()) return std::nullopt;
  return it->second;
}

std::optional<LocationId> LocationDict::SessionOnRouter(
    DictRouterId router, std::string_view neighbor) const {
  const NameMap& sessions = on_router_.at(router).sessions;
  const auto it = sessions.find(neighbor);
  if (it == sessions.end()) return std::nullopt;
  return it->second;
}

bool LocationDict::SpatiallyMatched(LocationId a, LocationId b) const {
  const Location& la = locations_.at(a);
  const Location& lb = locations_.at(b);
  // A path location matches anything on one of its hop routers.
  if (la.level == LocLevel::kPath || lb.level == LocLevel::kPath) {
    if (la.level == LocLevel::kPath && lb.level == LocLevel::kPath) {
      return la.path == lb.path;
    }
    const Location& path = la.level == LocLevel::kPath ? la : lb;
    const Location& other = la.level == LocLevel::kPath ? lb : la;
    const DictPath& dp = paths_.at(path.path);
    return std::find(dp.hops.begin(), dp.hops.end(), other.router) !=
           dp.hops.end();
  }
  if (la.router != lb.router) return false;
  // Slot sets: empty (router/session scope) matches everything on the
  // router; bundles carry their member slots.
  const auto slots_of = [](const Location& l) -> std::span<const int> {
    if (l.level == LocLevel::kBundle) return l.bundle_slots;
    if (l.slot >= 0) return {&l.slot, 1};
    return {};
  };
  const std::span<const int> sa = slots_of(la);
  const std::span<const int> sb = slots_of(lb);
  if (sa.empty() || sb.empty()) return true;
  for (const int s : sa) {
    if (std::find(sb.begin(), sb.end(), s) != sb.end()) return true;
  }
  return false;
}

bool LocationDict::Connected(LocationId a, LocationId b) const {
  const Location& la = locations_.at(a);
  const Location& lb = locations_.at(b);
  if (la.link != kNoId && la.link == lb.link) return true;
  if (la.level == LocLevel::kPath || lb.level == LocLevel::kPath) {
    return SpatiallyMatched(a, b);
  }
  // A message that names an address on the other message's router (e.g.
  // each end of a BGP session naming its peer's loopback).
  if (la.router == lb.router) return SpatiallyMatched(a, b);
  return false;
}

}  // namespace sld::core
