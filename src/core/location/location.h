// Location model and dictionary (§4.1.2, Fig. 3).
//
// The dictionary is learned offline from router configuration text: every
// interface, port, controller, bundle and path becomes a Location with its
// place in the physical hierarchy (router -> slot -> port/interface ->
// logical interface), every layer-3 address maps to its interface, and
// cross-router relationships (links from description lines, BGP sessions
// from neighbor statements, multi-hop paths) are recorded so the online
// groupers can test both same-router spatial matching and cross-router
// connectedness.
//
// Online, Extract finds the locations a message's detail text names.
// Location-format patterns (addresses, interface names, port positions)
// are *validated against the dictionary*: an address that belongs to no
// configured interface (a scanner, a remote host) yields no location, as
// the paper requires ("naive pattern matching is not sufficient...").
//
// Extract runs on every word of every message from a configured router,
// and most words ("Line", "protocol", "changed") name nothing.  Build
// therefore sets one bit per distinct name that NameOnRouter or
// PathByName can return, in a filter of 128 bits per name (under 1% of
// other words hit a set bit); a word whose bit is clear skips both hash
// probes.  Addresses stay out of the filter: interface names repeat from
// router to router but every interface address is distinct, so addresses
// would far outnumber the names and set a large share of the bits.
// An address is parsed once, and the parse both recognizes it and keys
// the prefix tables.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "net/addr.h"
#include "net/config_parser.h"

namespace sld::core {

using LocationId = std::uint32_t;
using DictRouterId = std::uint32_t;
inline constexpr std::uint32_t kNoId = 0xffffffffu;

// Hierarchy levels, ordered from most to least significant.  The scoring
// weight of a level is 10x the level below it (§4.2.4).
enum class LocLevel : std::uint8_t {
  kRouter = 0,
  kBundle,     // multilink/LAG: spans several ports
  kPath,       // multi-hop path: spans several routers
  kSession,    // BGP session endpoint on a router
  kPhysIf,     // port / physical interface / controller
  kLogicalIf,  // layer-3 sub-interface
};

// Importance weight of a level (router = 10^4 ... logical = 10^0).
double LevelWeight(LocLevel level) noexcept;

struct Location {
  LocationId id = kNoId;
  DictRouterId router = kNoId;  // owning router (head router for paths)
  LocLevel level = LocLevel::kRouter;
  int slot = -1;  // physical position; -1 when not applicable
  int port = -1;
  std::string name;            // display name ("cr01.dllstx Serial1/0")
  std::uint32_t link = kNoId;  // link index when this terminates a link
  std::uint32_t path = kNoId;  // path index for kPath locations
  LocationId parent = kNoId;   // owning port for logical interfaces
  std::vector<int> bundle_slots;  // member slots for kBundle locations
};

// A cross-router link learned from interface description lines.
struct DictLink {
  DictRouterId router_a = kNoId;
  DictRouterId router_b = kNoId;
  LocationId phys_a = kNoId;
  LocationId phys_b = kNoId;
};

// A multi-hop path learned from config.
struct DictPath {
  std::string name;
  std::vector<DictRouterId> hops;
};

// The learned location knowledge base.
class LocationDict {
 public:
  // Builds the dictionary from parsed router configurations.
  static LocationDict Build(const std::vector<net::ParsedConfig>& configs);

  // Locations a message from `router` names in its detail text.  The
  // router-level location is always the first element; the rest follow in
  // text order, deduplicated and dictionary-validated.
  std::vector<LocationId> Extract(DictRouterId router,
                                  std::string_view detail) const;

  // -- lookups -----------------------------------------------------------
  std::optional<DictRouterId> RouterByName(std::string_view name) const;
  // Router-level location of a router.
  LocationId RouterLocation(DictRouterId router) const;
  // Named location (interface/port/controller/bundle) on a router.
  std::optional<LocationId> NameOnRouter(DictRouterId router,
                                         std::string_view name) const;
  // Location owning a layer-3 address (any router), by its exact text.
  std::optional<LocationId> ByIp(std::string_view ip) const;
  // Longest-prefix resolution: an address that is not configured anywhere
  // but falls inside a configured interface subnet maps to that interface
  // (e.g. the far end of a /30 when only one side's config is on hand).
  std::optional<LocationId> ByIpInPrefix(net::Ipv4 ip) const;
  // Path by name (any router).
  std::optional<LocationId> PathByName(std::string_view name) const;
  // BGP session-endpoint location for (router, neighbor address), learned
  // from the router's neighbor statements.
  std::optional<LocationId> SessionOnRouter(DictRouterId router,
                                            std::string_view neighbor) const;

  const Location& Get(LocationId id) const { return locations_.at(id); }
  std::size_t size() const noexcept { return locations_.size(); }
  std::size_t router_count() const noexcept { return router_names_.size(); }
  const std::string& RouterName(DictRouterId router) const {
    return router_names_.at(router);
  }
  const std::vector<DictLink>& links() const noexcept { return links_; }
  const std::vector<DictPath>& paths() const noexcept { return paths_; }

  // -- relations used by the groupers -------------------------------------
  // Same-router spatial match (§4.2 "mapped to the same location in the
  // hierarchy"): true when the locations share a router and either one has
  // no specific slot (router/session scope) or their slot sets intersect.
  bool SpatiallyMatched(LocationId a, LocationId b) const;
  // Cross-router connectedness: two ends of one link, membership of one
  // path, or a location that (via an address) resolves onto the other
  // location's router.
  bool Connected(LocationId a, LocationId b) const;

 private:
  // string_view-probed name -> location map.
  using NameMap =
      std::unordered_map<std::string, LocationId, StringHash, std::equal_to<>>;
  // What one router's config names.
  struct RouterNames {
    NameMap names;     // interfaces, ports, controllers, bundles
    NameMap sessions;  // BGP session endpoints by neighbor address
  };

  LocationId AddLocation(Location loc);
  // False when no router and no path is named `name`; true for every
  // name that is, and for under 1% of other words.
  bool MayName(std::string_view name) const noexcept;

  std::vector<Location> locations_;
  std::vector<std::string> router_names_;
  std::unordered_map<std::string, DictRouterId, StringHash, std::equal_to<>>
      router_index_;
  std::vector<LocationId> router_locations_;
  std::vector<RouterNames> on_router_;  // by router id
  NameMap by_ip_;
  // prefix length (descending iteration) -> network address -> location.
  std::map<int, std::unordered_map<std::uint32_t, LocationId>,
           std::greater<int>>
      by_prefix_;
  NameMap path_by_name_;
  // Name filter: bit HashBytes(name) >> filter_shift_ is set for every
  // key of on_router_[*].names and path_by_name_.
  std::vector<std::uint64_t> name_filter_ = {0};
  int filter_shift_ = 58;
  std::vector<DictLink> links_;
  std::vector<DictPath> paths_;
};

}  // namespace sld::core
