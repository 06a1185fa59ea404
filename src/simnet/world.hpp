// The measurement world: ground-truth ISPs embedded in a shared Internet
// with a transit core and external hosts, answering traceroute, ping,
// TTL-limited echo, and alias-resolution probes exactly the way the paper's
// measurement campaigns experienced them:
//
//  * hop-by-hop ICMP time-exceeded replies from the inbound interface;
//  * intra-region ECMP with paris-traceroute flow stability;
//  * invisible MPLS tunnels, revealed only by probes targeted at router
//    interfaces (Direct Path Revelation, [72][73]);
//  * per-ISP filtering policies (AT&T blocks external probes at the
//    regional boundary; mobile cores are handled by MobileCore);
//  * unresponsive hops, rate limiting, and rare anomalous hop corruption
//    (the single-observation noise pruned in §5.2.1);
//  * shared per-router IP-ID counters for MIDAR and common source
//    addresses for Mercator.
//
// The inference pipeline must treat this class as "the Internet": it can
// send probes and read replies, nothing else.
//
// Thread safety: after finalize(), every probe primitive is safe to call
// concurrently. Probe noise is a pure function of the probe's identity
// (seed, source, destination, flow, attempt) — results never depend on
// global call order — and the route cache hides behind a shared_mutex.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "netbase/geo.hpp"
#include "netbase/ipv4.hpp"
#include "netbase/rng.hpp"
#include "obs/metrics.hpp"
#include "topogen/model.hpp"

namespace ran::sim {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = topo::kInvalidId;

/// What an address resolves to inside the world.
enum class AddrKind {
  kRouterIface,   ///< an ISP router interface
  kLastMileGw,    ///< an IP-DSLAM / ONT / CMTS gateway address
  kCustomer,      ///< a subscriber address behind a last-mile device
  kTransit,       ///< transit-core router
  kHost,          ///< external host (cloud VM, measurement server)
  kUnknown,
};

/// Observation noise knobs (§5.2.1's anomalies and non-responses).
struct NoiseConfig {
  double unresponsive_hop_prob = 0.02;  ///< per-hop silent drop
  double anomaly_prob = 0.0004;  ///< hop address replaced by a random
                                 ///< interface of the same ISP
  double rtt_jitter_ms = 0.15;   ///< half-width of uniform RTT jitter
  /// Probability a customer host answers ICMP echo at all.
  double customer_echo_prob = 0.35;
};

/// One traceroute hop observation.
struct Hop {
  int ttl = 0;
  net::IPv4Address addr;    ///< unspecified when no reply ("*")
  double rtt_ms = 0.0;
  int reply_ttl = 0;
  [[nodiscard]] bool responded() const { return !addr.is_unspecified(); }
};

struct TraceResult {
  net::IPv4Address dst;
  std::vector<Hop> hops;
  bool reached = false;
};

struct PingResult {
  bool responded = false;
  net::IPv4Address responder;
  double rtt_ms = 0.0;
};

/// Where a probe originates.
struct ProbeSource {
  NodeId node = kInvalidNode;
  /// Extra one-way delay in front of the first hop (radio, WiFi, DSL).
  double access_delay_ms = 0.0;
};

class World {
 public:
  explicit World(std::uint64_t seed);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Takes ownership of a ground-truth ISP; returns its index.
  int add_isp(topo::Isp isp);

  /// Adds an external host attached (at `location`) to the transit core.
  NodeId add_host(std::string name, net::GeoPoint location,
                  net::IPv4Address addr);

  /// Builds the transit core and the address indexes. Call once after all
  /// ISPs and hosts are added; probing before finalize() is a precondition
  /// violation.
  void finalize();

  [[nodiscard]] const topo::Isp& isp(int index) const;
  [[nodiscard]] int isp_count() const { return static_cast<int>(isps_.size()); }

  /// Node handle for a last-mile device (to originate probes behind it).
  [[nodiscard]] NodeId node_of_last_mile(int isp_index,
                                         topo::LastMileId lm) const;
  /// A ProbeSource behind the given last-mile device (adds access delay).
  [[nodiscard]] ProbeSource vantage_behind(int isp_index,
                                           topo::LastMileId lm) const;

  [[nodiscard]] AddrKind classify(net::IPv4Address addr) const;

  /// Paris-style traceroute. The flow identifier is stable for the whole
  /// trace; by default it derives from (source, destination). `attempt`
  /// re-rolls the observation noise (unresponsive hops, anomalies,
  /// jitter) without moving the path: retrying a probe is attempt+1.
  /// Results are a pure function of (src, dst, flow_id, attempt).
  [[nodiscard]] TraceResult trace(const ProbeSource& src,
                                  net::IPv4Address dst,
                                  std::uint64_t flow_id = 0,
                                  std::uint64_t attempt = 0) const;

  /// ICMP echo to `dst`; `attempt` re-rolls the noise as in trace().
  [[nodiscard]] PingResult ping(const ProbeSource& src, net::IPv4Address dst,
                                std::uint64_t attempt = 0) const;

  /// ICMP echo with a limited TTL: the reply comes from the hop where the
  /// TTL expires (the §6.3 penultimate-hop latency trick).
  [[nodiscard]] PingResult ping_ttl(const ProbeSource& src,
                                    net::IPv4Address dst, int ttl,
                                    std::uint64_t attempt = 0) const;

  /// Minimum RTT over `count` pings; nullopt when nothing answered.
  [[nodiscard]] std::optional<double> min_rtt(const ProbeSource& src,
                                              net::IPv4Address dst,
                                              int count) const;

  // --- alias-resolution primitives -------------------------------------
  /// Mercator: a UDP probe to an unused port; routers configured to reply
  /// with their primary address reveal it (otherwise the probed address).
  [[nodiscard]] std::optional<net::IPv4Address> mercator_probe(
      net::IPv4Address addr) const;

  /// IP-ID of a reply elicited from `addr` at time `t_ms`. Routers share
  /// one counter across interfaces (MIDAR's signal); some use random
  /// IP-IDs, returned as unpredictable values. nullopt when unreachable.
  [[nodiscard]] std::optional<std::uint16_t> ipid_sample(
      net::IPv4Address addr, double t_ms) const;

  [[nodiscard]] NoiseConfig& noise() { return noise_; }
  [[nodiscard]] const NoiseConfig& noise() const { return noise_; }

  /// Pre-computes the route tables for the given sources so a following
  /// concurrent campaign runs on a read-mostly cache.
  void warm_routes(std::span<const ProbeSource> sources) const;

  /// Hooks probe-primitive counters and route-cache accounting into
  /// `registry` (null unhooks). Counting never perturbs probe results.
  /// Probe-primitive totals are deterministic; route-cache hit/miss/evict
  /// depend on scheduling and register as volatile metrics.
  void set_metrics(obs::Registry* registry);

 private:
  enum class NodeKind { kRouter, kLastMile, kTransit, kHost };

  struct Node {
    NodeKind kind = NodeKind::kTransit;
    int isp = -1;
    topo::RouterId router = topo::kInvalidId;
    topo::LastMileId last_mile = topo::kInvalidId;
    net::GeoPoint location;
    net::IPv4Address addr;  ///< transit/host own address
  };

  struct Edge {
    NodeId to = kInvalidNode;
    double weight = 1.0;
    double delay_ms = 0.05;
    /// Address of the `to`-side interface: what `to` replies with when a
    /// probe arriving over this edge expires there (unspecified: reply
    /// with the probed/primary address).
    net::IPv4Address ingress_addr;
  };

  struct Resolution {
    AddrKind kind = AddrKind::kUnknown;
    NodeId anchor = kInvalidNode;  ///< node the address routes to
    bool exact = true;  ///< false: routable vicinity only (/24 fallback)
  };

  /// One equal-cost predecessor on a shortest path, with the ingress
  /// interface address at the successor node and the edge delay.
  struct PredEdge {
    NodeId from = kInvalidNode;
    net::IPv4Address ingress;
    float delay = 0.0f;
  };

  /// Per-source shortest-path state (cached).
  struct RouteTable {
    std::vector<double> dist;
    std::vector<std::vector<PredEdge>> preds;
  };

  /// One node along a selected path with its ingress address and the delay
  /// of the edge leading to it.
  struct PathStep {
    NodeId node = kInvalidNode;
    net::IPv4Address ingress;
    float delay = 0.0f;
  };

  NodeId add_node(Node node);
  void add_edge(NodeId a, NodeId b, double weight, double delay,
                net::IPv4Address ingress_at_b, net::IPv4Address ingress_at_a);
  [[nodiscard]] Resolution resolve(net::IPv4Address addr) const;
  /// Shared ownership so a concurrent cache eviction cannot invalidate a
  /// table another thread is still walking.
  [[nodiscard]] std::shared_ptr<const RouteTable> routes_from(
      NodeId src) const;
  /// Seed of the noise generator owned by one probe.
  [[nodiscard]] std::uint64_t probe_seed(NodeId src, net::IPv4Address dst,
                                         std::uint64_t flow,
                                         std::uint64_t attempt) const;
  /// Node sequence src..anchor for the flow, or empty when disconnected.
  [[nodiscard]] std::vector<PathStep> path_to(const ProbeSource& src,
                                              const Resolution& res,
                                              net::IPv4Address dst,
                                              std::uint64_t flow_id) const;
  [[nodiscard]] bool policy_allows(const ProbeSource& src,
                                   const Resolution& res) const;

  std::vector<topo::Isp> isps_;
  std::vector<Node> nodes_;
  std::vector<std::vector<Edge>> adj_;
  std::unordered_map<net::IPv4Address, Resolution> addr_index_;
  /// Customer pools, sorted by first address, for range resolution.
  std::vector<std::pair<net::IPv4Prefix, NodeId>> pools_;
  /// /24 -> representative node, for sweep targets that hit no pool.
  std::unordered_map<std::uint32_t, NodeId> slash24_index_;
  std::unordered_map<std::uint64_t, NodeId> lastmile_node_;  // (isp,lm)
  std::vector<NodeId> transit_nodes_;
  /// Pre-resolved metric handles (see set_metrics); null when unhooked.
  struct Metrics {
    obs::Counter* traces = nullptr;
    obs::Counter* pings = nullptr;
    obs::Counter* ping_ttls = nullptr;
    obs::Counter* mercator_probes = nullptr;
    obs::Counter* ipid_samples = nullptr;
    obs::Counter* route_hits = nullptr;
    obs::Counter* route_misses = nullptr;
    obs::Counter* route_evictions = nullptr;
    obs::Counter* route_insert_races = nullptr;
  };

  bool finalized_ = false;
  NoiseConfig noise_;
  Metrics metrics_;
  /// The route cache is an immutable map snapshot swapped under the
  /// mutex — the same publish pattern as infer::SnapshotHub, and the
  /// one concurrency contract shared by the campaign and serve paths:
  /// readers copy the map's shared_ptr once per query (a briefly-held
  /// shared lock) and look their source up lock-free; a miss clones the
  /// map, inserts, and publishes under the exclusive lock. The mutex is
  /// never held across a lookup or a Dijkstra run.
  using RouteCacheMap =
      std::unordered_map<NodeId, std::shared_ptr<const RouteTable>>;
  mutable std::shared_mutex route_mutex_;
  mutable std::shared_ptr<const RouteCacheMap> route_cache_;
  std::uint64_t seed_;
};

}  // namespace ran::sim
