#include "world.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <mutex>
#include <queue>

#include "netbase/contracts.hpp"

namespace ran::sim {

namespace {

using net::mix64;

/// Deterministic per-entity coin with probability p (stable across runs).
bool hash_chance(std::uint64_t key, std::uint64_t salt, double p) {
  return static_cast<double>(mix64(key ^ salt) >> 11) * 0x1.0p-53 < p;
}

/// IGP weight model (§ DESIGN): uniform metric 1 inside access regions so
/// redundant AggCO paths tie and ECMP exposes both; a large flat cost on
/// backbone entry links so traffic never transits an access region; and
/// delay-based weights across backbones (hot-potato-ish).
double link_weight(const topo::Isp& isp, const topo::Link& link) {
  const auto& ra = isp.router(isp.iface(link.a).router);
  const auto& rb = isp.router(isp.iface(link.b).router);
  const bool a_bb = ra.role == topo::RouterRole::kBackbone;
  const bool b_bb = rb.role == topo::RouterRole::kBackbone;
  if (!a_bb && !b_bb) return 1.0;
  if (a_bb && b_bb) return link.delay_ms + 0.01;
  return 64.0;
}

constexpr double kPeeringDelayMs = 0.3;
constexpr double kProcessingDelayMs = 0.08;

}  // namespace

World::World(std::uint64_t seed) : seed_(seed) {}

std::uint64_t World::probe_seed(NodeId src, net::IPv4Address dst,
                                std::uint64_t flow,
                                std::uint64_t attempt) const {
  // Chained avalanche over the probe identity: any trace's noise stream is
  // a pure function of its inputs, so campaigns replay bit-for-bit no
  // matter how their probes are ordered or threaded.
  std::uint64_t s = mix64(seed_ ^ 0x50524f4245ULL);  // "PROBE"
  s = mix64(s ^ src);
  s = mix64(s ^ dst.value());
  s = mix64(s ^ flow);
  s = mix64(s ^ attempt);
  return s;
}

NodeId World::add_node(Node node) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::move(node));
  adj_.emplace_back();
  return id;
}

void World::add_edge(NodeId a, NodeId b, double weight, double delay,
                     net::IPv4Address ingress_at_b,
                     net::IPv4Address ingress_at_a) {
  RAN_EXPECTS(a < nodes_.size() && b < nodes_.size());
  adj_[a].push_back(Edge{b, weight, delay, ingress_at_b});
  adj_[b].push_back(Edge{a, weight, delay, ingress_at_a});
}

int World::add_isp(topo::Isp isp) {
  RAN_EXPECTS(!finalized_);
  const int index = static_cast<int>(isps_.size());
  isps_.push_back(std::move(isp));
  const auto& ground = isps_.back();

  std::vector<NodeId> router_nodes(ground.routers().size(), kInvalidNode);
  for (const auto& router : ground.routers()) {
    Node node;
    node.kind = NodeKind::kRouter;
    node.isp = index;
    node.router = router.id;
    node.location = ground.co(router.co).location;
    router_nodes[router.id] = add_node(node);
  }
  for (const auto& link : ground.links()) {
    const auto& ia = ground.iface(link.a);
    const auto& ib = ground.iface(link.b);
    add_edge(router_nodes[ia.router], router_nodes[ib.router],
             link_weight(ground, link), link.delay_ms, ib.addr, ia.addr);
  }
  for (const auto& lm : ground.last_miles()) {
    Node node;
    node.kind = NodeKind::kLastMile;
    node.isp = index;
    node.last_mile = lm.id;
    node.location = lm.location;
    node.addr = lm.gw_addr;
    const NodeId lm_node = add_node(node);
    lastmile_node_[(static_cast<std::uint64_t>(index) << 32) | lm.id] =
        lm_node;
    for (const topo::RouterId router : lm.edge_routers) {
      const auto& r = ground.router(router);
      net::IPv4Address lan;
      if (r.lan_iface != topo::kInvalidId)
        lan = ground.iface(r.lan_iface).addr;
      add_edge(lm_node, router_nodes[router], 1.0, 0.25, lan, lm.gw_addr);
    }
    addr_index_[lm.gw_addr] = Resolution{AddrKind::kLastMileGw, lm_node, true};
    slash24_index_.emplace(lm.gw_addr.value() >> 8, lm_node);
    pools_.emplace_back(lm.customer_pool, lm_node);
    slash24_index_.emplace(lm.customer_pool.network().value() >> 8, lm_node);
  }
  for (const auto& iface : ground.ifaces()) {
    if (iface.addr.is_unspecified()) continue;
    addr_index_[iface.addr] =
        Resolution{AddrKind::kRouterIface, router_nodes[iface.router], true};
    slash24_index_.emplace(iface.addr.value() >> 8,
                           router_nodes[iface.router]);
  }
  return index;
}

NodeId World::add_host(std::string name, net::GeoPoint location,
                       net::IPv4Address addr) {
  RAN_EXPECTS(!finalized_);
  (void)name;
  Node node;
  node.kind = NodeKind::kHost;
  node.location = location;
  node.addr = addr;
  const NodeId id = add_node(node);
  addr_index_[addr] = Resolution{AddrKind::kHost, id, true};
  return id;
}

void World::finalize() {
  RAN_EXPECTS(!finalized_);

  // Transit core: one router at each cloud-region metro and at each city
  // hosting any ISP BackboneCO, full-meshed with fiber-delay weights.
  std::vector<net::GeoPoint> sites;
  auto add_site = [&](const net::GeoPoint& p) {
    for (const auto& s : sites)
      if (net::haversine_km(s, p) < 30.0) return;
    sites.push_back(p);
  };
  for (const auto& cloud : net::us_cloud_regions()) add_site(cloud.location);
  for (const auto& isp : isps_)
    for (const auto& co : isp.cos())
      if (co.role == topo::CoRole::kBackbone) add_site(co.location);

  const auto transit_pool = *net::IPv4Prefix::parse("198.32.0.0/16");
  for (std::size_t i = 0; i < sites.size(); ++i) {
    Node node;
    node.kind = NodeKind::kTransit;
    node.location = sites[i];
    node.addr = transit_pool.at(i + 1);
    const NodeId id = add_node(node);
    addr_index_[node.addr] = Resolution{AddrKind::kTransit, id, true};
    transit_nodes_.push_back(id);
  }
  for (std::size_t i = 0; i < transit_nodes_.size(); ++i) {
    for (std::size_t j = i + 1; j < transit_nodes_.size(); ++j) {
      const NodeId a = transit_nodes_[i];
      const NodeId b = transit_nodes_[j];
      const double delay =
          net::fiber_delay_ms(nodes_[a].location, nodes_[b].location) +
          kProcessingDelayMs;
      add_edge(a, b, delay + 0.01, delay, nodes_[b].addr, nodes_[a].addr);
    }
  }

  auto nearest_transit = [&](const net::GeoPoint& p) {
    NodeId best = kInvalidNode;
    double best_km = 1e18;
    for (const NodeId t : transit_nodes_) {
      const double km = net::haversine_km(p, nodes_[t].location);
      if (km < best_km) {
        best_km = km;
        best = t;
      }
    }
    return best;
  };

  // Peer every ISP backbone router with the nearest transit router.
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    const auto& node = nodes_[n];
    if (node.kind != NodeKind::kRouter) continue;
    const auto& isp = isps_[static_cast<std::size_t>(node.isp)];
    const auto& router = isp.router(node.router);
    if (router.role != topo::RouterRole::kBackbone) continue;
    const NodeId t = nearest_transit(node.location);
    // Peering ingress: the router's dedicated (non-point-to-point)
    // peering interface when it has one, else its first interface.
    net::IPv4Address router_side;
    for (const auto i : router.ifaces) {
      const auto& iface = isp.iface(i);
      if (iface.p2p_len == 0 && !iface.probe_filtered) {
        router_side = iface.addr;
        break;
      }
    }
    if (router_side.is_unspecified() && !router.ifaces.empty())
      router_side = isp.iface(router.ifaces.front()).addr;
    add_edge(static_cast<NodeId>(n), t, kPeeringDelayMs + 0.01,
             kPeeringDelayMs, nodes_[t].addr, router_side);
  }

  // Attach external hosts to their nearest transit router.
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].kind != NodeKind::kHost) continue;
    const NodeId t = nearest_transit(nodes_[n].location);
    const double delay =
        net::fiber_delay_ms(nodes_[n].location, nodes_[t].location) +
        kProcessingDelayMs;
    add_edge(static_cast<NodeId>(n), t, delay + 0.01, delay, nodes_[t].addr,
             nodes_[n].addr);
  }

  std::sort(pools_.begin(), pools_.end(),
            [](const auto& a, const auto& b) {
              return a.first.network() < b.first.network();
            });
  finalized_ = true;
}

const topo::Isp& World::isp(int index) const {
  RAN_EXPECTS(index >= 0 && index < isp_count());
  return isps_[static_cast<std::size_t>(index)];
}

NodeId World::node_of_last_mile(int isp_index, topo::LastMileId lm) const {
  const auto it = lastmile_node_.find(
      (static_cast<std::uint64_t>(isp_index) << 32) | lm);
  RAN_EXPECTS(it != lastmile_node_.end());
  return it->second;
}

ProbeSource World::vantage_behind(int isp_index, topo::LastMileId lm) const {
  ProbeSource src;
  src.node = node_of_last_mile(isp_index, lm);
  src.access_delay_ms =
      isp(isp_index).last_mile(lm).access_delay_ms;
  return src;
}

AddrKind World::classify(net::IPv4Address addr) const {
  return resolve(addr).kind;
}

World::Resolution World::resolve(net::IPv4Address addr) const {
  if (const auto it = addr_index_.find(addr); it != addr_index_.end())
    return it->second;
  // Customer pools (binary search on sorted ranges).
  const auto it = std::upper_bound(
      pools_.begin(), pools_.end(), addr,
      [](net::IPv4Address a, const auto& pool) {
        return a < pool.first.network();
      });
  if (it != pools_.begin()) {
    const auto& [pool, node] = *std::prev(it);
    if (pool.contains(addr))
      return Resolution{AddrKind::kCustomer, node, true};
  }
  // Routable vicinity: another address in an occupied /24.
  if (const auto s24 = slash24_index_.find(addr.value() >> 8);
      s24 != slash24_index_.end())
    return Resolution{AddrKind::kUnknown, s24->second, false};
  return Resolution{AddrKind::kUnknown, kInvalidNode, false};
}

std::shared_ptr<const World::RouteTable> World::routes_from(
    NodeId src) const {
  RAN_EXPECTS(finalized_);
  // Copy the published map pointer once; the lookup itself runs with no
  // lock held (the map behind the pointer is immutable once published).
  std::shared_ptr<const RouteCacheMap> cache;
  {
    std::shared_lock lock{route_mutex_};
    cache = route_cache_;
  }
  if (cache != nullptr) {
    if (const auto it = cache->find(src); it != cache->end()) {
      if (metrics_.route_hits != nullptr) metrics_.route_hits->inc();
      return it->second;
    }
  }
  if (metrics_.route_misses != nullptr) metrics_.route_misses->inc();

  // Compute outside the lock: concurrent misses on the same source do
  // redundant work at worst; the first insert wins below.
  auto table = std::make_shared<RouteTable>();
  const auto n = nodes_.size();
  table->dist.assign(n, std::numeric_limits<double>::infinity());
  table->preds.resize(n);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
  table->dist[src] = 0.0;
  queue.emplace(0.0, src);
  constexpr double kTieEps = 1e-9;
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > table->dist[u] + kTieEps) continue;
    for (const auto& e : adj_[u]) {
      const double nd = d + e.weight;
      if (nd + kTieEps < table->dist[e.to]) {
        table->dist[e.to] = nd;
        table->preds[e.to].clear();
        table->preds[e.to].push_back(
            PredEdge{u, e.ingress_addr, static_cast<float>(e.delay_ms)});
        queue.emplace(nd, e.to);
      } else if (std::abs(nd - table->dist[e.to]) <= kTieEps) {
        table->preds[e.to].push_back(
            PredEdge{u, e.ingress_addr, static_cast<float>(e.delay_ms)});
      }
    }
  }

  std::unique_lock lock{route_mutex_};
  // Re-check: a racing miss on the same source may have published first;
  // its table wins so every caller shares one instance. These lost races
  // are redundant Dijkstra runs — exactly the wasted work the insert-race
  // counter makes visible.
  if (route_cache_ != nullptr) {
    if (const auto it = route_cache_->find(src); it != route_cache_->end()) {
      if (metrics_.route_insert_races != nullptr)
        metrics_.route_insert_races->inc();
      return it->second;
    }
  }
  auto next = route_cache_ == nullptr
                  ? std::make_shared<RouteCacheMap>()
                  : std::make_shared<RouteCacheMap>(*route_cache_);
  if (next->size() > 96) {
    if (metrics_.route_evictions != nullptr)
      metrics_.route_evictions->inc(next->size());
    next->clear();
  }
  auto inserted = next->emplace(src, std::move(table)).first->second;
  route_cache_ = std::move(next);
  return inserted;
}

void World::set_metrics(obs::Registry* registry) {
  if (registry == nullptr) {
    metrics_ = {};
    return;
  }
  metrics_.traces = &registry->counter("sim.world.traces");
  metrics_.pings = &registry->counter("sim.world.pings");
  metrics_.ping_ttls = &registry->counter("sim.world.ping_ttls");
  metrics_.mercator_probes = &registry->counter("sim.world.mercator_probes");
  metrics_.ipid_samples = &registry->counter("sim.world.ipid_samples");
  metrics_.route_hits = &registry->volatile_counter("sim.route_cache.hits");
  metrics_.route_misses =
      &registry->volatile_counter("sim.route_cache.misses");
  metrics_.route_evictions =
      &registry->volatile_counter("sim.route_cache.evictions");
  metrics_.route_insert_races =
      &registry->volatile_counter("sim.route_cache.insert_races");
}

void World::warm_routes(std::span<const ProbeSource> sources) const {
  for (const auto& src : sources) (void)routes_from(src.node);
}

std::vector<World::PathStep> World::path_to(const ProbeSource& src,
                                            const Resolution& res,
                                            net::IPv4Address dst,
                                            std::uint64_t flow_id) const {
  RAN_EXPECTS(src.node < nodes_.size());
  if (res.anchor == kInvalidNode) return {};
  const auto table = routes_from(src.node);
  if (!std::isfinite(table->dist[res.anchor])) return {};
  const std::uint64_t flow =
      flow_id != 0 ? flow_id : mix64(src.node * 0x1000003ULL ^ dst.value());
  std::vector<PathStep> rev;
  NodeId cur = res.anchor;
  while (cur != src.node) {
    const auto& preds = table->preds[cur];
    RAN_ENSURES(!preds.empty());
    const auto& choice =
        preds[mix64(flow ^ (cur * 0x9e37ULL)) % preds.size()];
    rev.push_back(PathStep{cur, choice.ingress, choice.delay});
    cur = choice.from;
    RAN_ENSURES(rev.size() <= nodes_.size());
  }
  rev.push_back(PathStep{src.node, {}, 0.0f});
  std::reverse(rev.begin(), rev.end());
  return rev;
}

bool World::policy_allows(const ProbeSource& src, const Resolution& res) const {
  if (res.anchor == kInvalidNode) return false;
  const auto& dst_node = nodes_[res.anchor];
  if (dst_node.isp < 0) return true;
  const auto& dst_isp = isps_[static_cast<std::size_t>(dst_node.isp)];
  if (dst_isp.kind() != topo::IspKind::kTelco) return true;

  // Telco filtering (§6.1 / App C): regional infrastructure and lspgw
  // addresses only answer probes from inside the same or a nearby region;
  // customers remain probeable from anywhere (§6.3). Backbone routers are
  // open.
  const bool dst_is_access =
      dst_node.kind == NodeKind::kLastMile ||
      (dst_node.kind == NodeKind::kRouter &&
       dst_isp.router(dst_node.router).role != topo::RouterRole::kBackbone);
  if (!dst_is_access) return true;
  if (res.kind == AddrKind::kCustomer) return true;

  const auto& src_node = nodes_[src.node];
  if (src_node.isp != dst_node.isp ||
      src_node.kind != NodeKind::kLastMile)
    return false;
  // Same or nearby region: compare the regions' anchor locations.
  const auto& src_co =
      dst_isp.co(dst_isp.last_mile(src_node.last_mile).edge_co);
  const double km =
      net::haversine_km(src_co.location, dst_node.location);
  return km < 600.0;
}

TraceResult World::trace(const ProbeSource& src, net::IPv4Address dst,
                         std::uint64_t flow_id, std::uint64_t attempt) const {
  if (metrics_.traces != nullptr) metrics_.traces->inc();
  TraceResult out;
  out.dst = dst;
  // The noise generator is seeded from the resolved flow so that explicit
  // and derived flow identifiers naming the same flow share one stream.
  const std::uint64_t flow =
      flow_id != 0 ? flow_id : mix64(src.node * 0x1000003ULL ^ dst.value());
  net::ProbeRng rng{probe_seed(src.node, dst, flow, attempt)};
  const auto res = resolve(dst);
  auto path = path_to(src, res, dst, flow_id);
  if (path.empty()) return out;
  // Probes to unallocated addresses die at the last real forwarding hop,
  // before the representative anchor node.
  if (!res.exact) path.pop_back();
  if (path.size() <= 1) return out;

  bool blocked = false;
  if (!policy_allows(src, res)) {
    // Truncate at the destination ISP's regional boundary: the backbone
    // still answers; the access network goes dark.
    const int dst_isp = nodes_[res.anchor].isp;
    std::size_t cut = path.size();
    for (std::size_t i = 1; i < path.size(); ++i) {
      const auto& node = nodes_[path[i].node];
      if (node.isp != dst_isp) continue;
      const bool access =
          node.kind == NodeKind::kLastMile ||
          (node.kind == NodeKind::kRouter &&
           isps_[static_cast<std::size_t>(node.isp)]
                   .router(node.router)
                   .role != topo::RouterRole::kBackbone);
      if (access) {
        cut = i;
        break;
      }
    }
    path.resize(cut);
    blocked = true;
  }

  // Does the destination qualify as infrastructure (reveals MPLS interiors)?
  const bool dst_infra = res.kind == AddrKind::kRouterIface;

  double cum_delay = src.access_delay_ms;
  int ttl = 0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    cum_delay += path[i].delay;
    const auto& node = nodes_[path[i].node];
    const bool terminal = !blocked && i + 1 == path.size() && res.exact;

    if (node.kind == NodeKind::kRouter) {
      const auto& isp = isps_[static_cast<std::size_t>(node.isp)];
      const auto& router = isp.router(node.router);
      if (router.mpls_interior && !dst_infra && !terminal) continue;
      ++ttl;
      Hop hop;
      hop.ttl = ttl;
      const bool respond = router.icmp_responsive &&
                           !rng.chance(noise_.unresponsive_hop_prob);
      if (respond) {
        net::IPv4Address addr = terminal ? dst : path[i].ingress;
        if (!terminal && !dst_infra && router.replies_from_loopback &&
            router.loopback_iface != topo::kInvalidId)
          addr = isp.iface(router.loopback_iface).addr;
        if (addr.is_unspecified() && !router.ifaces.empty())
          addr = isp.iface(router.ifaces.front()).addr;
        if (!terminal && rng.chance(noise_.anomaly_prob) &&
            !isp.ifaces().empty()) {
          addr = isp.ifaces()[static_cast<std::size_t>(rng.uniform(
                                  0, static_cast<std::int64_t>(
                                         isp.ifaces().size()) -
                                         1))]
                     .addr;
        }
        hop.addr = addr;
        hop.rtt_ms = 2 * cum_delay + kProcessingDelayMs +
                     rng.uniform_real(0.0, noise_.rtt_jitter_ms);
        hop.reply_ttl = 255 - ttl;
      }
      out.hops.push_back(hop);
      if (terminal) out.reached = true;
      continue;
    }

    ++ttl;
    Hop hop;
    hop.ttl = ttl;
    if (!rng.chance(noise_.unresponsive_hop_prob)) {
      hop.addr = node.addr;  // equals dst for gateway/host destinations
      hop.rtt_ms = 2 * cum_delay + kProcessingDelayMs +
                   rng.uniform_real(0.0, noise_.rtt_jitter_ms);
      hop.reply_ttl = (node.kind == NodeKind::kLastMile ? 64 : 255) - ttl;
    }
    out.hops.push_back(hop);
    if (terminal && res.kind != AddrKind::kCustomer) out.reached = true;

    // Customer endpoint: one more (virtual) hop behind the last mile.
    if (terminal && res.kind == AddrKind::kCustomer) {
      const auto& lm = isps_[static_cast<std::size_t>(node.isp)].last_mile(
          node.last_mile);
      cum_delay += lm.access_delay_ms;
      ++ttl;
      Hop customer;
      customer.ttl = ttl;
      if (hash_chance(dst.value(), seed_, noise_.customer_echo_prob)) {
        customer.addr = dst;
        customer.rtt_ms = 2 * cum_delay + kProcessingDelayMs +
                          rng.uniform_real(0.0, noise_.rtt_jitter_ms);
        customer.reply_ttl = 64 - ttl;
        out.reached = true;
      }
      out.hops.push_back(customer);
    }
  }
  if (blocked || !res.exact) {
    // A short run of silent probes past the truncation point.
    for (int i = 0; i < 3; ++i) {
      Hop hop;
      hop.ttl = ++ttl;
      out.hops.push_back(hop);
    }
  }
  return out;
}

PingResult World::ping(const ProbeSource& src, net::IPv4Address dst,
                       std::uint64_t attempt) const {
  if (metrics_.pings != nullptr) metrics_.pings->inc();
  PingResult out;
  net::ProbeRng rng{probe_seed(src.node, dst, 0x50494e47ULL, attempt)};
  const auto res = resolve(dst);
  if (!res.exact || res.anchor == kInvalidNode) return out;
  if (!policy_allows(src, res)) return out;
  if (res.kind == AddrKind::kCustomer &&
      !hash_chance(dst.value(), seed_, noise_.customer_echo_prob))
    return out;
  const auto path = path_to(src, res, dst, 0);
  if (path.empty()) return out;
  double delay = src.access_delay_ms;
  for (std::size_t i = 1; i < path.size(); ++i) delay += path[i].delay;
  if (res.kind == AddrKind::kCustomer)
    delay += isps_[static_cast<std::size_t>(nodes_[res.anchor].isp)]
                 .last_mile(nodes_[res.anchor].last_mile)
                 .access_delay_ms;
  out.responded = true;
  out.responder = dst;
  out.rtt_ms = 2 * delay + kProcessingDelayMs +
               rng.uniform_real(0.0, noise_.rtt_jitter_ms);
  return out;
}

PingResult World::ping_ttl(const ProbeSource& src, net::IPv4Address dst,
                           int ttl, std::uint64_t attempt) const {
  // Counts the TTL-limited echo itself; the trace() it rides on adds to
  // the trace counter as well.
  if (metrics_.ping_ttls != nullptr) metrics_.ping_ttls->inc();
  PingResult out;
  const auto res = resolve(dst);
  if (res.anchor == kInvalidNode) return out;
  const auto full = trace(src, dst, 0, attempt);
  for (const auto& hop : full.hops) {
    if (hop.ttl != ttl) continue;
    out.responded = hop.responded();
    out.responder = hop.addr;
    out.rtt_ms = hop.rtt_ms;
    return out;
  }
  return out;
}

std::optional<double> World::min_rtt(const ProbeSource& src,
                                     net::IPv4Address dst, int count) const {
  RAN_EXPECTS(count > 0);
  std::optional<double> best;
  for (int i = 0; i < count; ++i) {
    const auto result = ping(src, dst, static_cast<std::uint64_t>(i));
    if (!result.responded) continue;
    if (!best || result.rtt_ms < *best) best = result.rtt_ms;
  }
  return best;
}

std::optional<net::IPv4Address> World::mercator_probe(
    net::IPv4Address addr) const {
  if (metrics_.mercator_probes != nullptr) metrics_.mercator_probes->inc();
  const auto res = resolve(addr);
  if (res.kind != AddrKind::kRouterIface) return std::nullopt;
  const auto& node = nodes_[res.anchor];
  const auto& isp = isps_[static_cast<std::size_t>(node.isp)];
  if (const auto iface = isp.iface_by_addr(addr);
      iface && isp.iface(*iface).probe_filtered)
    return std::nullopt;
  const auto& router = isp.router(node.router);
  // ~70 % of routers reply to unreachable-port probes with their primary
  // (first) interface address; the rest use the probed address. Router
  // stacks that randomize IP-IDs (frustrating MIDAR) almost always honor
  // the common-source-address behaviour, so the two alias techniques
  // rarely fail together.
  const bool random_ipid =
      hash_chance(node.router * 0x77ULL ^ static_cast<std::uint64_t>(node.isp),
                  seed_ ^ 0x1d1dULL, 0.15);
  const double honor_prob = random_ipid ? 1.0 : 0.7;
  if (hash_chance(node.router * 0x51ULL ^ static_cast<std::uint64_t>(node.isp),
                  seed_ ^ 0x4d45524341ULL, honor_prob))
    return isp.iface(router.ifaces.front()).addr;
  return addr;
}

std::optional<std::uint16_t> World::ipid_sample(net::IPv4Address addr,
                                                double t_ms) const {
  if (metrics_.ipid_samples != nullptr) metrics_.ipid_samples->inc();
  const auto res = resolve(addr);
  if (res.kind == AddrKind::kRouterIface) {
    const auto& node = nodes_[res.anchor];
    const auto& isp = isps_[static_cast<std::size_t>(node.isp)];
    if (const auto iface = isp.iface_by_addr(addr);
        iface && isp.iface(*iface).probe_filtered)
      return std::nullopt;
    const auto& router = isp.router(node.router);
    // ~15 % of routers use unpredictable IP-IDs (MIDAR cannot pair them).
    // Per-sample draws hash (addr, t_ms, world seed) so a sample is a pure
    // function of what was probed and when — no shared generator state.
    net::ProbeRng rng{mix64(seed_ ^ 0x495049440aULL ^
                            mix64(addr.value()) ^
                            std::bit_cast<std::uint64_t>(t_ms))};
    if (hash_chance(node.router * 0x77ULL ^
                        static_cast<std::uint64_t>(node.isp),
                    seed_ ^ 0x1d1dULL, 0.15))
      return static_cast<std::uint16_t>(rng.uniform(0, 0xffff));
    const double value = router.ipid_seed + router.ipid_rate * t_ms +
                         rng.uniform_real(0.0, 2.0);
    return static_cast<std::uint16_t>(
        static_cast<std::uint64_t>(value) & 0xffff);
  }
  if (res.kind == AddrKind::kLastMileGw) {
    // Last-mile devices keep their own counters (never alias with routers).
    const double value = static_cast<double>(mix64(addr.value()) & 0xffff) +
                         1.5 * t_ms;
    return static_cast<std::uint16_t>(
        static_cast<std::uint64_t>(value) & 0xffff);
  }
  return std::nullopt;
}

}  // namespace ran::sim
