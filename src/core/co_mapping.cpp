#include "co_mapping.hpp"

#include <algorithm>

#include "netbase/contracts.hpp"
#include "netbase/strings.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"

namespace ran::infer {

void CoMappingStats::publish(obs::Registry& registry,
                             const std::string& prefix) const {
  registry.counter(prefix + ".initial").inc(initial);
  registry.counter(prefix + ".alias_changed").inc(alias_changed);
  registry.counter(prefix + ".alias_added").inc(alias_added);
  registry.counter(prefix + ".alias_removed").inc(alias_removed);
  registry.counter(prefix + ".after_alias").inc(after_alias);
  registry.counter(prefix + ".p2p_changed").inc(p2p_changed);
  registry.counter(prefix + ".p2p_added").inc(p2p_added);
  registry.counter(prefix + ".final_count").inc(final_count);
}

void CoMap::set(net::IPv4Address addr, CoAnnotation annotation) {
  RAN_EXPECTS(!annotation.co_key.empty());
  map_[addr] = std::move(annotation);
}

const CoAnnotation* CoMap::get(net::IPv4Address addr) const {
  const auto it = map_.find(addr);
  return it == map_.end() ? nullptr : &it->second;
}

std::vector<std::pair<net::IPv4Address, net::IPv4Address>> consecutive_pairs(
    const TraceCorpus& corpus, bool transit_only) {
  std::vector<std::pair<net::IPv4Address, net::IPv4Address>> out;
  for (const auto& trace : corpus.traces) {
    for (std::size_t i = 0; i + 1 < trace.hops.size(); ++i) {
      const auto& a = trace.hops[i];
      const auto& b = trace.hops[i + 1];
      if (!a.responded() || !b.responded() || a.addr == b.addr) continue;
      if (transit_only && trace.reached && b.addr == trace.dst) continue;
      out.emplace_back(a.addr, b.addr);
    }
  }
  return out;
}

namespace {

/// Extracts a CoAnnotation from rDNS; empty co_key when nothing matched.
CoAnnotation annotate(net::IPv4Address addr, const RdnsSources& rdns) {
  CoAnnotation out;
  const auto name = rdns.lookup(addr);
  if (!name) return out;
  const auto info = dns::extract_hostname(*name);
  if (info.kind != dns::HostKind::kRegionalRouter &&
      info.kind != dns::HostKind::kBackboneRouter)
    return out;
  out.co_key = info.co_key;
  out.region = info.region;
  out.backbone = info.kind == dns::HostKind::kBackboneRouter;
  out.from_rdns = true;
  out.city = info.city;
  out.building = info.building;
  return out;
}

/// The key with the highest count; empty on a tie or no counts.
std::string majority_key(const std::map<std::string, int>& counts) {
  std::string best;
  int best_count = 0;
  bool tie = false;
  for (const auto& [key, count] : counts) {
    if (count > best_count) {
      best = key;
      best_count = count;
      tie = false;
    } else if (count == best_count) {
      tie = true;
    }
  }
  return tie ? std::string{} : best;
}

}  // namespace

CoMappingResult build_co_mapping(
    std::span<const net::IPv4Address> addrs,
    const std::vector<WeightedAdjacency>& adjacencies, int p2p_len,
    const RdnsSources& rdns, const RouterClusters& clusters,
    obs::ProvenanceLog* provenance, obs::Log* log) {
  CoMappingResult result;
  auto& map = result.map;
  auto& stats = result.stats;

  // --- pass 1: rDNS over observed addresses and their subnet mates -----
  std::vector<net::IPv4Address> universe;
  {
    std::unordered_map<net::IPv4Address, bool> seen;
    auto consider = [&](net::IPv4Address addr) {
      if (addr.is_unspecified() || !seen.emplace(addr, true).second) return;
      universe.push_back(addr);
    };
    for (const auto addr : addrs) {
      consider(addr);
      if (const auto mate = net::p2p_mate(addr, p2p_len)) consider(*mate);
    }
  }
  for (const auto addr : universe) {
    auto annotation = annotate(addr, rdns);
    if (annotation.co_key.empty()) continue;
    if (provenance != nullptr)
      provenance->note_mapping(annotation.co_key, "b1.rdns");
    map.set(addr, std::move(annotation));
  }
  stats.initial = map.size();

  // --- pass 2: majority vote within each inferred router ---------------
  for (const auto& cluster : clusters.clusters()) {
    if (cluster.size() < 2) continue;
    std::vector<const CoAnnotation*> votes;
    for (const auto addr : cluster)
      if (const auto* a = map.get(addr)) votes.push_back(a);
    if (votes.empty()) continue;
    std::map<std::string, int> counts;
    for (const auto* vote : votes) ++counts[vote->co_key];
    const auto winner = majority_key(counts);
    if (winner.empty()) {
      // Tie: remove every mapping in the group (§5.1: "to avoid
      // inconclusive and potentially inaccurate mappings").
      std::size_t removed_here = 0;
      for (const auto addr : cluster) {
        if (const auto* current = map.get(addr); current != nullptr) {
          if (provenance != nullptr)
            provenance->note_mapping(current->co_key, "b1.alias_removed");
          map.erase(addr);
          ++stats.alias_removed;
          ++removed_here;
        }
      }
      if (log != nullptr && removed_here > 0)
        log->warn("b1.alias_tie",
                  net::format("alias majority tie: dropped %zu CO "
                              "mapping(s) in a %zu-address router cluster",
                              removed_here, cluster.size()));
      continue;
    }
    const CoAnnotation* exemplar = nullptr;
    for (const auto* vote : votes)
      if (vote->co_key == winner) exemplar = vote;
    RAN_ENSURES(exemplar != nullptr);
    CoAnnotation canonical = *exemplar;
    canonical.from_rdns = false;  // supplied by the group, not own rDNS
    for (const auto addr : cluster) {
      const auto* current = map.get(addr);
      if (current == nullptr) {
        map.set(addr, canonical);
        ++stats.alias_added;
        if (provenance != nullptr)
          provenance->note_mapping(winner, "b1.alias_added");
      } else if (current->co_key != winner) {
        map.set(addr, canonical);
        ++stats.alias_changed;
        if (provenance != nullptr)
          provenance->note_mapping(winner, "b1.alias_changed");
      }
    }
  }
  stats.after_alias = map.size();

  // --- pass 3: point-to-point subnet refinement (Fig 19) ---------------
  // For hop x followed by y, the mate y' of y's subnet most likely sits on
  // the same router as x; use the mates' mappings as votes for x. One
  // mate lookup and one vote per *unique* adjacency, weighted by its
  // count.
  struct WeightedVote {
    const CoAnnotation* annotation;
    int count;
    std::uint32_t last_seq;
  };
  std::map<net::IPv4Address, std::vector<WeightedVote>> mate_votes;
  for (const auto& adj : adjacencies) {
    const auto mate = net::p2p_mate(adj.to, p2p_len);
    if (!mate) continue;
    if (const auto* annotation = map.get(*mate))
      mate_votes[adj.from].push_back({annotation, adj.count, adj.last_seq});
  }
  for (auto& [x, votes] : mate_votes) {
    std::map<std::string, int> counts;
    for (const auto& vote : votes)
      counts[vote.annotation->co_key] += vote.count;
    const auto winner = majority_key(counts);
    if (winner.empty()) continue;
    // The exemplar is the winning vote seen last in corpus order (the
    // highest last_seq).
    const CoAnnotation* exemplar = nullptr;
    std::uint32_t exemplar_seq = 0;
    for (const auto& vote : votes) {
      if (vote.annotation->co_key == winner &&
          vote.last_seq >= exemplar_seq) {
        exemplar = vote.annotation;
        exemplar_seq = vote.last_seq;
      }
    }
    const auto* current = map.get(x);
    CoAnnotation inferred = *exemplar;
    inferred.from_rdns = false;
    if (current == nullptr) {
      map.set(x, inferred);
      ++stats.p2p_added;
      if (provenance != nullptr)
        provenance->note_mapping(winner, "b1.p2p_added");
    } else if (current->co_key != winner) {
      // Require a strict majority of mate votes to overturn an existing
      // rDNS-derived mapping (Fig 19: two subnets vs one name).
      const int agreeing = counts[winner];
      int total = 0;
      for (const auto& vote : votes) total += vote.count;
      if (agreeing * 2 > total && agreeing >= 2) {
        map.set(x, inferred);
        ++stats.p2p_changed;
        if (provenance != nullptr)
          provenance->note_mapping(winner, "b1.p2p_changed");
      }
    }
  }
  stats.final_count = map.size();
  if (log != nullptr && log->enabled(obs::LogLevel::kInfo))
    log->info("b1.mapping",
              net::format("mapped %zu of %zu candidate addresses to COs "
                          "(%zu left unmapped)",
                          map.size(), universe.size(),
                          universe.size() - map.size()));
  return result;
}

}  // namespace ran::infer
