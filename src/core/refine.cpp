#include "refine.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "corpus_index.hpp"
#include "csr_graph.hpp"
#include "netbase/stats.hpp"
#include "netbase/strings.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "probe/campaign.hpp"

namespace ran::infer {

void RefineStats::publish(obs::Registry& registry,
                          const std::string& prefix) const {
  registry.counter(prefix + ".edge_edges_removed").inc(edge_edges_removed);
  registry.counter(prefix + ".ring_edges_added").inc(ring_edges_added);
  registry.counter(prefix + ".small_aggs_kept").inc(small_aggs_kept);
}

void identify_agg_cos(CsrGraph& graph) {
  graph.clear_agg();
  const auto n = static_cast<std::uint32_t>(graph.node_count());
  if (n == 0) return;
  // Node ids follow sorted CO-key order: the mean and stddev accumulate
  // in key order, and the fallback below breaks ties toward the lowest
  // key.
  std::vector<double> degrees;
  degrees.reserve(n);
  std::vector<int> degree(n);
  for (std::uint32_t u = 0; u < n; ++u) {
    degree[u] = graph.out_degree(u);
    degrees.push_back(static_cast<double>(degree[u]));
  }
  const double threshold = net::mean(degrees) + net::stddev(degrees);
  bool any = false;
  for (std::uint32_t u = 0; u < n; ++u) {
    if (static_cast<double>(degree[u]) > threshold && degree[u] >= 2) {
      graph.set_agg(u, true);
      any = true;
    }
  }
  // Degenerate case: a tiny region where one CO clearly feeds the rest.
  if (!any) {
    std::uint32_t best = CsrGraph::kInvalid;
    int best_degree = 0;
    for (std::uint32_t u = 0; u < n; ++u) {
      if (degree[u] > best_degree) {
        best = u;
        best_degree = degree[u];
      }
    }
    if (best_degree >= 1) graph.set_agg(best, true);
  }
}

void remove_edge_to_edge(CsrGraph& graph, RefineStats& stats,
                         obs::ProvenanceLog* provenance) {
  const auto n = static_cast<std::uint32_t>(graph.node_count());
  // An EdgeCO keeps its outgoing edges only when it aggregates several COs
  // that no AggCO serves (a genuine small aggregator, B.3); every other
  // EdgeCO->EdgeCO edge is presumed stale rDNS (§5.2.3). One reverse-row
  // sweep precomputes agg_served[v]: "some AggCO has a live edge to v".
  std::vector<std::uint8_t> agg_served(n, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    for (auto i = graph.rev_begin(v); i < graph.rev_end(v); ++i) {
      if (graph.edge_dead(graph.rev_edge(i))) continue;
      if (graph.is_agg(graph.rev_from(i))) {
        agg_served[v] = 1;
        break;
      }
    }
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> to_remove;
  for (std::uint32_t u = 0; u < n; ++u) {
    if (graph.is_agg(u)) continue;
    int orphans = 0;
    for (auto e = graph.fwd_begin(u); e < graph.fwd_end(u); ++e) {
      if (graph.edge_dead(e)) continue;
      const auto v = graph.edge_to(e);
      if (graph.is_agg(v)) continue;
      if (agg_served[v] == 0) ++orphans;
    }
    if (orphans >= 2) {
      ++stats.small_aggs_kept;
      if (provenance != nullptr) {
        // The stat's unit is the source CO, so the rule total counts it
        // once; the per-edge chain still gains an (uncounted) entry.
        provenance->count_rule("refine.small_agg", true);
        for (auto e = graph.fwd_begin(u); e < graph.fwd_end(u); ++e) {
          if (graph.edge_dead(e)) continue;
          const auto v = graph.edge_to(e);
          if (graph.is_agg(v)) continue;
          provenance->record_uncounted(
              std::string{graph.key(u)}, std::string{graph.key(v)},
              "refine.small_agg", true,
              net::format("source aggregates %d CO(s) no AggCO serves "
                          "(B.3 small-AggCO exception)",
                          orphans));
        }
      }
      continue;
    }
    for (auto e = graph.fwd_begin(u); e < graph.fwd_end(u); ++e) {
      if (graph.edge_dead(e)) continue;
      if (!graph.is_agg(graph.edge_to(e))) to_remove.emplace_back(u, e);
    }
  }
  for (const auto& [u, e] : to_remove) {
    graph.remove_edge(e);
    ++stats.edge_edges_removed;
    if (provenance != nullptr)
      provenance->record(std::string{graph.key(u)},
                         std::string{graph.key(graph.edge_to(e))},
                         "refine.edge_edge", false,
                         "EdgeCO->EdgeCO with no orphan downstream: "
                         "presumed stale rDNS (s5.2.3)");
  }
}

namespace {

/// Size of the intersection of two ascending id lists.
std::size_t overlap_size(const std::vector<std::uint32_t>& a,
                         const std::vector<std::uint32_t>& b) {
  std::size_t n = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) ++ia;
    else if (*ib < *ia) ++ib;
    else {
      ++n;
      ++ia;
      ++ib;
    }
  }
  return n;
}

}  // namespace

void complete_ring_pairs(CsrGraph& graph, RefineStats& stats,
                         obs::ProvenanceLog* provenance) {
  const auto n = static_cast<std::uint32_t>(graph.node_count());
  std::vector<std::uint32_t> aggs;
  for (std::uint32_t u = 0; u < n; ++u)
    if (graph.is_agg(u)) aggs.push_back(u);
  // Live non-agg successors per AggCO; forward rows ascend, so these are
  // sorted by id, which is sorted CO-key order.
  std::vector<std::vector<std::uint32_t>> children(aggs.size());
  for (std::size_t i = 0; i < aggs.size(); ++i) {
    for (auto e = graph.fwd_begin(aggs[i]); e < graph.fwd_end(aggs[i]); ++e) {
      if (graph.edge_dead(e)) continue;
      if (!graph.is_agg(graph.edge_to(e)))
        children[i].push_back(graph.edge_to(e));
    }
  }

  // Relation rule (B.3): AGGx ~ AGGy when >= 3/4 of AGGx's EdgeCOs overlap
  // AGGy's and the overlap covers >= 1/2 of AGGy's; a relaxed 3/4 rule
  // applies when neither CO found any partner.
  std::vector<std::set<std::size_t>> related(aggs.size());
  for (std::size_t i = 0; i < aggs.size(); ++i) {
    for (std::size_t j = i + 1; j < aggs.size(); ++j) {
      const auto& x = children[i];
      const auto& y = children[j];
      if (x.empty() || y.empty()) continue;
      const auto common = overlap_size(x, y);
      const bool forward = 4 * common >= 3 * x.size() &&
                           2 * common >= y.size();
      const bool backward = 4 * common >= 3 * y.size() &&
                            2 * common >= x.size();
      if (forward || backward) {
        related[i].insert(j);
        related[j].insert(i);
      }
    }
  }
  for (std::size_t i = 0; i < aggs.size(); ++i) {
    for (std::size_t j = i + 1; j < aggs.size(); ++j) {
      if (!related[i].empty() || !related[j].empty()) continue;
      const auto& x = children[i];
      const auto& y = children[j];
      if (x.empty() || y.empty()) continue;
      const auto common = overlap_size(x, y);
      if (4 * common >= 3 * std::min(x.size(), y.size())) {
        related[i].insert(j);
        related[j].insert(i);
      }
    }
  }

  // Completion: all related AggCOs serve the union of their EdgeCOs.
  for (std::size_t i = 0; i < aggs.size(); ++i) {
    std::set<std::uint32_t> target{children[i].begin(), children[i].end()};
    for (const auto j : related[i])
      target.insert(children[j].begin(), children[j].end());
    for (const auto edge : target) {
      if (!graph.has_edge(aggs[i], edge)) {
        graph.add_edge(aggs[i], edge, 0);
        ++stats.ring_edges_added;
        if (provenance != nullptr) {
          std::string detail =
              "dual-star completion (s5.2.4): ring partner(s)";
          for (const auto j : related[i]) {
            detail += ' ';
            detail += graph.key(aggs[j]);
          }
          detail += " already serve this EdgeCO";
          provenance->record(std::string{graph.key(aggs[i])},
                             std::string{graph.key(edge)}, "refine.ring",
                             true, std::move(detail));
        }
      }
    }
  }
}

namespace {

/// Candidate entries: (co_i, r1) -> (co_j, r2) -> (co_k, r2) triplets.
struct EntryCandidate {
  std::string from_region;  ///< empty for backbone COs
  /// Directly-adjacent region COs with observation counts; anomalous
  /// single-trace adjacencies must not fabricate entries (§5.2.1/5.2.5).
  std::map<std::string, int> adjacent_counts;
  /// All region COs observed downstream of the entry.
  std::set<std::string> downstream;
  /// Corpus-order sequence number of the latest triplet backing
  /// from_region: the latest occurrence decides (last writer wins).
  std::uint32_t last_seq = 0;

  [[nodiscard]] std::set<std::string> adjacent() const {
    std::set<std::string> out;
    for (const auto& [co, count] : adjacent_counts)
      if (count >= 2) out.insert(co);
    return out;
  }
};

}  // namespace

void infer_entry_points(const CorpusIndex& index, const CoMap& co_map,
                        std::map<std::string, RegionalGraph>& regions,
                        obs::ProvenanceLog* provenance) {
  // One pass over the unique triplets, sorted by (a, b, c): counts weight
  // the adjacency votes (the sums equal per-occurrence tallies) and the
  // triplet with the highest last_seq sets from_region, so the latest
  // occurrence in corpus order wins.
  std::map<std::pair<std::string, std::string>, EntryCandidate> candidates;
  for (const auto& triplet : index.triplets()) {
    const auto* ci = co_map.get(triplet.a);
    if (ci == nullptr) continue;
    const auto* cj = co_map.get(triplet.b);
    if (cj == nullptr) continue;
    const auto* ck = co_map.get(triplet.c);
    if (ck == nullptr) continue;
    if (cj->backbone || ck->backbone) continue;
    if (cj->region != ck->region || cj->co_key == ck->co_key) continue;
    const bool backbone_entry = ci->backbone;
    const bool foreign_entry = !ci->backbone && ci->region != cj->region;
    if (!backbone_entry && !foreign_entry) continue;
    auto& candidate = candidates[{ci->co_key, cj->region}];
    if (triplet.last_seq > candidate.last_seq) {
      candidate.from_region =
          backbone_entry ? std::string{} : ci->region;
      candidate.last_seq = triplet.last_seq;
    }
    candidate.adjacent_counts[cj->co_key] +=
        static_cast<int>(triplet.count);
    candidate.downstream.insert(cj->co_key);
    candidate.downstream.insert(ck->co_key);
  }
  for (const auto& [key, candidate] : candidates) {
    const auto& [entry_co, region_name] = key;
    const char* rule =
        candidate.from_region.empty() ? "entry.backbone" : "entry.region";
    // Corroboration (§5.2.5): a repeatedly-observed direct adjacency that
    // leads on to at least two distinct COs of the region.
    const auto reached = candidate.adjacent();
    if (reached.empty() || candidate.downstream.size() < 2) {
      if (provenance != nullptr)
        provenance->record(
            entry_co, region_name, rule, false,
            net::format("uncorroborated: %zu repeat adjacencies, %zu "
                        "downstream CO(s) (need >= 1 and >= 2, s5.2.5)",
                        reached.size(), candidate.downstream.size()));
      continue;
    }
    const auto it = regions.find(region_name);
    if (it == regions.end()) {
      if (provenance != nullptr)
        provenance->record(entry_co, region_name, rule, false,
                          "target region has no surviving graph");
      continue;
    }
    auto& graph = it->second;
    if (provenance != nullptr) {
      provenance->count_rule(rule, true);
      for (const auto& co : reached)
        provenance->record_uncounted(
            entry_co, co, rule, true,
            net::format("corroborated entry into region %s (%zu "
                        "downstream COs)",
                        region_name.c_str(),
                        candidate.downstream.size()));
    }
    // Only keep entries that appear to feed the region's aggregation
    // heads (an entry into leaf COs is stale-rDNS noise).
    if (candidate.from_region.empty()) {
      graph.backbone_entries[entry_co] = reached;
    } else {
      graph.region_entries[entry_co] = {candidate.from_region, reached};
    }
  }
}

RefineStats refine_regions(std::map<std::string, RegionalGraph>& regions,
                           const CorpusIndex& index, const CoMap& co_map,
                           const RefineOptions& options,
                           obs::ProvenanceLog* provenance) {
  RefineStats stats;
  auto* log = options.log;
  const int threads = probe::resolve_threads(options.threads);

  std::vector<std::string> names;
  names.reserve(regions.size());
  for (const auto& [name, graph] : regions) names.push_back(name);

  // Regions are independent: each worker refines its region on a private
  // CSR graph with private stats/provenance/warning buffers, and the
  // shards merge in sorted region order — the serial emission order — so
  // counters, provenance, and log output are byte-identical at any
  // thread count.
  struct Shard {
    RefineStats stats;
    obs::ProvenanceLog provenance;
    std::vector<std::pair<const char*, std::string>> warnings;
  };
  std::vector<Shard> shards(names.size());
  probe::parallel_for(names.size(), threads, [&](std::size_t i) {
    auto& graph = regions.at(names[i]);
    auto& shard = shards[i];
    auto* shard_provenance =
        provenance != nullptr ? &shard.provenance : nullptr;
    CsrGraph csr = CsrGraph::from_regional(graph);
    identify_agg_cos(csr);
    std::size_t agg_count = 0;
    for (std::uint32_t u = 0;
         u < static_cast<std::uint32_t>(csr.node_count()); ++u)
      agg_count += csr.is_agg(u) ? 1u : 0u;
    if (log != nullptr && agg_count == 0)
      shard.warnings.emplace_back(
          "refine.no_agg",
          net::format("region %s: no AggCO identified among %zu "
                      "COs; refinement heuristics cannot apply",
                      names[i].c_str(), csr.node_count()));
    if (options.remove_edge_edges)
      remove_edge_to_edge(csr, shard.stats, shard_provenance);
    if (options.complete_rings) {
      if (log != nullptr && agg_count == 1)
        shard.warnings.emplace_back(
            "refine.ring",
            net::format("region %s: ring completion found no "
                        "second AggCO to pair with",
                        names[i].c_str()));
      complete_ring_pairs(csr, shard.stats, shard_provenance);
    }
    auto rebuilt = csr.to_regional();
    rebuilt.backbone_entries = std::move(graph.backbone_entries);
    rebuilt.region_entries = std::move(graph.region_entries);
    graph = std::move(rebuilt);
  });
  for (auto& shard : shards) {
    stats.edge_edges_removed += shard.stats.edge_edges_removed;
    stats.ring_edges_added += shard.stats.ring_edges_added;
    stats.small_aggs_kept += shard.stats.small_aggs_kept;
    for (const auto& [topic, message] : shard.warnings)
      log->warn(topic, message);
    if (provenance != nullptr) provenance->merge(shard.provenance);
  }

  infer_entry_points(index, co_map, regions, provenance);
  if (log != nullptr && log->enabled(obs::LogLevel::kInfo))
    log->info("refine.summary",
              net::format("refined %zu region(s): removed %zu "
                          "EdgeCO->EdgeCO edge(s), added %zu ring "
                          "edge(s), kept %zu small AggCO(s)",
                          regions.size(), stats.edge_edges_removed,
                          stats.ring_edges_added, stats.small_aggs_kept));
  return stats;
}

}  // namespace ran::infer
