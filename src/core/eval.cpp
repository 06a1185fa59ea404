#include "eval.hpp"

#include <algorithm>
#include <set>

#include "csr_graph.hpp"
#include "dnssim/extract.hpp"
#include "netbase/contracts.hpp"

namespace ran::infer {

std::string_view to_string(AggregationType type) {
  switch (type) {
    case AggregationType::kSingleAgg: return "single-aggco";
    case AggregationType::kTwoAggs: return "two-aggcos";
    case AggregationType::kMultiLevel: return "multi-level";
  }
  return "?";
}

AggregationType classify_region(const RegionalGraph& graph) {
  if (graph.agg_cos.size() <= 1) return AggregationType::kSingleAgg;
  // Multi-level: some AggCO feeds another AggCO.
  for (const auto& from : graph.agg_cos) {
    const auto it = graph.out.find(from);
    if (it == graph.out.end()) continue;
    for (const auto& [to, count] : it->second)
      if (graph.agg_cos.contains(to)) return AggregationType::kMultiLevel;
  }
  return graph.agg_cos.size() == 2 ? AggregationType::kTwoAggs
                                   : AggregationType::kMultiLevel;
}

RedundancyStats redundancy_of(const RegionalGraph& graph) {
  RedundancyStats stats;
  stats.agg_cos = static_cast<int>(graph.agg_cos.size());
  // One CSR build answers every CO's parent set with a reverse-row
  // lookup.
  const auto csr = CsrGraph::from_regional(graph);
  for (const auto& co : graph.edge_cos()) {
    ++stats.edge_cos;
    const auto parents = csr.parents_of(csr.id_of(co));
    if (parents.size() == 1) {
      ++stats.single_upstream;
      if (!csr.is_agg(parents.front())) ++stats.single_via_edge;
    }
  }
  return stats;
}

RegionSizeSeries region_sizes(
    const std::map<std::string, RegionalGraph>& regions) {
  RegionSizeSeries series;
  for (const auto& [name, graph] : regions) {
    series.total_cos.push_back(static_cast<double>(graph.cos.size()));
    // §5.3 counts any CO with outgoing edges as an AggCO.
    int aggs = 0;
    for (const auto& co : graph.cos) aggs += graph.out_degree(co) > 0;
    series.agg_cos.push_back(static_cast<double>(aggs));
  }
  return series;
}

std::string truth_co_key(const topo::CentralOffice& co) {
  RAN_EXPECTS(co.city != nullptr);
  return dns::co_key_for(*co.city, co.building);
}

std::optional<GraphAccuracy> compare_with_truth(const RegionalGraph& graph,
                                                const topo::Isp& isp) {
  // Find the ground-truth region carrying this rDNS tag.
  const topo::Region* region = nullptr;
  for (const auto& candidate : isp.regions())
    if (candidate.name == graph.region) region = &candidate;
  if (region == nullptr) return std::nullopt;

  // True intra-region CO adjacency set (undirected, keyed like inference).
  std::set<std::pair<std::string, std::string>> truth;
  std::map<std::string, bool> truth_is_agg;
  std::set<topo::CoId> region_cos{region->cos.begin(), region->cos.end()};
  for (const auto& link : isp.links()) {
    const auto& ra = isp.router(isp.iface(link.a).router);
    const auto& rb = isp.router(isp.iface(link.b).router);
    if (ra.co == rb.co) continue;
    if (!region_cos.contains(ra.co) || !region_cos.contains(rb.co)) continue;
    auto ka = truth_co_key(isp.co(ra.co));
    auto kb = truth_co_key(isp.co(rb.co));
    if (kb < ka) std::swap(ka, kb);
    truth.emplace(ka, kb);
  }
  for (const auto co_id : region->cos) {
    const auto& co = isp.co(co_id);
    if (co.role == topo::CoRole::kBackbone) continue;
    truth_is_agg[truth_co_key(co)] = co.role == topo::CoRole::kAgg;
  }

  GraphAccuracy accuracy;
  accuracy.true_edges = truth.size();
  std::set<std::pair<std::string, std::string>> inferred;
  for (const auto& [from, tos] : graph.out) {
    for (const auto& [to, count] : tos) {
      auto a = from;
      auto b = to;
      if (b < a) std::swap(a, b);
      inferred.emplace(a, b);
    }
  }
  accuracy.inferred_edges = inferred.size();
  for (const auto& edge : inferred)
    accuracy.correct_edges += truth.contains(edge);

  std::set<std::string> true_aggs;
  for (const auto& [key, is_agg] : truth_is_agg)
    if (is_agg) true_aggs.insert(key);
  for (const auto& co : graph.agg_cos) {
    if (true_aggs.contains(co))
      ++accuracy.agg_true_positive;
    else
      ++accuracy.agg_false_positive;
  }
  for (const auto& agg : true_aggs)
    if (!graph.agg_cos.contains(agg)) ++accuracy.agg_false_negative;
  return accuracy;
}

}  // namespace ran::infer
