#include "resilience.hpp"

#include <algorithm>
#include <queue>
#include <set>

#include "csr_graph.hpp"

namespace ran::infer {

namespace {

/// Roots of the reachability analysis: COs fed by the inferred entries,
/// falling back to parentless AggCOs (the aggregation heads).
std::set<std::string> root_cos(const RegionalGraph& graph) {
  std::set<std::string> roots;
  for (const auto& [entry, reached] : graph.backbone_entries)
    roots.insert(reached.begin(), reached.end());
  for (const auto& [entry, info] : graph.region_entries)
    roots.insert(info.second.begin(), info.second.end());
  if (!roots.empty()) return roots;
  // Parentless AggCOs: one reverse-CSR row lookup per AggCO.
  const auto csr = CsrGraph::from_regional(graph);
  for (const auto& agg : graph.agg_cos) {
    const auto id = csr.id_of(agg);
    if (id == CsrGraph::kInvalid || csr.in_degree(id) == 0)
      roots.insert(agg);
  }
  if (roots.empty()) roots = graph.agg_cos;
  return roots;
}

/// EdgeCOs reachable from the roots when `failed` is removed.
int reachable_edges(const RegionalGraph& graph,
                    const std::set<std::string>& roots,
                    const std::string& failed) {
  std::set<std::string> visited;
  std::queue<std::string> queue;
  for (const auto& root : roots) {
    if (root == failed) continue;
    if (visited.insert(root).second) queue.push(root);
  }
  while (!queue.empty()) {
    const auto co = std::move(queue.front());
    queue.pop();
    const auto it = graph.out.find(co);
    if (it == graph.out.end()) continue;
    for (const auto& [to, count] : it->second) {
      if (to == failed) continue;
      if (visited.insert(to).second) queue.push(to);
    }
  }
  int edges = 0;
  for (const auto& co : graph.edge_cos())
    edges += visited.contains(co);
  return edges;
}

}  // namespace

ResilienceReport analyze_resilience(const RegionalGraph& graph) {
  ResilienceReport report;
  report.region = graph.region;
  const auto edge_cos = graph.edge_cos();
  report.edge_cos = static_cast<int>(edge_cos.size());
  report.entries = static_cast<int>(graph.backbone_entries.size() +
                                    graph.region_entries.size());
  const auto roots = root_cos(graph);
  const int baseline = reachable_edges(graph, roots, "");

  int never_lost = baseline;
  for (const auto& co : graph.cos) {
    const int reachable = reachable_edges(graph, roots, co);
    const int lost = baseline - reachable;
    FailureImpact impact;
    impact.co = co;
    impact.is_agg = graph.agg_cos.contains(co);
    // A failed EdgeCO trivially "loses" itself; count only the EdgeCOs it
    // strands downstream.
    impact.edge_cos_disconnected =
        std::max(0, lost - (edge_cos.contains(co) ? 1 : 0));
    if (impact.edge_cos_disconnected > 0) {
      ++report.single_points_of_failure;
      report.impacts.push_back(impact);
    }
    if (report.edge_cos > 0)
      report.worst_blast_radius =
          std::max(report.worst_blast_radius,
                   static_cast<double>(impact.edge_cos_disconnected) /
                       report.edge_cos);
    never_lost = std::min(never_lost, reachable);
  }
  std::sort(report.impacts.begin(), report.impacts.end(),
            [](const FailureImpact& a, const FailureImpact& b) {
              return a.edge_cos_disconnected > b.edge_cos_disconnected;
            });
  report.single_failure_coverage =
      report.edge_cos == 0
          ? 1.0
          : 1.0 - report.worst_blast_radius;
  return report;
}

std::map<std::string, ResilienceReport> analyze_resilience(
    const std::map<std::string, RegionalGraph>& regions) {
  std::map<std::string, ResilienceReport> out;
  for (const auto& [name, graph] : regions)
    out.emplace(name, analyze_resilience(graph));
  return out;
}

}  // namespace ran::infer
