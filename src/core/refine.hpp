// Regional-graph refinement (§5.2.2-5.2.5, App. B.3):
//   * identify AggCOs by out-degree (mean + one standard deviation);
//   * remove false EdgeCO-EdgeCO edges (stale rDNS), keeping genuine
//     small aggregators;
//   * pair AggCOs that share a fiber ring (75 % / 50 % downstream overlap)
//     and complete the dual-star edges rDNS missed;
//   * infer backbone and inter-region entry points from traceroute
//     triplets, requiring corroboration from two or more COs.
#pragma once

#include <map>
#include <string>

#include "graph.hpp"
#include "observations.hpp"
#include "pruning.hpp"

namespace ran::obs {
class Log;
}  // namespace ran::obs

namespace ran::infer {

class CsrGraph;

struct RefineStats {
  std::size_t edge_edges_removed = 0;  ///< EdgeCO->EdgeCO prunes (§5.2.3)
  std::size_t ring_edges_added = 0;    ///< dual-star completions (§5.2.4)
  std::size_t small_aggs_kept = 0;     ///< EdgeCOs promoted to small AggCOs

  /// Mirrors the per-heuristic edge accounting into `registry` as
  /// counters named `<prefix>.edge_edges_removed`, ...
  void publish(obs::Registry& registry, const std::string& prefix) const;
};

/// Identifies AggCOs in a region: out-degree above the regional mean
/// plus one standard deviation (§5.2.2), falling back to the single
/// highest-degree CO (lowest id on a tie) in tiny regions. Sets the
/// graph's agg flags. Node ids follow sorted CO-key order, so the
/// floating-point accumulation and the tie-break are fixed by the keys.
void identify_agg_cos(CsrGraph& graph);

/// Removes EdgeCO->EdgeCO edges unless the source aggregates several COs
/// that nothing else serves (App. B.3's small-AggCO exception); removals
/// are in-place tombstones. With a provenance log, each removal records
/// refine.edge_edge and each spared source CO counts once under
/// refine.small_agg (matching the stats).
void remove_edge_to_edge(CsrGraph& graph, RefineStats& stats,
                         obs::ProvenanceLog* provenance = nullptr);

/// Pairs ring-sharing AggCOs and adds the missing edges (to the graph's
/// side list) so related AggCOs reach identical EdgeCO sets (§5.2.4 /
/// B.3). Completed edges record a refine.ring provenance decision naming
/// the contributing partner set.
void complete_ring_pairs(CsrGraph& graph, RefineStats& stats,
                         obs::ProvenanceLog* provenance = nullptr);

/// Infers entry points (§5.2.5) from the corpus's unique-triplet table:
/// triplets (co_i, r1) -> (co_j, r2) -> (co_k, r2) where co_i leads to
/// >= 2 COs of region r2. Fills backbone_entries / region_entries of each
/// graph. Accepted and rejected candidates count under entry.backbone /
/// entry.region; accepted ones also record per-(entry, reached CO)
/// decision details.
void infer_entry_points(const CorpusIndex& index, const CoMap& co_map,
                        std::map<std::string, RegionalGraph>& regions,
                        obs::ProvenanceLog* provenance = nullptr);

/// Stage switches for ablation experiments.
struct RefineOptions {
  bool remove_edge_edges = true;
  bool complete_rings = true;
  /// Worker threads for the per-region heuristics (0 = hardware
  /// concurrency, 1 = serial). Shards merge in sorted region order, so
  /// output is identical at any thread count.
  int threads = 1;
  /// Optional sink for refinement diagnostics: per-region warnings when a
  /// heuristic cannot apply ("ring completion found no second AggCO") and
  /// a run summary. Null is free apart from one pointer test.
  obs::Log* log = nullptr;
};

/// The full §5.2 refinement applied to every region: each region runs
/// the CSR heuristic kernels above on options.threads workers with
/// private stats/provenance/warning shards merged in sorted region
/// order, then the triplet table drives entry inference. The optional
/// provenance log receives one refine.*/entry.* decision per edge (or
/// entry candidate) each heuristic touches; per-rule totals cross-check
/// RefineStats.
[[nodiscard]] RefineStats refine_regions(
    std::map<std::string, RegionalGraph>& regions, const CorpusIndex& index,
    const CoMap& co_map, const RefineOptions& options = {},
    obs::ProvenanceLog* provenance = nullptr);

}  // namespace ran::infer
