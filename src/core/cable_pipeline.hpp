// The end-to-end §5 methodology for rDNS-rich, externally probeable
// access ISPs (Comcast / Charter):
//
//   Phase 1 — build router-topology observations:
//     (a) traceroute to one address in every /24 of the ISP's announced
//         space, from every VP;
//     (b) traceroute to every address whose (Rapid7-snapshot) rDNS matches
//         the CO regexes;
//     (c) traceroute to every intermediate address observed, exposing MPLS
//         entry/exit pairs (Direct Path Revelation);
//     (d) alias-resolve all candidate addresses (Mercator + MIDAR).
//
//   Phase 2 — build CO-topology graphs:
//     map addresses to COs (B.1), extract and prune adjacencies (B.2),
//     identify AggCOs, repair the dual-star edges, and infer entry points
//     (§5.2.2-5.2.5).
#pragma once

#include <limits>
#include <span>

#include "observations.hpp"
#include "parse_report.hpp"
#include "probe/campaign.hpp"
#include "pruning.hpp"
#include "refine.hpp"
#include "study.hpp"
#include "vantage/vps.hpp"

namespace ran::infer {

/// "Use every available vantage point" for followup_vps (validated > 0;
/// values above the VP count clamp to it).
inline constexpr int kAllVps = std::numeric_limits<int>::max();

struct CablePipelineConfig {
  /// Campaign execution shared by all pipelines: per-trace options,
  /// parallelism, metrics sink.
  probe::CampaignConfig campaign;
  /// Corpus-boundary policy: every assembled corpus is validated under
  /// this mode and its `ingest.*` data-quality counters land in the run
  /// manifest. Strict (the default) treats a malformed record as a
  /// contract violation; lenient prunes-and-counts.
  IngestConfig ingest;
  /// Ablation switches (the bench_ablation_refinement experiment): turn
  /// individual methodology stages off to measure their contribution.
  bool use_alias_resolution = true;   ///< B.1 pass 2
  bool use_p2p_refinement = true;     ///< B.1 pass 3 (Fig 19)
  bool use_mpls_check = true;         ///< §5.1 false-link removal
  bool use_edge_edge_removal = true;  ///< §5.2.3
  bool use_ring_completion = true;    ///< §5.2.4
  /// Point-to-point subnet length; 0 = auto-detect from observed
  /// addresses (§B.1 observed /30s at Comcast and /31s at Charter).
  int p2p_len = 0;
  /// VPs used for the follow-up (intermediate-address) traceroutes; the
  /// MPLS separation check needs follow-ups from the same vantage points
  /// whose flows produced the initial adjacencies, so default to all.
  int followup_vps = kAllVps;
  /// Host offset probed within each /24 during the sweep.
  int sweep_offset = 9;
};

/// Everything §5 produces for one ISP. Corpus (sweep+rDNS+follow-up
/// traceroutes), clusters, and manifest live in the shared StudyBase.
struct CableStudy : StudyBase {
  CoMappingResult mapping;      ///< B.1 output (Table 3)
  AdjacencyResult adjacency;    ///< pruned per-region graphs (Table 4)
  RefineStats refine;           ///< §5.2.2-5.2.4 accounting
  int p2p_len = 30;             ///< detected subnet length

  // Campaign counters (§5.1's "5.3x more CO interconnections" figure).
  std::size_t sweep_targets = 0;
  std::size_t rdns_targets = 0;
  std::size_t followup_targets = 0;
  std::size_t co_adjs_sweep_only = 0;
  std::size_t co_adjs_total = 0;

  [[nodiscard]] std::map<std::string, RegionalGraph>& regions() {
    return adjacency.regions;
  }
  [[nodiscard]] const std::map<std::string, RegionalGraph>& regions() const {
    return adjacency.regions;
  }
};

/// Infers the point-to-point subnet length from which observed addresses
/// pair up ( /31 mates differ in the last bit; /30 mates are the middle
/// hosts of aligned blocks of four).
[[nodiscard]] int detect_p2p_len(std::span<const net::IPv4Address> addrs);

class CablePipeline {
 public:
  CablePipeline(const sim::World& world, int isp_index, RdnsSources rdns,
                CablePipelineConfig config = {});

  /// Runs both phases from the given vantage points.
  [[nodiscard]] CableStudy run(std::span<const vp::ExternalVp> vps) const;

 private:
  [[nodiscard]] std::vector<net::IPv4Address> sweep_targets() const;
  [[nodiscard]] std::vector<net::IPv4Address> rdns_targets() const;

  const sim::World& world_;
  int isp_index_;
  RdnsSources rdns_;
  CablePipelineConfig config_;
};

}  // namespace ran::infer
