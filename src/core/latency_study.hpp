// Latency analyses over inferred topologies (§5.5, Figs 9 and 10).
//
// All measurements are ping campaigns from cloud VMs to addresses the
// pipeline mapped to EdgeCOs, plus RTT differences read off traceroute
// hops for the AggCO->EdgeCO distances — no ground-truth access.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "cable_pipeline.hpp"
#include "vantage/vps.hpp"

namespace ran::infer {

/// One probeable address per inferred EdgeCO of a study (the "EdgeCO IP
/// addresses included in our graphs" of §5.5).
struct EdgeCoTarget {
  std::string co_key;
  std::string region;
  std::string state;  ///< decoded from the CO's hostname; may be empty
  net::IPv4Address addr;
};

[[nodiscard]] std::vector<EdgeCoTarget> edge_co_targets(
    const CableStudy& study);

/// Minimum RTT to an EdgeCO from its best cloud region of each provider.
struct EdgeCoCloudRtt {
  EdgeCoTarget target;
  /// provider ("aws"/"azure"/"gcp") -> best min-RTT from that provider.
  std::map<std::string, double> best_by_provider;

  /// Overall nearest-cloud RTT.
  [[nodiscard]] double nearest() const;
};

/// Pings every target from every cloud VM (`pings` each), keeping the
/// per-provider minimum (§5.5's methodology).
[[nodiscard]] std::vector<EdgeCoCloudRtt> cloud_latency_campaign(
    const sim::World& world, std::span<const vp::ExternalVp> cloud_vms,
    std::span<const EdgeCoTarget> targets, int pings = 10);

/// Fig 9 rows: median per-state nearest-cloud RTT, one series per
/// provider. Returns provider -> state -> median RTT.
[[nodiscard]] std::map<std::string, std::map<std::string, double>>
state_medians(std::span<const EdgeCoCloudRtt> rtts,
              std::span<const std::string> states);

/// Fig 10b: per-EdgeCO RTT from its nearest inferred AggCO, derived from
/// hop RTT differences inside the study's traceroutes: for every mapped
/// AggCO hop and every later mapped hop of a non-AggCO in the same
/// region, a positive RTT difference; each CO keeps its smallest. Every
/// mapped address is resolved once, and the traces are split over
/// `threads` workers (0 = hardware concurrency); the result is identical
/// at any thread count.
[[nodiscard]] std::map<std::string, double> agg_to_edge_rtts(
    const CableStudy& study, int threads = 1);

}  // namespace ran::infer
