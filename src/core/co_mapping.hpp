// Mapping IP addresses to Central Offices (App. B.1, Fig 19, Table 3).
//
// Three passes:
//  1. Initial: reverse-lookup every observed address *and every address in
//     its point-to-point subnet*, extract CO tags with the hostname
//     grammars.
//  2. Alias refinement: within each inferred router, remap all addresses
//     to the majority CO; ties drop the mapping entirely.
//  3. Point-to-point refinement: the far end of the subnet of a successor
//     hop usually sits on the same router as the current hop; use those
//     mates' mappings to correct or fill the current hop's CO.
#pragma once

#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "alias_resolution.hpp"
#include "dnssim/extract.hpp"
#include "observations.hpp"

namespace ran::obs {
class Log;
class ProvenanceLog;
class Registry;
}  // namespace ran::obs

namespace ran::infer {

/// What the pipeline knows about one CO key.
struct CoAnnotation {
  std::string co_key;
  std::string region;  ///< regional tag; empty for backbone COs
  bool backbone = false;
  /// True when this mapping came from the address's own rDNS name (pass
  /// 1); false when alias resolution or the point-to-point pass supplied
  /// it. Unnamed addresses behave differently in traceroute (loopback
  /// replies), which the MPLS matcher must account for.
  bool from_rdns = false;
  const net::City* city = nullptr;  ///< decoded location (may be null)
  int building = 0;
};

/// Refinement accounting in the shape of Table 3.
struct CoMappingStats {
  std::size_t initial = 0;
  std::size_t alias_changed = 0;
  std::size_t alias_added = 0;
  std::size_t alias_removed = 0;
  std::size_t after_alias = 0;
  std::size_t p2p_changed = 0;
  std::size_t p2p_added = 0;
  std::size_t final_count = 0;

  /// Mirrors the per-pass accounting into `registry` as counters named
  /// `<prefix>.initial`, `<prefix>.alias_changed`, ...
  void publish(obs::Registry& registry, const std::string& prefix) const;
};

/// The finished address -> CO map.
class CoMap {
 public:
  void set(net::IPv4Address addr, CoAnnotation annotation);
  void erase(net::IPv4Address addr) { map_.erase(addr); }
  [[nodiscard]] const CoAnnotation* get(net::IPv4Address addr) const;
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] const std::unordered_map<net::IPv4Address, CoAnnotation>&
  entries() const {
    return map_;
  }

 private:
  std::unordered_map<net::IPv4Address, CoAnnotation> map_;
};

struct CoMappingResult {
  CoMap map;
  CoMappingStats stats;
};

/// Consecutive responding-hop pairs of a corpus, with multiplicity.
/// When `transit_only` is set, pairs whose second hop is the trace's
/// destination echo are skipped: a destination replies with the probed
/// address rather than its inbound interface, which would poison the
/// point-to-point mate heuristic (Fig 19).
[[nodiscard]] std::vector<std::pair<net::IPv4Address, net::IPv4Address>>
consecutive_pairs(const TraceCorpus& corpus, bool transit_only = false);

/// One unique consecutive-hop adjacency with its occurrence count,
/// typically taken from a CorpusIndex pair table.
struct WeightedAdjacency {
  net::IPv4Address from;
  net::IPv4Address to;
  int count = 0;
  /// Corpus-order sequence number of the last qualifying occurrence (see
  /// PairRecord::last_transit_seq): among the votes for the winning CO,
  /// the one with the highest last_seq supplies the exemplar annotation.
  std::uint32_t last_seq = 0;
};

/// Runs the three-pass mapping. `adjacencies` are the corpus's unique
/// transit hop pairs (needed by the point-to-point pass): one mate lookup
/// and one vote per unique pair, weighted by its count, so majorities
/// equal per-occurrence tallies. `p2p_len` is the ISP's inferred
/// point-to-point subnet length. A provenance log (optional) accumulates
/// bounded per-CO support counters — how many addresses each pass mapped
/// into the CO (b1.rdns, b1.alias_*, b1.p2p_*) — which explain() appends
/// to edge transcripts. A logger (optional) receives warnings for mapping
/// anomalies (alias majority ties dropping mappings) and a coverage
/// summary.
[[nodiscard]] CoMappingResult build_co_mapping(
    std::span<const net::IPv4Address> addrs,
    const std::vector<WeightedAdjacency>& adjacencies, int p2p_len,
    const RdnsSources& rdns, const RouterClusters& clusters,
    obs::ProvenanceLog* provenance = nullptr, obs::Log* log = nullptr);

}  // namespace ran::infer
