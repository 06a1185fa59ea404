// Adjacency extraction and pruning (App. B.2, Table 4) plus the MPLS
// false-link check of §5.1.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>

#include "flat_table.hpp"
#include "graph.hpp"
#include "observations.hpp"

namespace ran::obs {
class Log;
class ProvenanceLog;
class Registry;
}  // namespace ran::obs

namespace ran::infer {

/// Accounting in the shape of Table 4 (counts; the benches print both
/// counts and the paper's percentages).
struct PruningStats {
  std::size_t ip_adj_initial = 0;
  std::size_t ip_adj_mpls = 0;
  std::size_t ip_adj_backbone = 0;
  std::size_t ip_adj_cross_region = 0;
  std::size_t ip_adj_single = 0;
  std::size_t co_adj_initial = 0;
  std::size_t co_adj_mpls = 0;
  std::size_t co_adj_backbone = 0;
  std::size_t co_adj_cross_region = 0;
  std::size_t co_adj_single = 0;

  /// Mirrors the per-rule accounting into `registry` as counters named
  /// `<prefix>.ip_adj.initial`, `<prefix>.co_adj.mpls`, ... so run
  /// manifests carry Table 4 alongside the stage tree.
  void publish(obs::Registry& registry, const std::string& prefix) const;
};

/// A set of directed address pairs, held as packed (a << 32) | b keys in
/// a flat hash table. Pairs of responding hops only: 0.0.0.0 -> 0.0.0.0
/// cannot be stored.
class AddressPairSet {
 public:
  AddressPairSet() = default;
  AddressPairSet(
      std::initializer_list<std::pair<net::IPv4Address, net::IPv4Address>>
          pairs);

  void insert(net::IPv4Address a, net::IPv4Address b) {
    keys_.upsert(pack(a, b));
  }
  [[nodiscard]] bool contains(net::IPv4Address a, net::IPv4Address b) const {
    return keys_.contains(pack(a, b));
  }
  [[nodiscard]] bool contains(
      const std::pair<net::IPv4Address, net::IPv4Address>& pair) const {
    return contains(pair.first, pair.second);
  }

  /// Calls fn(a, b) for every pair, in hash order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    keys_.for_each([&fn](const core::KeySlot& slot) {
      fn(net::IPv4Address{static_cast<std::uint32_t>(slot.bits >> 32)},
         net::IPv4Address{static_cast<std::uint32_t>(slot.bits)});
    });
  }

 private:
  static std::uint64_t pack(net::IPv4Address a, net::IPv4Address b) {
    return (std::uint64_t{a.value()} << 32) | b.value();
  }
  core::FlatKeySet keys_;
};

/// Address pairs that follow-up (Direct Path Revelation) traceroutes show
/// separated by at least one intervening responding hop: the signature of
/// an MPLS tunnel whose initial adjacency was false (§5.1, [72]).
[[nodiscard]] AddressPairSet separated_pairs(const TraceCorpus& followups);

struct AdjacencyResult {
  /// Per-region graphs built from the surviving intra-region adjacencies.
  std::map<std::string, RegionalGraph> regions;
  PruningStats stats;
};

class CorpusIndex;

/// Extracts CO adjacencies from the corpus's unique-pair table, prunes
/// MPLS/backbone/cross-region/single-observation ones, and assembles
/// per-region graphs. Two CoMap lookups per *unique* pair; with
/// threads > 1 (0 = hardware concurrency) the CO adjacencies are
/// classified per region in parallel, and the output is identical at
/// any thread count. When `provenance` is non-null, every CO adjacency
/// examined gains an EdgeProvenance record: its supporting observation
/// count, first/last supporting (vp,dst) trace ids (corpus order, which
/// is why the corpus itself is needed), and a prune.* decision whose
/// per-rule totals equal the co_adj_* fields of PruningStats. A logger
/// (optional) receives a per-rule pruning summary and a warning when
/// pruning removes every CO adjacency.
[[nodiscard]] AdjacencyResult build_and_prune(
    const TraceCorpus& corpus, const CorpusIndex& index, const CoMap& co_map,
    const AddressPairSet& mpls_separated,
    obs::ProvenanceLog* provenance = nullptr, obs::Log* log = nullptr,
    int threads = 1);

}  // namespace ran::infer
