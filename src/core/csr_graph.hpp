// Arena-backed CSR (compressed sparse row) form of a RegionalGraph.
//
// Nodes are CO keys interned to dense uint32 ids in *sorted key order*,
// so iterating ids 0..n-1 visits COs in the same order as iterating
// RegionalGraph::cos. The refine kernels emit stats, provenance and
// tie-breaks in id order, so their transcripts are a function of the CO
// keys alone — the contract the golden fixtures pin. Edges live in
// parallel arrays (target, observation count, tombstone flag) with both
// forward and reverse offset tables, so:
//   * out/in degree and adjacency tests are array scans, not map walks;
//   * pruning/refinement removals are in-place tombstones (no erases);
//   * parents_of() is one reverse-row lookup.
// Ring-completion additions go to a side list (the CSR arrays are
// immutable after build) and are folded back by to_regional().
//
// RegionalGraph remains the interchange type: exports, eval, and
// resilience reports consume it. from_regional() / to_regional() convert
// losslessly, with to_regional() dropping nodes that tombstoning fully
// isolated — the same orphan rule RegionalGraph::remove_edge applies.
#pragma once

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "graph.hpp"
#include "interner.hpp"

namespace ran::infer {

class CsrGraph {
 public:
  static constexpr std::uint32_t kInvalid = core::Interner::kInvalidId;

  /// Builds the CSR form. Node ids follow sorted CO-key order (so id
  /// order == RegionalGraph::cos order); each forward row lists targets
  /// with ids ascending.
  [[nodiscard]] static CsrGraph from_regional(const RegionalGraph& graph);

  /// Converts back to a RegionalGraph holding region, cos, out, and
  /// agg_cos: live forward edges plus side-list additions. Nodes with no
  /// remaining incident edge are dropped (RegionalGraph's orphan rule).
  /// Entry maps are the caller's to carry over.
  [[nodiscard]] RegionalGraph to_regional() const;

  [[nodiscard]] std::size_t node_count() const { return interner_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return fwd_to_.size(); }
  [[nodiscard]] std::string_view key(std::uint32_t id) const {
    return interner_.view(id);
  }
  [[nodiscard]] std::uint32_t id_of(std::string_view key) const {
    return interner_.find(key);
  }

  [[nodiscard]] bool is_agg(std::uint32_t id) const { return agg_[id] != 0; }
  void set_agg(std::uint32_t id, bool agg) { agg_[id] = agg ? 1 : 0; }
  void clear_agg() { std::fill(agg_.begin(), agg_.end(), 0); }

  // Forward rows: edge indices [fwd_begin(u), fwd_end(u)) belong to u.
  [[nodiscard]] std::uint32_t fwd_begin(std::uint32_t u) const {
    return fwd_offsets_[u];
  }
  [[nodiscard]] std::uint32_t fwd_end(std::uint32_t u) const {
    return fwd_offsets_[u + 1];
  }
  [[nodiscard]] std::uint32_t edge_to(std::uint32_t e) const {
    return fwd_to_[e];
  }
  [[nodiscard]] int edge_traces(std::uint32_t e) const {
    return fwd_count_[e];
  }
  [[nodiscard]] bool edge_dead(std::uint32_t e) const {
    return fwd_dead_[e] != 0;
  }
  /// Tombstones a forward edge in place.
  void remove_edge(std::uint32_t e) { fwd_dead_[e] = 1; }

  /// Live out-degree of u (tombstoned edges excluded, side additions
  /// included).
  [[nodiscard]] int out_degree(std::uint32_t u) const;
  /// Live in-degree of v.
  [[nodiscard]] int in_degree(std::uint32_t v) const;
  /// True when a live (or side-added) edge u -> v exists.
  [[nodiscard]] bool has_edge(std::uint32_t u, std::uint32_t v) const;
  /// Appends u -> v with `count` observations to the side list.
  void add_edge(std::uint32_t u, std::uint32_t v, int count);

  // Reverse rows: entries [rev_begin(v), rev_end(v)) are indices of the
  // forward edges pointing at v; rev_from(i) is the source node.
  [[nodiscard]] std::uint32_t rev_begin(std::uint32_t v) const {
    return rev_offsets_[v];
  }
  [[nodiscard]] std::uint32_t rev_end(std::uint32_t v) const {
    return rev_offsets_[v + 1];
  }
  [[nodiscard]] std::uint32_t rev_edge(std::uint32_t i) const {
    return rev_edge_[i];
  }
  [[nodiscard]] std::uint32_t rev_from(std::uint32_t i) const {
    return rev_from_[i];
  }
  /// Live upstream ids of v, ascending.
  [[nodiscard]] std::vector<std::uint32_t> parents_of(std::uint32_t v) const;

  [[nodiscard]] const std::string& region() const { return region_; }

 private:
  core::Interner interner_;  ///< node id == intern id (sorted key order)
  std::string region_;

  std::vector<std::uint32_t> fwd_offsets_;
  std::vector<std::uint32_t> fwd_to_;
  std::vector<int> fwd_count_;
  std::vector<std::uint8_t> fwd_dead_;
  std::vector<std::uint32_t> rev_offsets_;
  std::vector<std::uint32_t> rev_edge_;
  std::vector<std::uint32_t> rev_from_;
  std::vector<std::uint8_t> agg_;

  struct AddedEdge {
    std::uint32_t from;
    std::uint32_t to;
    int count;
  };
  std::vector<AddedEdge> added_;
  std::set<std::pair<std::uint32_t, std::uint32_t>> added_lookup_;
};

}  // namespace ran::infer
