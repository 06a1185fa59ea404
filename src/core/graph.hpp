// Inferred CO-level topology graphs (§5.2).
#pragma once

#include <map>
#include <set>
#include <string>

#include "co_mapping.hpp"

namespace ran::infer {

/// The inferred graph of one regional access network. Nodes are CO keys;
/// edges are directed in traceroute order (toward the last mile), with
/// observation counts.
struct RegionalGraph {
  std::string region;  ///< regional rDNS tag
  std::set<std::string> cos;
  /// Directed adjacency: upstream CO -> downstream CO -> trace count.
  std::map<std::string, std::map<std::string, int>> out;
  /// COs inferred to aggregate others (§5.2.2). Populated by refinement.
  std::set<std::string> agg_cos;
  /// Backbone entry points (§5.2.5): backbone CO key -> region COs reached.
  std::map<std::string, std::set<std::string>> backbone_entries;
  /// Entries from other regions: foreign CO key -> (its region, reached).
  std::map<std::string, std::pair<std::string, std::set<std::string>>>
      region_entries;

  [[nodiscard]] bool has_edge(const std::string& from,
                              const std::string& to) const {
    const auto it = out.find(from);
    return it != out.end() && it->second.contains(to);
  }
  void add_edge(const std::string& from, const std::string& to, int count) {
    cos.insert(from);
    cos.insert(to);
    out[from][to] += count;
  }
  void remove_edge(const std::string& from, const std::string& to) {
    const auto it = out.find(from);
    if (it == out.end()) return;
    if (it->second.erase(to) == 0) return;
    if (it->second.empty()) out.erase(from);
    drop_if_isolated(from);
    drop_if_isolated(to);
  }
  /// Drops a CO from the node sets once no edge touches it anymore —
  /// pruning must not leave phantom nodes behind in cos/agg_cos.
  void drop_if_isolated(const std::string& co) {
    if (out.contains(co)) return;
    for (const auto& [from, tos] : out)
      if (tos.contains(co)) return;
    cos.erase(co);
    agg_cos.erase(co);
  }
  [[nodiscard]] int out_degree(const std::string& co) const {
    const auto it = out.find(co);
    return it == out.end() ? 0 : static_cast<int>(it->second.size());
  }
  [[nodiscard]] std::size_t edge_count() const {
    std::size_t n = 0;
    for (const auto& [from, tos] : out) n += tos.size();
    return n;
  }
  /// COs with no outgoing edges plus non-agg COs: the EdgeCOs under the
  /// paper's working definition ("any CO with outgoing edges" is an
  /// AggCO in §5.3's accounting).
  [[nodiscard]] std::set<std::string> edge_cos() const {
    std::set<std::string> result;
    for (const auto& co : cos)
      if (!agg_cos.contains(co)) result.insert(co);
    return result;
  }
};

}  // namespace ran::infer
