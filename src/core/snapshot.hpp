// TopologySnapshot: the immutable, versioned query artifact every
// pipeline publishes and every downstream consumer — the `ran_serve`
// daemon, offline analyses, resilience reports, placement planners —
// reads. One snapshot freezes the CO-level result of a study:
//
//   * per region, the inferred graph in CSR form (interned uint32 ids,
//     forward + reverse rows) plus the entry maps the CSR build leaves
//     to its caller;
//   * a precomputed undirected all-pairs path index (BFS next-hop +
//     hop-distance tables) so path/latency queries are O(path length);
//   * the eval and resilience summaries of §5.3/§8 (aggregation type,
//     redundancy accounting, single-failure exposure);
//   * optionally, measured per-CO RTTs (the §5.5 hop-difference
//     technique) so latency answers can carry milliseconds, not only
//     hop counts;
//   * a shared handle on the edge-provenance log, so `explain` replies
//     keep answering after the study object is gone ("Misleading
//     Stars": an answer must say what was actually measured).
//
// Snapshots are deeply immutable after build() — concurrent readers
// need no synchronization — and serialize to a single deterministic
// JSON document. save()/load() round-trip exactly: a reloaded snapshot
// re-exports byte-identical DOT/JSON per region and byte-identical
// explain() transcripts (tests/test_snapshot.cpp).
//
// SnapshotHub is the one concurrency primitive of the serving layer:
// readers copy the current shared_ptr once per query under a brief
// shared lock; publishers swap in a new generation under an exclusive
// lock. A reader holding a generation keeps it alive for as long as it
// needs — republishing never invalidates in-flight queries (the PR-1
// route-cache pattern, now shared by World and the serve path).
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "csr_graph.hpp"
#include "eval.hpp"
#include "obs/timed_mutex.hpp"
#include "resilience.hpp"

namespace ran::obs {
class ProvenanceLog;
}

namespace ran::infer {

/// One region of a snapshot: CSR graph + query indexes + summaries.
/// Build through TopologySnapshot::build(); immutable afterwards.
class RegionSnapshot {
 public:
  static constexpr std::uint16_t kUnreachable = 0xffff;
  /// Regions up to this many COs carry the dense all-pairs next-hop
  /// index; larger ones answer path queries with an on-demand BFS.
  static constexpr std::size_t kDenseIndexMaxNodes = 1024;
  /// Per-hop latency charged when no measured RTTs bracket an edge.
  static constexpr double kDefaultHopMs = 0.5;

  [[nodiscard]] const CsrGraph& graph() const { return graph_; }
  [[nodiscard]] const std::string& region() const { return graph_.region(); }
  [[nodiscard]] std::size_t co_count() const { return graph_.node_count(); }
  [[nodiscard]] std::size_t edge_count() const { return graph_.edge_count(); }
  [[nodiscard]] std::size_t agg_co_count() const { return agg_co_count_; }
  [[nodiscard]] std::size_t edge_co_count() const {
    return co_count() - agg_co_count_;
  }

  [[nodiscard]] const ResilienceReport& resilience() const {
    return resilience_;
  }
  [[nodiscard]] const RedundancyStats& redundancy() const {
    return redundancy_;
  }
  [[nodiscard]] AggregationType aggregation_type() const { return agg_type_; }

  /// Measured per-CO RTT (ms) when the study carried one; empty map
  /// otherwise.
  [[nodiscard]] const std::map<std::string, double>& co_rtt_ms() const {
    return co_rtt_ms_;
  }

  /// Undirected shortest CO path from `from` to `to` (both interned
  /// ids), inclusive of the endpoints. Empty when disconnected;
  /// {from} when from == to. Deterministic: of all shortest paths the
  /// lexicographically smallest id sequence is returned (at every hop
  /// the smallest-id neighbor one step closer to `to` is taken), and
  /// the dense and on-demand modes agree by construction.
  [[nodiscard]] std::vector<std::uint32_t> path(std::uint32_t from,
                                                std::uint32_t to) const;
  /// Hop count of path(from, to); kUnreachable when disconnected.
  [[nodiscard]] std::uint16_t hop_distance(std::uint32_t from,
                                           std::uint32_t to) const;

  /// Latency estimate along a path: per consecutive pair, the absolute
  /// difference of the endpoints' measured RTTs when both are known
  /// (the §5.5 hop-difference reading), kDefaultHopMs otherwise.
  [[nodiscard]] double path_latency_ms(
      const std::vector<std::uint32_t>& path) const;

  /// Rebuilds the facade RegionalGraph (CSR edges + the entry maps the
  /// snapshot carried over) — the interchange type every exporter and
  /// analysis consumes. Lossless: exports of the rebuilt graph are
  /// byte-identical to exports of the graph the snapshot was built from.
  [[nodiscard]] RegionalGraph regional() const;

  /// Approximate heap footprint, for the resource profiler.
  [[nodiscard]] std::uint64_t approx_bytes() const;

 private:
  friend class TopologySnapshot;

  void build_from(const RegionalGraph& graph,
                  const std::map<std::string, double>& co_rtt_ms);
  /// BFS from `src` over the undirected adjacency; fills `dist` (size
  /// node_count()) with hop counts, kUnreachable where disconnected.
  void bfs_from(std::uint32_t src, std::vector<std::uint16_t>& dist) const;
  /// Hop distances from every node to `to` — the dense row when the
  /// index exists, a fresh BFS otherwise (BFS is symmetric here: the
  /// adjacency is undirected).
  void dist_to(std::uint32_t to, std::vector<std::uint16_t>& dist) const;

  CsrGraph graph_;
  std::size_t agg_co_count_ = 0;
  /// Undirected adjacency (union of forward targets and reverse
  /// sources, deduplicated, ascending): the BFS ground truth.
  std::vector<std::uint32_t> und_offsets_;
  std::vector<std::uint32_t> und_to_;
  /// Dense all-pairs hop distances (node-major rows, hop_dist_[s*n+t]);
  /// empty when n > kDenseIndexMaxNodes. Paths are reconstructed from
  /// distances alone: greedy descent toward the target.
  std::vector<std::uint16_t> hop_dist_;
  /// Entry maps are not part of the CSR form; carried verbatim.
  std::map<std::string, std::set<std::string>> backbone_entries_;
  std::map<std::string, std::pair<std::string, std::set<std::string>>>
      region_entries_;
  std::map<std::string, double> co_rtt_ms_;
  /// co_rtt_ms_ re-keyed by interned id (kNoRtt where unmeasured) so
  /// the latency hot path is array reads, not string map lookups.
  std::vector<double> rtt_by_id_;
  static constexpr double kNoRtt = -1.0;
  ResilienceReport resilience_;
  RedundancyStats redundancy_;
  AggregationType agg_type_ = AggregationType::kSingleAgg;
};

class TopologySnapshot {
 public:
  /// Freezes `regions` (plus optional measured CO RTTs keyed by CO key)
  /// into an immutable snapshot. `provenance` may be null — explain
  /// queries then answer with a structured "no provenance" error.
  [[nodiscard]] static TopologySnapshot build(
      std::string source, const std::map<std::string, RegionalGraph>& regions,
      std::shared_ptr<const obs::ProvenanceLog> provenance,
      std::uint64_t generation,
      const std::map<std::string, double>& co_rtt_ms = {});

  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] const std::string& source() const { return source_; }
  [[nodiscard]] const std::map<std::string, RegionSnapshot, std::less<>>&
  regions() const {
    return regions_;
  }
  /// Takes a string_view so the query hot path looks up the region
  /// straight from the request buffer, with no temporary std::string.
  [[nodiscard]] const RegionSnapshot* find_region(std::string_view name) const;
  [[nodiscard]] const obs::ProvenanceLog* provenance() const {
    return provenance_.get();
  }

  [[nodiscard]] std::size_t co_count() const { return co_count_; }
  [[nodiscard]] std::size_t edge_count() const { return edge_count_; }
  [[nodiscard]] std::uint64_t approx_bytes() const;

  /// Serializes the snapshot as one deterministic JSON document
  /// (sorted keys, fixed formatting) plus a trailing newline.
  void save(std::ostream& os) const;
  [[nodiscard]] std::string to_json() const;

  /// Parses a document save() produced and rebuilds the snapshot —
  /// summaries and path indexes are recomputed (they are pure functions
  /// of the graphs, so the reload is exact). Returns nullopt and an
  /// explanation on malformed input; never throws on bad bytes.
  [[nodiscard]] static std::optional<TopologySnapshot> load(
      std::istream& is, std::string* error = nullptr);
  [[nodiscard]] static std::optional<TopologySnapshot> from_json(
      std::string_view text, std::string* error = nullptr);

 private:
  TopologySnapshot() = default;

  std::uint64_t generation_ = 0;
  std::string source_;
  std::map<std::string, RegionSnapshot, std::less<>> regions_;
  std::shared_ptr<const obs::ProvenanceLog> provenance_;
  std::size_t co_count_ = 0;
  std::size_t edge_count_ = 0;
};

/// The serving layer's publication point: lock-free-in-spirit reads (one
/// shared_ptr copy under a briefly-held shared lock — never held across
/// a lookup or a query), exclusive-lock writes. Readers keep whatever
/// generation they copied for as long as they hold the pointer.
class SnapshotHub {
 public:
  /// Publishes the hub's lock accounting as `lock.snapshot_hub.*` in
  /// `registry`'s volatile namespace (null detaches): how often readers
  /// actually contend with a publish, and for how long — measured, not
  /// assumed. Attach before the serving threads start.
  void attach_metrics(obs::Registry* registry) {
    mutex_.attach(registry, "snapshot_hub");
  }

  /// The current snapshot; null before the first publish.
  [[nodiscard]] std::shared_ptr<const TopologySnapshot> get() const {
    std::shared_lock lock{mutex_};
    return current_;
  }

  /// Atomically replaces the served snapshot. In-flight readers keep
  /// the generation they already copied; new reads see `next`. When the
  /// hub held the last reference to the replaced generation, it is
  /// destroyed after the lock is released, so readers never wait on it.
  void publish(std::shared_ptr<const TopologySnapshot> next) {
    {
      std::unique_lock lock{mutex_};
      current_.swap(next);
      ++publishes_;
      last_publish_ = std::chrono::steady_clock::now();
    }
    // `next` now holds the replaced generation and drops it here.
  }

  [[nodiscard]] std::uint64_t publish_count() const {
    std::shared_lock lock{mutex_};
    return publishes_;
  }

  /// Seconds since the last publish — the staleness the paper's §5.2
  /// pruning heuristics exist for, now measurable on the serving side.
  /// Negative (-1) before the first publish.
  [[nodiscard]] double seconds_since_publish() const {
    std::shared_lock lock{mutex_};
    if (publishes_ == 0) return -1.0;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         last_publish_)
        .count();
  }

 private:
  mutable obs::TimedSharedMutex mutex_;
  std::shared_ptr<const TopologySnapshot> current_;
  std::uint64_t publishes_ = 0;
  std::chrono::steady_clock::time_point last_publish_{};
};

}  // namespace ran::infer
