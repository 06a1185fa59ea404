// Unit tests for the inference heuristics in isolation, on hand-crafted
// fixtures: CO mapping (majority vote, tie removal, point-to-point
// refinement), adjacency pruning, AggCO identification, EdgeCO-EdgeCO
// removal, ring-pair completion, entry-point inference, p2p-length
// detection, and region classification.
#include <gtest/gtest.h>

#include "core/cable_pipeline.hpp"
#include "core/co_mapping.hpp"
#include "core/corpus_index.hpp"
#include "core/csr_graph.hpp"
#include "core/eval.hpp"
#include "core/pruning.hpp"
#include "core/refine.hpp"
#include "core/corpus_io.hpp"
#include "core/resilience.hpp"
#include "obs/provenance.hpp"

namespace ran::infer {
namespace {

net::IPv4Address ip(const char* text) {
  return *net::IPv4Address::parse(text);
}

/// Builds a TraceCorpus from responding-hop address lists.
TraceCorpus corpus_of(
    const std::vector<std::vector<const char*>>& traces) {
  TraceCorpus corpus;
  for (const auto& hops : traces) {
    probe::TraceRecord record;
    record.vp = "t";
    int ttl = 0;
    for (const char* hop : hops) {
      sim::Hop h;
      h.ttl = ++ttl;
      if (std::string{hop} != "*") h.addr = ip(hop);
      record.hops.push_back(h);
    }
    if (!record.hops.empty()) {
      record.dst = record.hops.back().addr;
      record.reached = record.hops.back().responded();
    }
    corpus.add(std::move(record));
  }
  return corpus;
}

/// Empty adjacency list for build_co_mapping calls that skip pass 3.
const std::vector<WeightedAdjacency> kNoPairs;

/// An RdnsSources over a local table (helper owns the database).
class FixtureRdns {
 public:
  explicit FixtureRdns(
      const std::vector<std::pair<const char*, const char*>>& entries) {
    for (const auto& [addr, name] : entries) db_.add(ip(addr), name);
  }
  [[nodiscard]] RdnsSources sources() const { return {&db_, nullptr}; }

 private:
  dns::RdnsDb db_;
};

TEST(ConsecutivePairs, SkipsGapsAndOptionallyTerminalEchoes) {
  const auto corpus = corpus_of({{"10.0.0.1", "10.0.0.5", "10.0.0.9"},
                                 {"10.0.0.1", "*", "10.0.0.9"}});
  const auto all = consecutive_pairs(corpus);
  ASSERT_EQ(all.size(), 2u);  // the starred trace contributes nothing
  const auto transit = consecutive_pairs(corpus, true);
  ASSERT_EQ(transit.size(), 1u);  // the terminal echo pair is dropped
  EXPECT_EQ(transit[0].first, ip("10.0.0.1"));
  EXPECT_EQ(transit[0].second, ip("10.0.0.5"));
}

TEST(CoMapping, InitialMappingIncludesSubnetMates) {
  // Only the mate (10.0.0.2) of an observed address carries rDNS.
  const FixtureRdns rdns{{
      {"10.0.0.2", "agg1.boston.ma.boston.comcast.net"},
  }};
  const std::vector<net::IPv4Address> addrs{ip("10.0.0.1")};
  const auto result =
      build_co_mapping(addrs, kNoPairs, 30, rdns.sources(), RouterClusters{});
  EXPECT_EQ(result.stats.initial, 1u);
  ASSERT_NE(result.map.get(ip("10.0.0.2")), nullptr);
  EXPECT_EQ(result.map.get(ip("10.0.0.2"))->co_key, "boston|ma|0");
}

TEST(CoMapping, AliasMajorityRemapsAndFillsCluster) {
  const FixtureRdns rdns{{
      {"10.0.0.1", "agg1.boston.ma.boston.comcast.net"},
      {"10.0.1.1", "agg1.boston.ma.boston.comcast.net"},
      {"10.0.2.1", "agg1.worcester.ma.boston.comcast.net"},  // stale
  }};
  const std::vector<net::IPv4Address> addrs{ip("10.0.0.1"), ip("10.0.1.1"),
                                            ip("10.0.2.1"), ip("10.0.3.1")};
  const RouterClusters clusters{addrs, {}, {{addrs.begin(), addrs.end()}}};
  const auto result =
      build_co_mapping(addrs, kNoPairs, 30, rdns.sources(), clusters);
  EXPECT_EQ(result.stats.alias_changed, 1u);  // the stale one
  EXPECT_GE(result.stats.alias_added, 1u);    // the unnamed one
  for (const auto addr : addrs) {
    ASSERT_NE(result.map.get(addr), nullptr) << addr.to_string();
    EXPECT_EQ(result.map.get(addr)->co_key, "boston|ma|0");
  }
}

TEST(CoMapping, AliasTieRemovesWholeGroup) {
  const FixtureRdns rdns{{
      {"10.0.0.1", "agg1.boston.ma.boston.comcast.net"},
      {"10.0.1.1", "agg1.worcester.ma.boston.comcast.net"},
  }};
  const std::vector<net::IPv4Address> addrs{ip("10.0.0.1"), ip("10.0.1.1")};
  const RouterClusters clusters{addrs, {}, {{addrs.begin(), addrs.end()}}};
  const auto result =
      build_co_mapping(addrs, kNoPairs, 30, rdns.sources(), clusters);
  EXPECT_EQ(result.stats.alias_removed, 2u);
  EXPECT_EQ(result.map.get(ip("10.0.0.1")), nullptr);
  EXPECT_EQ(result.map.get(ip("10.0.1.1")), nullptr);
}

TEST(CoMapping, P2pMatesFillUnmappedHops) {
  // Fig 19: x (10.0.9.9, no rDNS) precedes y twice; the mates of the two
  // successors carry the same CO, so x inherits it.
  const FixtureRdns rdns{{
      {"10.0.0.2", "agg1.boston.ma.boston.comcast.net"},
      {"10.0.0.6", "agg1.boston.ma.boston.comcast.net"},
  }};
  const std::vector<net::IPv4Address> addrs{
      ip("10.0.9.9"), ip("10.0.0.1"), ip("10.0.0.5")};
  const std::vector<WeightedAdjacency> adj{
      {ip("10.0.9.9"), ip("10.0.0.1"), 1, 1},  // mate of .1 is .2
      {ip("10.0.9.9"), ip("10.0.0.5"), 1, 2},  // mate of .5 is .6
  };
  const auto result =
      build_co_mapping(addrs, adj, 30, rdns.sources(), RouterClusters{});
  EXPECT_EQ(result.stats.p2p_added, 1u);
  ASSERT_NE(result.map.get(ip("10.0.9.9")), nullptr);
  EXPECT_EQ(result.map.get(ip("10.0.9.9"))->co_key, "boston|ma|0");
}

TEST(CoMapping, P2pNeedsStrictMajorityToOverturnRdns) {
  // x has its own (possibly stale) name; one mate vote must not flip it.
  const FixtureRdns rdns{{
      {"10.0.9.9", "agg1.worcester.ma.boston.comcast.net"},
      {"10.0.0.2", "agg1.boston.ma.boston.comcast.net"},
  }};
  const std::vector<net::IPv4Address> addrs{ip("10.0.9.9"), ip("10.0.0.1")};
  const std::vector<WeightedAdjacency> adj{
      {ip("10.0.9.9"), ip("10.0.0.1"), 1, 1},
  };
  const auto result =
      build_co_mapping(addrs, adj, 30, rdns.sources(), RouterClusters{});
  EXPECT_EQ(result.stats.p2p_changed, 0u);
  EXPECT_EQ(result.map.get(ip("10.0.9.9"))->co_key, "worcester|ma|0");
}

TEST(CoMapping, P2pExemplarIsTheWinningVoteSeenLastInCorpusOrder) {
  // Stale rDNS names one CO under two regions: every mate vote agrees on
  // the co_key, but the annotations differ. The exemplar x inherits must
  // be the winning vote with the highest last_seq, whichever side of the
  // address order it sits on.
  const FixtureRdns rdns{{
      {"10.0.0.2", "agg1.boston.ma.boston.comcast.net"},
      {"10.0.0.6", "agg1.boston.ma.worcester.comcast.net"},
  }};
  const std::vector<net::IPv4Address> addrs{
      ip("10.0.8.8"), ip("10.0.9.9"), ip("10.0.0.1"), ip("10.0.0.5")};
  const std::vector<WeightedAdjacency> adj{
      // 10.0.8.8: the boston-named mate is first in address order and
      // seen last in the corpus.
      {ip("10.0.8.8"), ip("10.0.0.1"), 1, 4},
      {ip("10.0.8.8"), ip("10.0.0.5"), 1, 3},
      // 10.0.9.9: the worcester-named mate is last on both counts.
      {ip("10.0.9.9"), ip("10.0.0.1"), 1, 1},
      {ip("10.0.9.9"), ip("10.0.0.5"), 1, 2},
  };
  const auto result =
      build_co_mapping(addrs, adj, 30, rdns.sources(), RouterClusters{});
  EXPECT_EQ(result.stats.p2p_added, 2u);
  const auto* first = result.map.get(ip("10.0.8.8"));
  const auto* second = result.map.get(ip("10.0.9.9"));
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(first->co_key, "boston|ma|0");
  EXPECT_EQ(first->region, "boston");
  EXPECT_EQ(second->co_key, "boston|ma|0");
  EXPECT_EQ(second->region, "worcester");
  EXPECT_FALSE(second->from_rdns);
}

TEST(DetectP2pLen, SeparatesSlash30FromSlash31) {
  // /30 world: mates at offsets 1/2 of blocks of four.
  std::vector<net::IPv4Address> s30;
  for (std::uint32_t block = 0; block < 50; ++block) {
    s30.push_back(net::IPv4Address{0x0a000000u + block * 4 + 1});
    s30.push_back(net::IPv4Address{0x0a000000u + block * 4 + 2});
  }
  EXPECT_EQ(detect_p2p_len(s30), 30);
  // /31 world: mates differing in the last bit, at even offsets.
  std::vector<net::IPv4Address> s31;
  for (std::uint32_t block = 0; block < 50; ++block) {
    s31.push_back(net::IPv4Address{0x0a000000u + block * 2});
    s31.push_back(net::IPv4Address{0x0a000000u + block * 2 + 1});
  }
  EXPECT_EQ(detect_p2p_len(s31), 31);
}

// ---------------------------------------------------------------------
// Pruning fixtures. CO mapping via hand-set annotations.
// ---------------------------------------------------------------------

CoMap map_of(const std::vector<std::tuple<const char*, const char*,
                                          const char*, bool>>& entries) {
  CoMap map;
  for (const auto& [addr, co, region, backbone] : entries) {
    CoAnnotation a;
    a.co_key = co;
    a.region = region;
    a.backbone = backbone;
    map.set(ip(addr), a);
  }
  return map;
}

AdjacencyResult prune(const TraceCorpus& corpus, const CoMap& map,
                      const AddressPairSet& separated = {}) {
  return build_and_prune(corpus, CorpusIndex::build(corpus), map, separated);
}

TEST(Pruning, SingleObservationAdjacenciesAreDropped) {
  const auto corpus = corpus_of({
      {"10.0.0.1", "10.0.0.5"},
      {"10.0.0.1", "10.0.0.5"},
      {"10.0.0.1", "10.0.0.9"},  // only once: anomalous
  });
  const auto map = map_of({{"10.0.0.1", "A", "r1", false},
                           {"10.0.0.5", "B", "r1", false},
                           {"10.0.0.9", "C", "r1", false}});
  const auto result = prune(corpus, map);
  ASSERT_TRUE(result.regions.contains("r1"));
  EXPECT_TRUE(result.regions.at("r1").has_edge("A", "B"));
  EXPECT_FALSE(result.regions.at("r1").has_edge("A", "C"));
  EXPECT_EQ(result.stats.co_adj_single, 1u);
}

TEST(Pruning, CrossRegionAndBackboneAdjacenciesLeaveTheGraphs) {
  const auto corpus = corpus_of({
      {"10.0.0.1", "10.0.0.5"},  // backbone -> regional
      {"10.0.0.1", "10.0.0.5"},
      {"10.0.0.5", "10.0.0.9"},  // regional r1 -> regional r2 (stale)
      {"10.0.0.5", "10.0.0.9"},
  });
  const auto map = map_of({{"10.0.0.1", "BB", "", true},
                           {"10.0.0.5", "B", "r1", false},
                           {"10.0.0.9", "C", "r2", false}});
  const auto result = prune(corpus, map);
  EXPECT_EQ(result.stats.co_adj_backbone, 1u);
  EXPECT_EQ(result.stats.co_adj_cross_region, 1u);
  for (const auto& [name, graph] : result.regions)
    EXPECT_EQ(graph.edge_count(), 0u);
}

TEST(Pruning, MplsSeparatedPairsAreRemovedUnlessGenuine) {
  const auto corpus = corpus_of({
      {"10.0.0.1", "10.0.0.5"},  // false edge (tunnel endpoints)
      {"10.0.0.1", "10.0.0.5"},
      {"10.0.0.2", "10.0.0.6"},  // genuine pair between other COs
      {"10.0.0.2", "10.0.0.6"},
  });
  const auto map = map_of({{"10.0.0.1", "A", "r1", false},
                           {"10.0.0.5", "B", "r1", false},
                           {"10.0.0.2", "C", "r1", false},
                           {"10.0.0.6", "D", "r1", false}});
  // A follow-up trace showed .1 and .5 separated by an interior hop.
  const AddressPairSet separated{
      {ip("10.0.0.1"), ip("10.0.0.5")}};
  const auto result = prune(corpus, map, separated);
  EXPECT_FALSE(result.regions.at("r1").has_edge("A", "B"));
  EXPECT_TRUE(result.regions.at("r1").has_edge("C", "D"));
  EXPECT_EQ(result.stats.co_adj_mpls, 1u);
}

/// The §5.1 CO-level lift: .1 (CO A) -> .5 (CO B) and .2 (CO C) -> .6
/// (CO D) are each observed twice. The only separation evidence is
/// between CO-mates of the near end of the first pair and the far end of
/// the second: .3 (also A) before .5, and .2 before .7 (also D). Only
/// endpoints whose own rDNS did not name their CO inherit it.
AdjacencyResult prune_with_lifted_separation(bool from_rdns) {
  const auto corpus = corpus_of({
      {"10.0.0.1", "10.0.0.5"},
      {"10.0.0.1", "10.0.0.5"},
      {"10.0.0.2", "10.0.0.6"},
      {"10.0.0.2", "10.0.0.6"},
  });
  auto map = map_of({{"10.0.0.1", "A", "r1", false},
                     {"10.0.0.3", "A", "r1", false},
                     {"10.0.0.5", "B", "r1", false},
                     {"10.0.0.2", "C", "r1", false},
                     {"10.0.0.6", "D", "r1", false},
                     {"10.0.0.7", "D", "r1", false}});
  for (const char* endpoint : {"10.0.0.1", "10.0.0.6"}) {
    auto annotation = *map.get(ip(endpoint));
    annotation.from_rdns = from_rdns;
    map.set(ip(endpoint), annotation);
  }
  const AddressPairSet separated{
      {ip("10.0.0.3"), ip("10.0.0.5")}, {ip("10.0.0.2"), ip("10.0.0.7")}};
  return prune(corpus, map, separated);
}

TEST(Pruning, MplsSeparationLiftsToTheCoOfAnUnnamedEndpoint) {
  const auto result = prune_with_lifted_separation(false);
  // Near end .1 is separated through (A, .5); far end .6 through
  // (.2, D).
  EXPECT_EQ(result.stats.co_adj_mpls, 2u);
  EXPECT_EQ(result.stats.ip_adj_mpls, 2u);
  for (const auto& [name, graph] : result.regions) {
    EXPECT_FALSE(graph.has_edge("A", "B"));
    EXPECT_FALSE(graph.has_edge("C", "D"));
  }
}

TEST(Pruning, MplsSeparationDoesNotLiftToAnRdnsNamedEndpoint) {
  const auto result = prune_with_lifted_separation(true);
  EXPECT_EQ(result.stats.co_adj_mpls, 0u);
  EXPECT_EQ(result.stats.ip_adj_mpls, 0u);
  ASSERT_TRUE(result.regions.contains("r1"));
  EXPECT_TRUE(result.regions.at("r1").has_edge("A", "B"));
  EXPECT_TRUE(result.regions.at("r1").has_edge("C", "D"));
}

TEST(Pruning, SeparatedPairsComputedOverRespondingHops) {
  const auto followups = corpus_of({
      {"10.0.0.1", "10.0.0.2", "10.0.0.3"},
      {"10.0.0.9", "*", "10.0.0.8"},  // a silent hop is NOT separation
  });
  const auto separated = separated_pairs(followups);
  EXPECT_TRUE(separated.contains({ip("10.0.0.1"), ip("10.0.0.3")}));
  EXPECT_FALSE(separated.contains({ip("10.0.0.1"), ip("10.0.0.2")}));
  EXPECT_FALSE(separated.contains({ip("10.0.0.9"), ip("10.0.0.8")}));
}

// ---------------------------------------------------------------------
// Refinement fixtures. The refine kernels run on CsrGraph; fixtures are
// written as RegionalGraphs and round-trip through CSR the way
// refine_regions does.
// ---------------------------------------------------------------------

template <typename Kernel>
void on_csr(RegionalGraph& graph, Kernel kernel) {
  auto csr = CsrGraph::from_regional(graph);
  kernel(csr);
  auto rebuilt = csr.to_regional();
  rebuilt.backbone_entries = std::move(graph.backbone_entries);
  rebuilt.region_entries = std::move(graph.region_entries);
  graph = std::move(rebuilt);
}

void identify_aggs(RegionalGraph& graph) {
  on_csr(graph, [](CsrGraph& csr) { identify_agg_cos(csr); });
}

RegionalGraph star_graph() {
  // Two AggCOs serving e1..e4 (dual star), plus a false edge e1->e2.
  RegionalGraph graph;
  graph.region = "r";
  for (const char* e : {"e1", "e2", "e3", "e4"}) {
    graph.add_edge("agg1", e, 5);
    graph.add_edge("agg2", e, 5);
  }
  graph.add_edge("e1", "e2", 3);
  return graph;
}

TEST(RegionalGraphOps, RemoveEdgeDropsFullyIsolatedNodes) {
  // Regression: remove_edge used to leave orphaned nodes behind in cos,
  // overcounting post-pruning node totals (§5.3 EdgeCO accounting).
  RegionalGraph graph;
  graph.add_edge("agg", "e1", 2);
  graph.add_edge("agg", "e2", 2);
  graph.agg_cos.insert("agg");
  graph.remove_edge("agg", "e2");
  EXPECT_FALSE(graph.cos.contains("e2"));  // fully isolated: dropped
  EXPECT_TRUE(graph.cos.contains("e1"));
  EXPECT_TRUE(graph.cos.contains("agg"));
  // Removing the last edge orphans both endpoints.
  graph.remove_edge("agg", "e1");
  EXPECT_TRUE(graph.cos.empty());
  EXPECT_TRUE(graph.agg_cos.empty());
  EXPECT_EQ(graph.edge_count(), 0u);
  // Removing a non-existent edge is a no-op.
  graph.remove_edge("agg", "e1");
  EXPECT_TRUE(graph.cos.empty());
}

TEST(RegionalGraphOps, RemoveEdgeKeepsNodesWithRemainingEdges) {
  // A node that stays reachable through any direction survives.
  RegionalGraph graph;
  graph.add_edge("a", "b", 1);
  graph.add_edge("b", "c", 1);
  graph.remove_edge("a", "b");
  EXPECT_FALSE(graph.cos.contains("a"));  // lost its only edge
  EXPECT_TRUE(graph.cos.contains("b"));   // still has b -> c
  EXPECT_TRUE(graph.cos.contains("c"));
}

TEST(Refine, AggCosIdentifiedByOutDegree) {
  auto graph = star_graph();
  identify_aggs(graph);
  EXPECT_EQ(graph.agg_cos, (std::set<std::string>{"agg1", "agg2"}));
}

TEST(Refine, EdgeToEdgeEdgesRemoved) {
  auto graph = star_graph();
  identify_aggs(graph);
  RefineStats stats;
  on_csr(graph, [&](CsrGraph& csr) { remove_edge_to_edge(csr, stats); });
  EXPECT_FALSE(graph.has_edge("e1", "e2"));
  EXPECT_EQ(stats.edge_edges_removed, 1u);
}

TEST(Refine, SmallAggregatorsSurviveEdgeRemoval) {
  // e1 feeds two COs that nothing else serves: a genuine small AggCO.
  auto graph = star_graph();
  graph.add_edge("e1", "x1", 4);
  graph.add_edge("e1", "x2", 4);
  identify_aggs(graph);
  ASSERT_FALSE(graph.agg_cos.contains("e1"));
  RefineStats stats;
  on_csr(graph, [&](CsrGraph& csr) { remove_edge_to_edge(csr, stats); });
  EXPECT_TRUE(graph.has_edge("e1", "x1"));
  EXPECT_TRUE(graph.has_edge("e1", "x2"));
  EXPECT_EQ(stats.small_aggs_kept, 1u);
}

TEST(Refine, RingPairCompletionAddsMissingEdges) {
  RegionalGraph graph;
  graph.region = "r";
  for (const char* e : {"e1", "e2", "e3", "e4"}) graph.add_edge("agg1", e, 5);
  for (const char* e : {"e1", "e2", "e3"}) graph.add_edge("agg2", e, 5);
  // agg2 misses e4 (missing rDNS); 3/4 overlap pairs them (§5.2.4).
  identify_aggs(graph);
  RefineStats stats;
  on_csr(graph, [&](CsrGraph& csr) { complete_ring_pairs(csr, stats); });
  EXPECT_TRUE(graph.has_edge("agg2", "e4"));
  EXPECT_EQ(stats.ring_edges_added, 1u);
}

TEST(Refine, RelaxedRingRulePairsAggCosTheMainRuleMisses) {
  // agg_a's 4 EdgeCOs are 3/4 inside agg_b's 9, but the overlap covers
  // less than half of agg_b's: only the relaxed rule (B.3) pairs them.
  RegionalGraph graph;
  graph.region = "r";
  for (const char* e : {"e1", "e2", "e3", "e4"}) graph.add_edge("agg_a", e, 5);
  for (const char* e : {"e1", "e2", "e3", "f1", "f2", "f3", "f4", "f5", "f6"})
    graph.add_edge("agg_b", e, 5);
  identify_aggs(graph);
  ASSERT_EQ(graph.agg_cos, (std::set<std::string>{"agg_a", "agg_b"}));
  RefineStats stats;
  on_csr(graph, [&](CsrGraph& csr) { complete_ring_pairs(csr, stats); });
  EXPECT_TRUE(graph.has_edge("agg_b", "e4"));
  EXPECT_TRUE(graph.has_edge("agg_a", "f6"));
  EXPECT_EQ(stats.ring_edges_added, 7u);  // e4 for agg_b, f1..f6 for agg_a
}

TEST(Refine, UnrelatedAggCosAreNotCompleted) {
  RegionalGraph graph;
  graph.region = "r";
  for (const char* e : {"e1", "e2", "e3", "e4"}) graph.add_edge("agg1", e, 5);
  for (const char* e : {"f1", "f2", "f3", "f4"}) graph.add_edge("agg2", e, 5);
  identify_aggs(graph);
  RefineStats stats;
  on_csr(graph, [&](CsrGraph& csr) { complete_ring_pairs(csr, stats); });
  EXPECT_EQ(stats.ring_edges_added, 0u);
  EXPECT_FALSE(graph.has_edge("agg1", "f1"));
}

TEST(Refine, EntryPointsNeedConsecutiveCorroboratedTriplets) {
  const auto corpus = corpus_of({
      // Twice: bb -> agg -> edge (a real entry).
      {"10.0.1.1", "10.0.0.1", "10.0.0.5"},
      {"10.0.1.1", "10.0.0.1", "10.0.0.9"},
      // A gap between bb2 and the region: no entry inferred.
      {"10.0.2.1", "*", "10.0.0.1", "10.0.0.5"},
      {"10.0.2.1", "*", "10.0.0.1", "10.0.0.9"},
      // A single-shot anomaly from bb3.
      {"10.0.3.1", "10.0.0.1", "10.0.0.5"},
  });
  const auto map = map_of({{"10.0.1.1", "BB1", "", true},
                           {"10.0.2.1", "BB2", "", true},
                           {"10.0.3.1", "BB3", "", true},
                           {"10.0.0.1", "AGG", "r", false},
                           {"10.0.0.5", "E1", "r", false},
                           {"10.0.0.9", "E2", "r", false}});
  std::map<std::string, RegionalGraph> regions;
  regions["r"].region = "r";
  infer_entry_points(CorpusIndex::build(corpus), map, regions);
  const auto& entries = regions.at("r").backbone_entries;
  EXPECT_TRUE(entries.contains("BB1"));
  EXPECT_FALSE(entries.contains("BB2"));
  EXPECT_FALSE(entries.contains("BB3"));
}

TEST(Refine, EntryNeedsOnlyTwoDownstreamCos) {
  // A repeated bb -> agg -> e1 reaches two region COs (agg, e1): the
  // least corroboration s5.2.5 accepts.
  const auto corpus = corpus_of({
      {"10.0.1.1", "10.0.0.1", "10.0.0.5"},
      {"10.0.1.1", "10.0.0.1", "10.0.0.5"},
  });
  const auto map = map_of({{"10.0.1.1", "BB1", "", true},
                           {"10.0.0.1", "AGG", "r", false},
                           {"10.0.0.5", "E1", "r", false}});
  std::map<std::string, RegionalGraph> regions;
  regions["r"].region = "r";
  infer_entry_points(CorpusIndex::build(corpus), map, regions);
  const auto& entries = regions.at("r").backbone_entries;
  ASSERT_TRUE(entries.contains("BB1"));
  EXPECT_EQ(entries.at("BB1"), (std::set<std::string>{"AGG"}));
}

TEST(Refine, ForeignRegionEntriesAreRecordedSeparately) {
  const auto corpus = corpus_of({
      {"10.0.1.1", "10.0.0.1", "10.0.0.5"},
      {"10.0.1.1", "10.0.0.1", "10.0.0.9"},
  });
  const auto map = map_of({{"10.0.1.1", "MAGG", "boston", false},
                           {"10.0.0.1", "CTAGG", "ct", false},
                           {"10.0.0.5", "E1", "ct", false},
                           {"10.0.0.9", "E2", "ct", false}});
  std::map<std::string, RegionalGraph> regions;
  regions["ct"].region = "ct";
  infer_entry_points(CorpusIndex::build(corpus), map, regions);
  ASSERT_TRUE(regions.at("ct").region_entries.contains("MAGG"));
  EXPECT_EQ(regions.at("ct").region_entries.at("MAGG").first, "boston");
  EXPECT_TRUE(regions.at("ct").backbone_entries.empty());
}

TEST(Refine, EntryKindComesFromTheTripletSeenLastInCorpusOrder) {
  // One entry CO answers from two addresses whose rDNS disagrees: one
  // names it a backbone router, the other a router of region "boston".
  // The triplet with the highest last_seq decides the entry's kind, in
  // either address order.
  const auto corpus = corpus_of({
      {"10.0.1.2", "10.0.0.1", "10.0.0.5"},  // X as backbone (earlier)
      {"10.0.1.1", "10.0.0.1", "10.0.0.5"},  // X as boston (later)
      {"10.0.2.1", "10.0.0.1", "10.0.0.5"},  // Y as boston (earlier)
      {"10.0.2.2", "10.0.0.1", "10.0.0.5"},  // Y as backbone (later)
  });
  const auto map = map_of({{"10.0.1.1", "X", "boston", false},
                           {"10.0.1.2", "X", "", true},
                           {"10.0.2.1", "Y", "boston", false},
                           {"10.0.2.2", "Y", "", true},
                           {"10.0.0.1", "AGG", "r", false},
                           {"10.0.0.5", "E1", "r", false}});
  std::map<std::string, RegionalGraph> regions;
  regions["r"].region = "r";
  obs::ProvenanceLog provenance;
  infer_entry_points(CorpusIndex::build(corpus), map, regions, &provenance);
  const auto& graph = regions.at("r");
  // X: the later triplet is first in address order.
  ASSERT_TRUE(graph.region_entries.contains("X"));
  EXPECT_EQ(graph.region_entries.at("X").first, "boston");
  EXPECT_FALSE(graph.backbone_entries.contains("X"));
  // Y: the later triplet is last in address order.
  EXPECT_TRUE(graph.backbone_entries.contains("Y"));
  EXPECT_FALSE(graph.region_entries.contains("Y"));
  // The provenance rule follows the same choice.
  const auto& rules = provenance.rule_counts();
  ASSERT_TRUE(rules.contains("entry.region"));
  ASSERT_TRUE(rules.contains("entry.backbone"));
  EXPECT_EQ(rules.at("entry.region").kept, 1u);
  EXPECT_EQ(rules.at("entry.backbone").kept, 1u);
}

// ---------------------------------------------------------------------
// Classification fixtures (Table 1).
// ---------------------------------------------------------------------

TEST(Classify, SingleTwoAndMultiLevel) {
  RegionalGraph single;
  for (const char* e : {"e1", "e2", "e3"}) single.add_edge("agg", e, 2);
  identify_aggs(single);
  EXPECT_EQ(classify_region(single), AggregationType::kSingleAgg);

  auto dual = star_graph();
  dual.remove_edge("e1", "e2");
  identify_aggs(dual);
  EXPECT_EQ(classify_region(dual), AggregationType::kTwoAggs);

  // Multi-level: a top pair feeding a lower AggCO pair, each layer with
  // enough fan-out to clear the mean+sigma threshold.
  RegionalGraph multi;
  for (const char* e : {"e1", "e2", "e3", "e4", "e5", "e6"}) {
    multi.add_edge("agg1", e, 5);
    multi.add_edge("agg2", e, 5);
  }
  for (const char* a : {"agg1", "agg2"}) {
    multi.add_edge("top1", a, 5);
    multi.add_edge("top2", a, 5);
  }
  for (const char* e : {"t1", "t2", "t3", "t4"}) {
    multi.add_edge("top1", e, 5);
    multi.add_edge("top2", e, 5);
  }
  identify_aggs(multi);
  EXPECT_EQ(classify_region(multi), AggregationType::kMultiLevel);
}

TEST(Redundancy, CountsSingleUpstreamAndChains) {
  auto graph = star_graph();
  graph.remove_edge("e1", "e2");
  graph.remove_edge("agg2", "e4");  // e4: single upstream via agg
  graph.add_edge("e3", "c1", 2);    // a chained CO
  graph.add_edge("e3", "c2", 2);    // (kept: small aggregator)
  identify_aggs(graph);
  const auto stats = redundancy_of(graph);
  EXPECT_EQ(stats.agg_cos, 2);
  EXPECT_EQ(stats.edge_cos, 6);        // e1..e4, c1, c2
  EXPECT_EQ(stats.single_upstream, 3); // e4, c1, c2
  EXPECT_EQ(stats.single_via_edge, 2); // c1, c2 hang off e3
}

// ---------------------------------------------------------------------
// Corpus persistence.
// ---------------------------------------------------------------------

TEST(CorpusIo, RoundTripsTracesIncludingGaps) {
  auto corpus = corpus_of({{"10.0.0.1", "*", "10.0.0.5"},
                           {"10.0.0.9", "10.0.0.13"}});
  corpus.traces[0].vp = "vp with spaces";
  corpus.traces[0].hops[0].rtt_ms = 12.3456;
  corpus.traces[0].hops[0].reply_ttl = 253;
  std::stringstream buffer;
  write_corpus(buffer, corpus);
  const auto loaded = read_corpus(buffer);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->traces.size(), 2u);
  EXPECT_EQ(loaded->traces[0].vp, "vp_with_spaces");
  EXPECT_EQ(loaded->traces[0].dst, ip("10.0.0.5"));
  ASSERT_EQ(loaded->traces[0].hops.size(), 3u);
  EXPECT_FALSE(loaded->traces[0].hops[1].responded());
  EXPECT_NEAR(loaded->traces[0].hops[0].rtt_ms, 12.3456, 1e-3);
  EXPECT_EQ(loaded->traces[0].hops[0].reply_ttl, 253);
  EXPECT_TRUE(loaded->traces[1].reached);
}

TEST(CorpusIo, RejectsMalformedInputWithLineNumbers) {
  std::string error;
  {
    std::stringstream bad{"H 1 10.0.0.1 0.5 60\n"};
    EXPECT_FALSE(read_corpus(bad, &error).has_value());
    EXPECT_NE(error.find("line 1"), std::string::npos);
  }
  {
    std::stringstream bad{"T vp 10.0.0.1 1\nH x 10.0.0.1 0.5 60\n"};
    EXPECT_FALSE(read_corpus(bad, &error).has_value());
    EXPECT_NE(error.find("line 2"), std::string::npos);
  }
  {
    std::stringstream bad{"Z what\n"};
    EXPECT_FALSE(read_corpus(bad, &error).has_value());
  }
}

TEST(CorpusIo, RdnsRoundTrip) {
  dns::RdnsDb db;
  db.add(ip("10.0.0.1"), "agg1.boston.ma.boston.comcast.net");
  db.add(ip("10.0.0.2"), "cr1.sd2ca.ip.att.net");
  std::stringstream buffer;
  write_rdns(buffer, db);
  const auto loaded = read_rdns(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_EQ(loaded->lookup(ip("10.0.0.2")), "cr1.sd2ca.ip.att.net");
  std::stringstream bad{"R notanip name\n"};
  std::string error;
  EXPECT_FALSE(read_rdns(bad, &error).has_value());
}

TEST(CorpusIo, PipelineResultsSurviveTheRoundTrip) {
  // Adjacency extraction over a reloaded corpus matches the original.
  const auto corpus = corpus_of({{"10.0.0.1", "10.0.0.5", "10.0.0.9"},
                                 {"10.0.0.1", "10.0.0.5", "10.0.0.9"}});
  std::stringstream buffer;
  write_corpus(buffer, corpus);
  const auto loaded = read_corpus(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(consecutive_pairs(corpus), consecutive_pairs(*loaded));
}

// ---------------------------------------------------------------------
// Resilience fixtures (§8 extension).
// ---------------------------------------------------------------------

TEST(Resilience, DualStarSurvivesAnySingleAggFailure) {
  auto graph = star_graph();
  graph.remove_edge("e1", "e2");
  identify_aggs(graph);
  graph.backbone_entries["bb1"] = {"agg1", "agg2"};
  const auto report = analyze_resilience(graph);
  EXPECT_EQ(report.edge_cos, 4);
  EXPECT_EQ(report.single_points_of_failure, 0);
  EXPECT_DOUBLE_EQ(report.worst_blast_radius, 0.0);
  EXPECT_DOUBLE_EQ(report.single_failure_coverage, 1.0);
}

TEST(Resilience, SingleAggRegionHasTotalBlastRadius) {
  RegionalGraph graph;
  graph.region = "r";
  for (const char* e : {"e1", "e2", "e3", "e4"}) graph.add_edge("agg", e, 3);
  identify_aggs(graph);
  graph.backbone_entries["bb1"] = {"agg"};
  const auto report = analyze_resilience(graph);
  EXPECT_EQ(report.single_points_of_failure, 1);
  EXPECT_DOUBLE_EQ(report.worst_blast_radius, 1.0);
  ASSERT_FALSE(report.impacts.empty());
  EXPECT_EQ(report.impacts[0].co, "agg");
  EXPECT_TRUE(report.impacts[0].is_agg);
}

TEST(Resilience, ChainedEdgeCoIsStrandedByItsParent) {
  auto graph = star_graph();
  graph.remove_edge("e1", "e2");
  graph.add_edge("e3", "c1", 2);
  graph.add_edge("e3", "c2", 2);
  identify_aggs(graph);
  graph.backbone_entries["bb1"] = {"agg1", "agg2"};
  const auto report = analyze_resilience(graph);
  // e3's failure strands c1 and c2; nothing else is a SPOF.
  ASSERT_EQ(report.single_points_of_failure, 1);
  EXPECT_EQ(report.impacts[0].co, "e3");
  EXPECT_EQ(report.impacts[0].edge_cos_disconnected, 2);
}

TEST(Resilience, FallsBackToParentlessAggsWithoutEntries) {
  auto graph = star_graph();
  graph.remove_edge("e1", "e2");
  identify_aggs(graph);
  const auto report = analyze_resilience(graph);  // no entries recorded
  EXPECT_EQ(report.entries, 0);
  EXPECT_EQ(report.single_points_of_failure, 0);
}

}  // namespace
}  // namespace ran::infer
