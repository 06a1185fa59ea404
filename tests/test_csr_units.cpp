// Unit tests for the dense-kernel building blocks in isolation: the
// string interner, the CSR graph (round-trip, tombstoning, reverse rows,
// side additions), and the one-pass corpus index (counts, transit
// accounting, sequence numbers, sorted export order).
#include <gtest/gtest.h>

#include "core/corpus_index.hpp"
#include "core/csr_graph.hpp"
#include "core/interner.hpp"
#include "core/pruning.hpp"

namespace ran::infer {
namespace {

net::IPv4Address ip(const char* text) {
  return *net::IPv4Address::parse(text);
}

// ---------------------------------------------------------------------
// Interner.
// ---------------------------------------------------------------------

TEST(Interner, AssignsDenseIdsInFirstInternOrder) {
  core::Interner interner;
  EXPECT_EQ(interner.intern("boston|ma|0"), 0u);
  EXPECT_EQ(interner.intern("denver|co|1"), 1u);
  EXPECT_EQ(interner.intern("boston|ma|0"), 0u);  // idempotent
  EXPECT_EQ(interner.size(), 2u);
  EXPECT_EQ(interner.view(0), "boston|ma|0");
  EXPECT_EQ(interner.view(1), "denver|co|1");
  EXPECT_EQ(interner.find("denver|co|1"), 1u);
  EXPECT_EQ(interner.find("absent"), core::Interner::kInvalidId);
}

TEST(Interner, ViewsSurviveArenaGrowth) {
  core::Interner interner;
  const std::string long_key(5000, 'x');  // larger than one arena block
  const auto id0 = interner.intern("first");
  const auto view0 = interner.view(id0);
  for (int i = 0; i < 64; ++i)
    interner.intern(long_key + std::to_string(i));
  EXPECT_EQ(view0, "first");  // still points at valid arena bytes
  EXPECT_GT(interner.arena_bytes(), 64u * 5000u);
}

// ---------------------------------------------------------------------
// CsrGraph.
// ---------------------------------------------------------------------

RegionalGraph diamond_graph() {
  // agg -> {e1, e2}, e1 -> e2, plus an isolated-by-construction helper
  // path through e3 so removals have something to orphan.
  RegionalGraph graph;
  graph.region = "r";
  graph.add_edge("agg", "e1", 3);
  graph.add_edge("agg", "e2", 2);
  graph.add_edge("e1", "e2", 1);
  graph.add_edge("e2", "e3", 1);
  graph.agg_cos.insert("agg");
  return graph;
}

TEST(CsrGraph, RoundTripPreservesGraph) {
  const auto graph = diamond_graph();
  const auto csr = CsrGraph::from_regional(graph);
  EXPECT_EQ(csr.node_count(), graph.cos.size());
  EXPECT_EQ(csr.edge_count(), graph.edge_count());
  auto rebuilt = csr.to_regional();
  EXPECT_EQ(rebuilt.region, graph.region);
  EXPECT_EQ(rebuilt.cos, graph.cos);
  EXPECT_EQ(rebuilt.out, graph.out);
  EXPECT_EQ(rebuilt.agg_cos, graph.agg_cos);
}

TEST(CsrGraph, IdsFollowSortedKeyOrder) {
  const auto csr = CsrGraph::from_regional(diamond_graph());
  // Sorted CO keys: agg, e1, e2, e3 -> ids 0..3.
  EXPECT_EQ(csr.id_of("agg"), 0u);
  EXPECT_EQ(csr.id_of("e1"), 1u);
  EXPECT_EQ(csr.id_of("e2"), 2u);
  EXPECT_EQ(csr.id_of("e3"), 3u);
  EXPECT_EQ(csr.key(0), "agg");
  EXPECT_EQ(csr.id_of("absent"), CsrGraph::kInvalid);
}

TEST(CsrGraph, ReverseRowsAnswerParentsOf) {
  const auto csr = CsrGraph::from_regional(diamond_graph());
  const auto e2 = csr.id_of("e2");
  const auto parents = csr.parents_of(e2);
  ASSERT_EQ(parents.size(), 2u);
  EXPECT_EQ(csr.key(parents[0]), "agg");  // ascending source ids
  EXPECT_EQ(csr.key(parents[1]), "e1");
  EXPECT_EQ(csr.in_degree(e2), 2);
  EXPECT_EQ(csr.out_degree(csr.id_of("agg")), 2);
  EXPECT_EQ(csr.in_degree(csr.id_of("agg")), 0);
}

TEST(CsrGraph, TombstoningUpdatesDegreesAndDropsOrphans) {
  auto csr = CsrGraph::from_regional(diamond_graph());
  const auto e2 = csr.id_of("e2");
  // Tombstone e2 -> e3: e3 becomes fully isolated.
  for (auto e = csr.fwd_begin(e2); e != csr.fwd_end(e2); ++e)
    if (csr.edge_to(e) == csr.id_of("e3")) csr.remove_edge(e);
  EXPECT_EQ(csr.out_degree(e2), 0);
  EXPECT_EQ(csr.in_degree(csr.id_of("e3")), 0);
  EXPECT_TRUE(csr.parents_of(csr.id_of("e3")).empty());
  const auto rebuilt = csr.to_regional();
  EXPECT_FALSE(rebuilt.cos.contains("e3"));  // orphan rule
  EXPECT_TRUE(rebuilt.cos.contains("e2"));   // still has a parent
  EXPECT_EQ(rebuilt.edge_count(), 3u);
}

TEST(CsrGraph, SideAdditionsAreVisibleAndFoldBack) {
  auto csr = CsrGraph::from_regional(diamond_graph());
  const auto e1 = csr.id_of("e1");
  const auto e3 = csr.id_of("e3");
  EXPECT_FALSE(csr.has_edge(e1, e3));
  csr.add_edge(e1, e3, 7);
  EXPECT_TRUE(csr.has_edge(e1, e3));
  EXPECT_EQ(csr.out_degree(e1), 2);
  EXPECT_EQ(csr.in_degree(e3), 2);
  csr.add_edge(e1, e3, 7);  // duplicate: ignored
  EXPECT_EQ(csr.out_degree(e1), 2);
  const auto rebuilt = csr.to_regional();
  ASSERT_TRUE(rebuilt.out.contains("e1"));
  EXPECT_EQ(rebuilt.out.at("e1").at("e3"), 7);
}

// ---------------------------------------------------------------------
// CorpusIndex.
// ---------------------------------------------------------------------

TraceCorpus corpus_of(const std::vector<std::vector<const char*>>& traces) {
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

TEST(CorpusIndex, MatchesConsecutivePairsSemantics) {
  const auto corpus = corpus_of({{"10.0.0.1", "10.0.0.5", "10.0.0.9"},
                                 {"10.0.0.1", "*", "10.0.0.9"},
                                 {"10.0.0.1", "10.0.0.5", "10.0.0.9"}});
  const auto index = CorpusIndex::build(corpus);
  const auto all = consecutive_pairs(corpus);
  std::uint64_t unique_occurrences = 0;
  for (const auto& record : index.pairs()) unique_occurrences += record.count;
  EXPECT_EQ(unique_occurrences, all.size());
  ASSERT_EQ(index.pairs().size(), 2u);  // (1->5), (5->9)
  // Exported sorted by (a, b).
  EXPECT_EQ(index.pairs()[0].a, ip("10.0.0.1"));
  EXPECT_EQ(index.pairs()[0].b, ip("10.0.0.5"));
  EXPECT_EQ(index.pairs()[0].count, 2u);
  EXPECT_EQ(index.pairs()[0].transit_count, 2u);
  // The (5 -> 9) pair is a terminal destination echo on both traces.
  EXPECT_EQ(index.pairs()[1].count, 2u);
  EXPECT_EQ(index.pairs()[1].transit_count, 0u);
  EXPECT_EQ(index.pairs()[1].last_transit_seq, 0u);
}

TEST(CorpusIndex, TracksFirstLastTraceAndSequenceNumbers) {
  const auto corpus = corpus_of({{"10.0.0.1", "10.0.0.5", "10.0.0.9"},
                                 {"10.0.0.1", "10.0.0.5", "10.0.0.9"}});
  const auto index = CorpusIndex::build(corpus);
  ASSERT_EQ(index.pairs().size(), 2u);
  const auto& first = index.pairs()[0];  // (1 -> 5), transit both times
  EXPECT_EQ(first.first_trace, 0u);
  EXPECT_EQ(first.last_trace, 1u);
  // Pair occurrences in corpus order: (1->5) seq 1, (5->9) seq 2,
  // (1->5) seq 3, (5->9) seq 4; only transit occurrences update it.
  EXPECT_EQ(first.last_transit_seq, 3u);
}

TEST(CorpusIndex, TripletsCoverConsecutiveRespondingRuns) {
  const auto corpus = corpus_of({{"10.0.0.1", "10.0.0.5", "10.0.0.9"},
                                 {"10.0.0.1", "*", "10.0.0.9"},
                                 {"10.0.0.1", "10.0.0.5", "10.0.0.13"}});
  const auto index = CorpusIndex::build(corpus);
  ASSERT_EQ(index.triplets().size(), 2u);  // gap trace contributes none
  EXPECT_EQ(index.triplets()[0].c, ip("10.0.0.9"));
  EXPECT_EQ(index.triplets()[0].count, 1u);
  EXPECT_EQ(index.triplets()[0].last_seq, 1u);
  EXPECT_EQ(index.triplets()[1].c, ip("10.0.0.13"));
  EXPECT_EQ(index.triplets()[1].last_seq, 2u);
}

TEST(CorpusIndex, HandlesGrowthPastInitialCapacity) {
  // 22000 unique pairs push the pair table (2^15 slots, 62.5% load
  // factor) through a rehash; counts and sort order must survive it.
  TraceCorpus corpus;
  for (int t = 0; t < 11000; ++t) {
    probe::TraceRecord record;
    record.vp = "t";
    for (int h = 0; h < 3; ++h) {
      const int n = t * 3 + h + 1;
      sim::Hop hop;
      hop.ttl = h + 1;
      hop.addr = net::IPv4Address{
          (10u << 24) | static_cast<std::uint32_t>(n)};
      record.hops.push_back(hop);
    }
    record.dst = record.hops.back().addr;
    record.reached = true;
    corpus.add(std::move(record));
  }
  const auto index = CorpusIndex::build(corpus);
  EXPECT_EQ(index.pairs().size(), 22000u);
  EXPECT_EQ(index.triplets().size(), 11000u);
  // Export stays sorted after rehashing, every count intact.
  for (std::size_t i = 1; i < index.pairs().size(); ++i)
    EXPECT_LT(std::pair(index.pairs()[i - 1].a, index.pairs()[i - 1].b),
              std::pair(index.pairs()[i].a, index.pairs()[i].b));
  for (const auto& record : index.pairs()) EXPECT_EQ(record.count, 1u);
}

}  // namespace
}  // namespace ran::infer
