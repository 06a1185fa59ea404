// TopologySnapshot contract tests: deterministic serialization, exact
// save()/load() round-trips (byte-identical re-serialization, DOT/JSON
// exports, and explain() transcripts — at 1 and at 8 reader threads),
// the path/latency query index in dense and on-demand modes, malformed
// input handling, and the SnapshotHub publish/read race.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/export.hpp"
#include "core/snapshot.hpp"
#include "obs/provenance.hpp"

namespace ran::infer {
namespace {

/// Two regions with every feature the format carries: aggregation,
/// entry maps, measured RTTs, and a provenance log with an elided
/// decision chain (the part record() alone could never rebuild).
std::map<std::string, RegionalGraph> fixture_regions() {
  std::map<std::string, RegionalGraph> regions;
  RegionalGraph& a = regions["springfield"];
  a.region = "springfield";
  a.add_edge("agg1", "edge1", 12);
  a.add_edge("agg1", "edge2", 9);
  a.add_edge("agg2", "edge2", 4);
  a.add_edge("agg2", "edge3", 7);
  a.add_edge("edge1", "edge2", 2);
  a.agg_cos = {"agg1", "agg2"};
  a.backbone_entries["bb1"] = {"agg1", "agg2"};
  a.region_entries["foreign1"] = {"shelbyville", {"agg1"}};
  RegionalGraph& b = regions["shelbyville"];
  b.region = "shelbyville";
  b.add_edge("hub", "spoke1", 3);
  b.add_edge("hub", "spoke2", 5);
  b.agg_cos = {"hub"};
  return regions;
}

std::shared_ptr<obs::ProvenanceLog> fixture_provenance() {
  auto log = std::make_shared<obs::ProvenanceLog>();
  log->set_decision_cap(4);
  log->add_support("agg1", "edge1", 12, "(vp1,10.0.0.1)", "(vp7,10.0.9.9)");
  log->record("agg1", "edge1", "adj.transit", true, "12 transits");
  // Overflow the cap so the reload has an elided middle to preserve.
  for (int i = 0; i < 9; ++i)
    log->record("agg1", "edge1", "refine.revisit", true,
                "pass " + std::to_string(i));
  log->record("agg1", "edge2", "adj.transit", true, "9 transits");
  log->record("edge2", "edge3", "prune.single", false, "1 observation");
  return log;
}

std::map<std::string, double> fixture_rtts() {
  return {{"agg1", 4.0}, {"edge1", 6.5}, {"edge2", 5.0}, {"agg2", 3.0}};
}

TopologySnapshot fixture_snapshot(std::uint64_t generation = 3) {
  return TopologySnapshot::build("cable", fixture_regions(),
                                 fixture_provenance(), generation,
                                 fixture_rtts());
}

/// All the byte-level artifacts a snapshot can produce.
struct Artifacts {
  std::string json;
  std::vector<std::string> dots;
  std::vector<std::string> jsons;
  std::string explains;
};

Artifacts artifacts_of(const TopologySnapshot& snapshot) {
  Artifacts out;
  out.json = snapshot.to_json();
  for (const auto& [name, region] : snapshot.regions()) {
    const auto graph = region.regional();
    std::ostringstream dot;
    write_dot(dot, graph, snapshot.provenance());
    out.dots.push_back(dot.str());
    std::ostringstream json;
    write_json(json, graph, snapshot.provenance());
    out.jsons.push_back(json.str());
  }
  if (snapshot.provenance() != nullptr) {
    out.explains += snapshot.provenance()->explain("agg1", "edge1");
    out.explains += snapshot.provenance()->explain("edge2", "edge3");
    out.explains += snapshot.provenance()->explain("absent", "edge1");
  }
  return out;
}

// ---------------------------------------------------------------------
// Round-trips.
// ---------------------------------------------------------------------

TEST(SnapshotRoundTrip, SaveLoadIsByteExact) {
  const auto original = fixture_snapshot();
  const auto before = artifacts_of(original);

  std::stringstream stream;
  original.save(stream);
  std::string error;
  const auto reloaded = TopologySnapshot::load(stream, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;

  EXPECT_EQ(reloaded->generation(), original.generation());
  EXPECT_EQ(reloaded->source(), original.source());
  EXPECT_EQ(reloaded->co_count(), original.co_count());
  EXPECT_EQ(reloaded->edge_count(), original.edge_count());

  const auto after = artifacts_of(*reloaded);
  EXPECT_EQ(after.json, before.json);
  EXPECT_EQ(after.dots, before.dots);
  EXPECT_EQ(after.jsons, before.jsons);
  EXPECT_EQ(after.explains, before.explains);
}

TEST(SnapshotRoundTrip, SecondGenerationRoundTripsToo) {
  // load(save(load(save(x)))) == save(x): the format is a fixed point.
  const auto original = fixture_snapshot(7);
  const auto first = original.to_json();
  const auto reloaded = TopologySnapshot::from_json(first);
  ASSERT_TRUE(reloaded.has_value());
  const auto again = TopologySnapshot::from_json(reloaded->to_json());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->to_json(), first);
}

TEST(SnapshotRoundTrip, ElidedProvenanceChainsSurvive) {
  const auto original = fixture_snapshot();
  ASSERT_GT(original.provenance()->dropped_decisions(), 0u);
  const auto reloaded = TopologySnapshot::from_json(original.to_json());
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->provenance()->dropped_decisions(),
            original.provenance()->dropped_decisions());
  EXPECT_EQ(reloaded->provenance()->explain("agg1", "edge1"),
            original.provenance()->explain("agg1", "edge1"));
}

TEST(SnapshotRoundTrip, NullProvenanceStaysNull) {
  const auto original = TopologySnapshot::build(
      "cable", fixture_regions(), nullptr, 1, fixture_rtts());
  const auto reloaded = TopologySnapshot::from_json(original.to_json());
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->provenance(), nullptr);
  EXPECT_EQ(reloaded->to_json(), original.to_json());
}

TEST(SnapshotRoundTrip, ByteExactUnderEightConcurrentReaders) {
  // The deeply-immutable claim, exercised: 8 threads re-serializing and
  // exporting the same snapshot concurrently all see the single-thread
  // bytes. Run under TSan this is also the data-race check.
  const auto original = fixture_snapshot();
  std::stringstream stream;
  original.save(stream);
  const auto reloaded = TopologySnapshot::load(stream);
  ASSERT_TRUE(reloaded.has_value());
  const auto expected = artifacts_of(original);

  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&] {
      for (int round = 0; round < 4; ++round) {
        const auto got = artifacts_of(*reloaded);
        if (got.json != expected.json || got.dots != expected.dots ||
            got.jsons != expected.jsons ||
            got.explains != expected.explains)
          mismatches.fetch_add(1);
      }
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------------------
// Query index.
// ---------------------------------------------------------------------

TEST(SnapshotQueries, PathsAreShortestAndLexicographicallySmallest) {
  const auto snapshot = fixture_snapshot();
  const auto* region = snapshot.find_region("springfield");
  ASSERT_NE(region, nullptr);
  const auto& g = region->graph();
  const auto id = [&](const char* key) { return g.id_of(key); };

  // edge1 -> edge3: the unique shortest route runs edge1, edge2, agg2,
  // edge3 (3 hops); the longer detour through agg1 must lose.
  const auto path = region->path(id("edge1"), id("edge3"));
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path.front(), id("edge1"));
  EXPECT_EQ(path.back(), id("edge3"));
  EXPECT_EQ(region->hop_distance(id("edge1"), id("edge3")), 3);
  // Symmetric hop counts (the adjacency is undirected).
  EXPECT_EQ(region->hop_distance(id("edge3"), id("edge1")), 3);

  // Self path.
  EXPECT_EQ(region->path(id("agg1"), id("agg1")),
            std::vector<std::uint32_t>{id("agg1")});
  EXPECT_EQ(region->hop_distance(id("agg1"), id("agg1")), 0);
}

TEST(SnapshotQueries, LatencyUsesRttDifferencesWithDefaultFallback) {
  const auto snapshot = fixture_snapshot();
  const auto* region = snapshot.find_region("springfield");
  ASSERT_NE(region, nullptr);
  const auto& g = region->graph();
  // agg1(4.0) -> edge1(6.5): |6.5 - 4.0| = 2.5.
  const auto direct = region->path(g.id_of("agg1"), g.id_of("edge1"));
  ASSERT_EQ(direct.size(), 2u);
  EXPECT_DOUBLE_EQ(region->path_latency_ms(direct), 2.5);
  // agg2(3.0) -> edge3(no RTT): the default per-hop charge.
  const auto fallback = region->path(g.id_of("agg2"), g.id_of("edge3"));
  ASSERT_EQ(fallback.size(), 2u);
  EXPECT_DOUBLE_EQ(region->path_latency_ms(fallback),
                   RegionSnapshot::kDefaultHopMs);
}

TEST(SnapshotQueries, OnDemandModeMatchesChainGroundTruth) {
  // A chain longer than kDenseIndexMaxNodes forces the on-demand BFS
  // path; distances and paths must still be exact, and a disconnected
  // island must answer kUnreachable / empty.
  RegionalGraph chain;
  chain.region = "long";
  const auto name = [](int i) {
    char buffer[16];
    std::snprintf(buffer, sizeof(buffer), "co%05d", i);
    return std::string{buffer};
  };
  const int n = static_cast<int>(RegionSnapshot::kDenseIndexMaxNodes) + 40;
  for (int i = 0; i + 1 < n; ++i) chain.add_edge(name(i), name(i + 1), 1);
  chain.add_edge("island.a", "island.b", 1);
  chain.agg_cos.insert(name(0));
  std::map<std::string, RegionalGraph> regions;
  regions.emplace("long", std::move(chain));
  const auto snapshot =
      TopologySnapshot::build("cable", regions, nullptr, 1);
  const auto* region = snapshot.find_region("long");
  ASSERT_NE(region, nullptr);
  const auto& g = region->graph();
  const auto ends = region->path(g.id_of(name(0)), g.id_of(name(n - 1)));
  EXPECT_EQ(ends.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(region->hop_distance(g.id_of(name(0)), g.id_of(name(n - 1))),
            n - 1);
  EXPECT_EQ(region->hop_distance(g.id_of(name(3)), g.id_of("island.a")),
            RegionSnapshot::kUnreachable);
  EXPECT_TRUE(region->path(g.id_of(name(3)), g.id_of("island.a")).empty());
  // And the artifact still round-trips at this size.
  const auto reloaded = TopologySnapshot::from_json(snapshot.to_json());
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->to_json(), snapshot.to_json());
}

// ---------------------------------------------------------------------
// Malformed input.
// ---------------------------------------------------------------------

TEST(SnapshotLoad, RejectsMalformedBytesWithAnExplanation) {
  for (const char* bad : {
           "",                                    // empty
           "not json at all",                     // unparseable
           "[1,2,3]",                             // wrong shape
           R"({"format":"something.else.v9"})",   // wrong format tag
           R"({"format":"ran.topology_snapshot.v1"})",  // missing fields
       }) {
    std::string error;
    const auto loaded = TopologySnapshot::from_json(bad, &error);
    EXPECT_FALSE(loaded.has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(SnapshotLoad, RejectsTruncationsOfAValidDocument) {
  const auto text = fixture_snapshot().to_json();
  for (const auto cut : {text.size() / 4, text.size() / 2,
                         text.size() - 2}) {
    const auto loaded =
        TopologySnapshot::from_json(std::string_view{text}.substr(0, cut));
    EXPECT_FALSE(loaded.has_value()) << "cut at " << cut;
  }
}

// ---------------------------------------------------------------------
// SnapshotHub.
// ---------------------------------------------------------------------

TEST(SnapshotHub, ReadersAlwaysSeeAPublishedGeneration) {
  SnapshotHub hub;
  EXPECT_EQ(hub.get(), nullptr);
  EXPECT_EQ(hub.publish_count(), 0u);

  constexpr std::uint64_t kGenerations = 50;
  std::atomic<bool> stop{false};
  std::atomic<int> bad_reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t)
    readers.emplace_back([&] {
      std::uint64_t last_seen = 0;
      while (!stop.load()) {
        const auto snapshot = hub.get();
        if (snapshot == nullptr) continue;
        // Generations are published in order; a reader may lag but
        // must never observe one going backwards between its reads.
        const auto generation = snapshot->generation();
        if (generation < last_seen || generation > kGenerations)
          bad_reads.fetch_add(1);
        last_seen = generation;
        // The pinned generation stays fully usable mid-republish.
        if (snapshot->find_region("springfield") == nullptr)
          bad_reads.fetch_add(1);
      }
    });

  for (std::uint64_t generation = 1; generation <= kGenerations;
       ++generation)
    hub.publish(std::make_shared<const TopologySnapshot>(
        fixture_snapshot(generation)));
  stop.store(true);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_EQ(hub.publish_count(), kGenerations);
  EXPECT_EQ(hub.get()->generation(), kGenerations);
}

TEST(SnapshotHub, PublishDestroysTheReplacedGenerationOutsideTheLock) {
  // Dropping the last reference to a generation can be slow (a large
  // snapshot frees its whole graph); readers must not wait for it. The
  // replaced generation's deleter asks another thread for the current
  // snapshot and waits up to a second: under the publish lock that read
  // would block until the deleter gave up.
  SnapshotHub hub;
  std::thread reader;
  std::future_status status = std::future_status::deferred;
  std::shared_ptr<const TopologySnapshot> seen;
  hub.publish(std::shared_ptr<const TopologySnapshot>(
      new TopologySnapshot(fixture_snapshot(1)),
      [&](const TopologySnapshot* replaced) {
        std::promise<std::shared_ptr<const TopologySnapshot>> read;
        auto result = read.get_future();
        reader = std::thread{[&hub, read = std::move(read)]() mutable {
          read.set_value(hub.get());
        }};
        status = result.wait_for(std::chrono::seconds(1));
        if (status == std::future_status::ready) seen = result.get();
        delete replaced;
      }));
  hub.publish(std::make_shared<const TopologySnapshot>(fixture_snapshot(2)));
  reader.join();
  EXPECT_EQ(status, std::future_status::ready);
  ASSERT_NE(seen, nullptr);
  EXPECT_EQ(seen->generation(), 2u);
}

}  // namespace
}  // namespace ran::infer
