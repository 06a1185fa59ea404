// Observability subsystem tests: registry exactness under the campaign
// thread pool, histogram bucket geometry, stage-tree nesting, and the two
// determinism contracts the manifest makes — byte-stable JSON across
// thread counts, and zero feedback from instrumentation into inference.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <cstddef>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

#include "core/att_pipeline.hpp"
#include "core/cable_pipeline.hpp"
#include "core/corpus_io.hpp"
#include "core/export.hpp"
#include "core/mobile_pipeline.hpp"
#include "dnssim/rdns.hpp"
#include "netbase/json.hpp"
#include "netbase/report.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/per_thread.hpp"
#include "obs/trace.hpp"
#include "probe/campaign.hpp"
#include "topogen/profiles.hpp"
#include "vantage/vps.hpp"

namespace ran::obs {
namespace {

// The unified study surface the three pipelines share.
static_assert(infer::StudyLike<infer::CableStudy>);
static_assert(infer::StudyLike<infer::AttRegionStudy>);
static_assert(infer::StudyLike<infer::MobileStudy>);

TEST(Registry, CountersAreExactUnderConcurrentIncrements) {
  Registry registry;
  auto& total = registry.counter("test.total");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, &total] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        total.inc();
        // Concurrent lookup of the same and of fresh names must not
        // invalidate previously returned references.
        registry.counter("test.total").inc();
        registry.histogram("test.hist").observe(i & 0xff);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(total.value(), 2 * kThreads * kPerThread);
  EXPECT_EQ(registry.histogram("test.hist").count(), kThreads * kPerThread);
}

TEST(Registry, CountersAreExactUnderParallelFor) {
  Registry registry;
  auto& hits = registry.counter("pf.hits");
  probe::parallel_for(10000, 8, [&](std::size_t) { hits.inc(); });
  EXPECT_EQ(hits.value(), 10000u);
}

TEST(Histogram, BucketEdgesArePowersOfTwo) {
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(7), 3);
  EXPECT_EQ(Histogram::bucket_of(8), 4);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64);
  EXPECT_EQ(Histogram::bucket_lower_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_lower_bound(1), 1u);
  EXPECT_EQ(Histogram::bucket_lower_bound(4), 8u);
  for (int b = 1; b < Histogram::kBuckets; ++b) {
    const auto lo = Histogram::bucket_lower_bound(b);
    EXPECT_EQ(Histogram::bucket_of(lo), b) << b;
    EXPECT_EQ(Histogram::bucket_of(lo - 1), b - 1) << b;
  }
}

TEST(Histogram, CountSumAndBucketsTrackObservations) {
  Histogram hist;
  for (const std::uint64_t v : {0u, 1u, 2u, 3u, 1000u}) hist.observe(v);
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_EQ(hist.sum(), 1006u);
  EXPECT_EQ(hist.bucket_count(0), 1u);   // 0
  EXPECT_EQ(hist.bucket_count(1), 1u);   // 1
  EXPECT_EQ(hist.bucket_count(2), 2u);   // 2, 3
  EXPECT_EQ(hist.bucket_count(10), 1u);  // 1000 in [512, 1024)
}

TEST(Histogram, MeanOfEmptyHistogramIsZeroNotNaN) {
  // An empty histogram's sum/count would be 0/0; the mean that reaches
  // manifest JSON must be a finite number.
  Histogram hist;
  MetricsSnapshot::HistogramData data{hist.count(), hist.sum(), {}};
  EXPECT_DOUBLE_EQ(data.mean(), 0.0);
  hist.observe(10);
  hist.observe(20);
  data = {hist.count(), hist.sum(), {}};
  EXPECT_DOUBLE_EQ(data.mean(), 15.0);
}

TEST(Histogram, PercentileOfEmptyHistogramIsZeroNotNaN) {
  // 0/0 rank arithmetic must never leak a NaN into manifest JSON.
  const MetricsSnapshot::HistogramData empty{0, 0, {}};
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    const double p = empty.percentile(q);
    EXPECT_TRUE(std::isfinite(p)) << "q=" << q;
    EXPECT_DOUBLE_EQ(p, 0.0) << "q=" << q;
  }
}

TEST(Histogram, PercentileOfSingleSampleIsTheSampleItself) {
  // One observation is known exactly (it IS the sum); interpolating
  // inside its power-of-two bucket would report e.g. ~768 for 1000.
  Histogram hist;
  hist.observe(1000);
  MetricsSnapshot::HistogramData data{hist.count(), hist.sum(), {}};
  for (int b = 0; b < Histogram::kBuckets; ++b)
    if (hist.bucket_count(b) > 0)
      data.buckets.emplace_back(Histogram::bucket_lower_bound(b),
                                hist.bucket_count(b));
  for (const double q : {0.0, 0.5, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(data.percentile(q), 1000.0) << "q=" << q;
}

TEST(Histogram, PercentileClampsOutOfRangeQuantiles) {
  Histogram hist;
  hist.observe(4);
  hist.observe(6);
  MetricsSnapshot::HistogramData data{hist.count(), hist.sum(), {}};
  for (int b = 0; b < Histogram::kBuckets; ++b)
    if (hist.bucket_count(b) > 0)
      data.buckets.emplace_back(Histogram::bucket_lower_bound(b),
                                hist.bucket_count(b));
  EXPECT_TRUE(std::isfinite(data.percentile(-1.0)));
  EXPECT_TRUE(std::isfinite(data.percentile(2.0)));
  EXPECT_LE(data.percentile(-1.0), data.percentile(2.0));
}

TEST(JsonWriter, NonFiniteDoublesSerializeAsNull) {
  // JSON has no NaN/Infinity literals; a bare "nan" token would make the
  // whole manifest unparseable for every downstream consumer.
  net::JsonWriter json;
  json.begin_object();
  json.key("nan").value(std::nan(""));
  json.key("inf").value(std::numeric_limits<double>::infinity());
  json.key("ninf").value(-std::numeric_limits<double>::infinity());
  json.key("finite").value(1.5);
  json.end_object();
  EXPECT_EQ(json.str(),
            "{\n  \"nan\": null,\n  \"inf\": null,\n  \"ninf\": null,\n"
            "  \"finite\": 1.5\n}");
}

TEST(JsonEscape, ControlAndHighBitBytesSurviveEscaping) {
  EXPECT_EQ(net::json_escape("a\x01z"), "a\\u0001z");
  EXPECT_EQ(net::json_escape("tab\tnl\n"), "tab\\tnl\\n");
  // Bytes >= 0x80 are signed-negative char; without the unsigned-char
  // cast they compared < 0x20 and rendered as ￿ffXX garbage.
  EXPECT_EQ(net::json_escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(StageTree, TimersNestIntoTheTreeInLifoOrder) {
  Registry registry;
  {
    StageTimer outer{&registry, "outer"};
    outer.add_items(1);
    {
      StageTimer inner{&registry, "inner"};
      inner.add_items(2);
    }
    { StageTimer sibling{&registry, "sibling"}; }
  }
  { StageTimer second{&registry, "second"}; }
  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.stages.children.size(), 2u);
  const auto& outer = snapshot.stages.children[0];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.items, 1u);
  ASSERT_EQ(outer.children.size(), 2u);
  EXPECT_EQ(outer.children[0].name, "inner");
  EXPECT_EQ(outer.children[0].items, 2u);
  EXPECT_EQ(outer.children[1].name, "sibling");
  EXPECT_EQ(snapshot.stages.children[1].name, "second");
}

TEST(StageTree, NullRegistryTimersAreNoOps) {
  StageTimer timer{nullptr, "nothing"};
  timer.add_items(7);
  timer.stop();  // must not crash
}

TEST(StageTree, OutOfOrderCloseViolatesPrecondition) {
  Registry registry;
  auto* outer = registry.begin_stage("outer");
  (void)registry.begin_stage("inner");
  EXPECT_DEATH(registry.end_stage(outer, 0, 0.0), "Precondition");
}

// ---------------------------------------------------------------------
// PerThread: the buffer registry under Log, Tracer and FlightRecorder
// ---------------------------------------------------------------------

/// (tid, contents) of every buffer, in for_each order.
template <typename Buffer>
std::vector<std::pair<std::uint32_t, Buffer>> snapshot(
    const PerThread<Buffer>& owner) {
  std::vector<std::pair<std::uint32_t, Buffer>> out;
  owner.for_each(
      [&out](std::uint32_t tid, const Buffer& buffer) {
        out.emplace_back(tid, buffer);
      });
  return out;
}

TEST(PerThread, OneBufferPerThreadAndOwnerWithTidsInRegistrationOrder) {
  PerThread<std::vector<int>> a;
  PerThread<std::vector<int>> b;
  int inits = 0;
  const auto count_init = [&inits](std::vector<int>&) { ++inits; };
  a.local(count_init).push_back(0);
  for (int t = 1; t <= 3; ++t)
    std::thread([&, t] {
      a.local(count_init).push_back(t);
      b.local().push_back(t);
      a.local(count_init).push_back(t);
    }).join();
  a.local(count_init).push_back(0);  // the first thread's buffer again
  using Rows = std::vector<std::pair<std::uint32_t, std::vector<int>>>;
  EXPECT_EQ(snapshot(a), (Rows{{1, {0, 0}}, {2, {1, 1}}, {3, {2, 2}},
                               {4, {3, 3}}}));
  EXPECT_EQ(snapshot(b), (Rows{{1, {1}}, {2, {2}}, {3, {3}}}));
  EXPECT_EQ(inits, 4);  // once per registration, never on a cache hit
}

TEST(PerThread, NewOwnerAtADeadOwnersAddressSeesNoStaleBuffer) {
  // Both owners are constructed in the same storage, so the second one
  // sits at the dead one's address by construction.
  using Owner = PerThread<std::vector<int>>;
  alignas(Owner) std::byte storage[sizeof(Owner)];
  auto* dead = new (storage) Owner;
  dead->local().push_back(1);
  dead->~Owner();
  auto* owner = new (storage) Owner;
  EXPECT_TRUE(owner->local().empty());
  using Rows = std::vector<std::pair<std::uint32_t, std::vector<int>>>;
  EXPECT_EQ(snapshot(*owner), (Rows{{1, {}}}));
  owner->~Owner();
}

TEST(PerThread, ThreadsTouchingMoreOwnersThanTheCacheKeepOneBufferEach) {
  // Four threads round-robin over more owners than the per-thread cache
  // holds, so every visit misses and looks the thread's slot up again
  // under the owner's lock while other threads register.
  constexpr std::size_t kOwners = PerThread<int>::kCacheSize + 16;
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::unique_ptr<PerThread<int>>> owners;
  for (std::size_t i = 0; i < kOwners; ++i)
    owners.push_back(std::make_unique<PerThread<int>>());
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&owners] {
      for (int round = 0; round < kRounds; ++round)
        for (auto& owner : owners) ++owner->local();
    });
  for (auto& worker : workers) worker.join();
  for (const auto& owner : owners) {
    const auto rows = snapshot(*owner);
    ASSERT_EQ(rows.size(), static_cast<std::size_t>(kThreads));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].first, i + 1);
      EXPECT_EQ(rows[i].second, kRounds);
    }
  }
}

TEST(PerThread, TracerSpanSurvivesMoreLiveTracersThanTheCache) {
  // A B event, one instant on each of 64 other live tracers (evicting
  // the first tracer from the thread's cache), then the matching E: both
  // must land on one track, or per-thread B/E nesting breaks.
  std::vector<std::unique_ptr<Tracer>> tracers;
  for (std::size_t i = 0; i <= PerThread<int>::kCacheSize; ++i)
    tracers.push_back(std::make_unique<Tracer>());
  tracers[0]->begin("outer");
  for (std::size_t i = 1; i < tracers.size(); ++i)
    tracers[i]->instant("other");
  tracers[0]->end("outer");
  const auto json = tracers[0]->to_chrome_json();
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_EQ(json.find("\"tid\":2"), std::string::npos) << json;
}

TEST(PerThread, LogDedupSurvivesMoreLiveLogsThanTheCache) {
  std::vector<std::unique_ptr<Log>> logs;
  for (std::size_t i = 0; i <= PerThread<int>::kCacheSize; ++i)
    logs.push_back(std::make_unique<Log>());
  logs[0]->info("test.dedup", "same message");
  for (std::size_t i = 1; i < logs.size(); ++i)
    logs[i]->info("test.dedup", "same message");
  logs[0]->info("test.dedup", "same message");
  const auto records = logs[0]->merged();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].repeats, 2u);
  EXPECT_EQ(records[0].tid, 1u);
}

TEST(Manifest, JsonCarriesConfigSummaryAndMetrics) {
  Registry registry;
  registry.counter("a.count").inc(3);
  registry.gauge("a.ratio").set(0.5);
  registry.histogram("a.hist").observe(5);
  registry.volatile_gauge("a.speed").set(123.0);
  { StageTimer stage{&registry, "phase1"}; }

  RunManifest manifest{"unit"};
  manifest.set_config("knob", std::int64_t{42});
  manifest.set_config("label", std::string{"x"});
  manifest.add_summary("corpus", "traces", std::uint64_t{7});
  manifest.capture(registry);

  const auto json = manifest.to_json();
  EXPECT_NE(json.find("\"name\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"knob\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"a.count\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"traces\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"phase1\""), std::string::npos);
  // Deterministic by default: no wall-clock, no volatile section.
  EXPECT_EQ(json.find("wall_ms"), std::string::npos);
  EXPECT_EQ(json.find("a.speed"), std::string::npos);

  const auto timed = manifest.to_json({.include_timings = true});
  EXPECT_NE(timed.find("wall_ms"), std::string::npos);
  EXPECT_NE(timed.find("\"a.speed\": 123"), std::string::npos);
  // Scaling is read from measured speedup (trace_analyze --compare), so
  // the timings carry no derived concurrency section.
  EXPECT_EQ(timed.find("\"concurrency\""), std::string::npos);
}

TEST(TextTable, ToJsonMirrorsHeaderAndRows) {
  net::TextTable table{{"region", "edges"}};
  table.add_row({"alpha", "12"});
  table.add_row({"be\"ta", "3"});
  const auto json = table.to_json();
  EXPECT_NE(json.find("\"header\""), std::string::npos);
  EXPECT_NE(json.find("\"region\""), std::string::npos);
  EXPECT_NE(json.find("\"be\\\"ta\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\""), std::string::npos);
}

TEST(CableConfig, FollowupVpsSentinelIsValidatedNotMagic) {
  EXPECT_EQ(infer::kAllVps, std::numeric_limits<int>::max());
  sim::World world{1};
  net::Rng rng{1};
  auto profile = topo::comcast_profile();
  profile.regions = {{"r", {"co"}, 6, {"denver,co", "dallas,tx"}, {}, false}};
  world.add_isp(topo::generate_cable(profile, rng));
  world.finalize();
  const auto live = dns::make_rdns(world.isp(0), {}, rng);
  infer::CablePipelineConfig config;
  config.followup_vps = 0;
  EXPECT_DEATH(infer::CablePipeline(world, 0, {&live, &live}, config),
               "Precondition");
}

// ---------------------------------------------------------------------
// End-to-end determinism: the golden contracts of the manifest.
// ---------------------------------------------------------------------

struct CableRunArtifacts {
  std::string corpus_bytes;
  std::string graphs_bytes;
  std::string manifest_json;
};

CableRunArtifacts run_cable(int parallelism, bool with_registry) {
  sim::World world{321};
  net::Rng rng{321};
  auto profile = topo::comcast_profile();
  profile.regions = {
      {"alpha", {"co"}, 14, {"denver,co", "dallas,tx"}, {}, false}};
  auto gen_rng = rng.fork();
  world.add_isp(topo::generate_cable(profile, gen_rng));
  auto vp_rng = rng.fork();
  const auto vps = vp::add_distributed_vps(world, 10, vp_rng);
  world.finalize();
  auto dns_rng = rng.fork();
  const auto live = dns::make_rdns(world.isp(0), {}, dns_rng);
  const auto snapshot = dns::age_snapshot(live, 0.02, dns_rng);

  Registry registry;
  if (with_registry) world.set_metrics(&registry);
  infer::CablePipelineConfig config;
  config.campaign.parallelism = parallelism;
  if (with_registry) config.campaign.metrics = &registry;
  const infer::CablePipeline pipeline{world, 0, {&live, &snapshot}, config};
  const auto study = pipeline.run(vps);

  CableRunArtifacts out;
  std::ostringstream corpus;
  infer::write_corpus(corpus, study.corpus());
  out.corpus_bytes = corpus.str();
  std::ostringstream graphs;
  for (const auto& [name, graph] : study.regions())
    infer::write_json(graphs, graph);
  out.graphs_bytes = graphs.str();
  out.manifest_json = study.manifest().to_json();
  return out;
}

TEST(ManifestGolden, ByteStableAcrossThreadCounts) {
  const auto serial = run_cable(1, true);
  const auto parallel = run_cable(8, true);
  EXPECT_EQ(serial.corpus_bytes, parallel.corpus_bytes);
  EXPECT_EQ(serial.graphs_bytes, parallel.graphs_bytes);
  EXPECT_EQ(serial.manifest_json, parallel.manifest_json);
  EXPECT_NE(serial.manifest_json.find("\"sweep\""), std::string::npos);
  EXPECT_NE(serial.manifest_json.find("\"b2_prune\""), std::string::npos);
}

TEST(ManifestGolden, InstrumentationDoesNotPerturbResults) {
  const auto instrumented = run_cable(2, true);
  const auto bare = run_cable(2, false);
  EXPECT_EQ(instrumented.corpus_bytes, bare.corpus_bytes);
  EXPECT_EQ(instrumented.graphs_bytes, bare.graphs_bytes);
  // Without a caller registry the run-local fallback still produces a
  // complete manifest (campaign + stages), just without the sim.world.*
  // counters only the caller's world hook adds.
  EXPECT_NE(bare.manifest_json.find("campaign.tasks"), std::string::npos);
  EXPECT_NE(bare.manifest_json.find("\"sweep\""), std::string::npos);
  EXPECT_NE(instrumented.manifest_json.find("sim.world.traces"),
            std::string::npos);
}

}  // namespace
}  // namespace ran::obs
