// Tracing + provenance tests: the two halves of the explainability layer.
// Tracing is volatile (wall clock, scheduling) so the tests only assert
// structure — per-thread B/E nesting, well-formed pid/tid, deterministic
// merge of identical buffers — and that recording is race-free under the
// campaign pool (run under TSan). Provenance is deterministic, so the
// tests assert the strong contracts: explain() is byte-stable at any
// campaign thread count, and per-rule kept/removed totals exactly equal
// the PruningStats / RefineStats counters of Tables 4/5.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/cable_pipeline.hpp"
#include "dnssim/rdns.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "probe/campaign.hpp"
#include "topogen/profiles.hpp"
#include "vantage/vps.hpp"

namespace ran::obs {
namespace {

// ---------------------------------------------------------------------
// Tracer: concurrency and Chrome-trace structure.
// ---------------------------------------------------------------------

TEST(Tracer, ConcurrentRecordingLosesNoEvents) {
  Tracer tracer;
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 500;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&tracer] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        tracer.begin("work", "test");
        tracer.instant("tick", "test");
        tracer.end("work");
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(tracer.event_count(), 3u * kThreads * kSpansPerThread);
}

TEST(Tracer, TwoLiveTracersKeepSeparateBuffers) {
  // The thread-local buffer cache is keyed by tracer id; a thread that
  // interleaves two tracers must not cross their streams.
  Tracer a;
  Tracer b;
  for (int i = 0; i < 10; ++i) {
    a.instant("a", "test");
    b.instant("b", "test");
    b.instant("b", "test");
  }
  EXPECT_EQ(a.event_count(), 10u);
  EXPECT_EQ(b.event_count(), 20u);
}

TEST(Tracer, ResetDropsEventsAndBuffersStayUsable) {
  Tracer tracer;
  tracer.begin("x", "test");
  tracer.end("x");
  EXPECT_EQ(tracer.event_count(), 2u);
  tracer.reset();
  EXPECT_EQ(tracer.event_count(), 0u);
  tracer.instant("y", "test");
  EXPECT_EQ(tracer.event_count(), 1u);
}

/// Minimal line-level reader for to_chrome_json() output: one event per
/// line, fields extracted by key search (the emitter escapes names, so
/// the quoted keys below cannot occur inside values).
struct ParsedEvent {
  char phase;
  long long ts;
  long long pid;
  long long tid;
};

std::vector<ParsedEvent> parse_chrome_trace(const std::string& json) {
  EXPECT_EQ(json.find("{\"traceEvents\":[\n"), 0u);
  EXPECT_NE(json.find("],\"displayTimeUnit\":\"ms\"}"), std::string::npos);
  std::vector<ParsedEvent> events;
  std::istringstream lines{json};
  std::string line;
  const auto field = [](const std::string& hay, const std::string& key) {
    const auto pos = hay.find(key);
    EXPECT_NE(pos, std::string::npos) << key << " missing in: " << hay;
    return std::stoll(hay.substr(pos + key.size()));
  };
  while (std::getline(lines, line)) {
    if (line.find("\"ph\":") == std::string::npos) continue;
    const auto ph = line.find("\"ph\":\"");
    ParsedEvent ev{};
    ev.phase = line[ph + 6];
    ev.ts = field(line, "\"ts\":");
    ev.pid = field(line, "\"pid\":");
    ev.tid = field(line, "\"tid\":");
    events.push_back(ev);
  }
  return events;
}

TEST(Tracer, ChromeJsonIsStructurallyValidUnderTheCampaignPool) {
  // Drive the real instrumentation path: a campaign over a small world
  // with a tracer on the registry, then validate the exported timeline.
  sim::World world{99};
  net::Rng rng{99};
  auto profile = topo::comcast_profile();
  profile.regions = {{"r", {"co"}, 8, {"denver,co", "dallas,tx"}, {}, false}};
  world.add_isp(topo::generate_cable(profile, rng));
  auto vp_rng = rng.fork();
  const auto vps = vp::add_distributed_vps(world, 4, vp_rng);
  world.finalize();

  Registry registry;
  Tracer tracer;
  registry.set_tracer(&tracer);
  probe::CampaignConfig config;
  config.parallelism = 4;
  config.metrics = &registry;
  config.trace_sample = 8;
  const probe::CampaignRunner runner{world, config};
  std::vector<net::IPv4Address> targets;
  for (std::uint32_t i = 0; i < 64; ++i)
    targets.push_back(net::IPv4Address{(96u << 24) | (1u << 8) | (i + 1)});
  const auto tasks = probe::grid_tasks(vps, targets);
  { StageTimer stage{&registry, "campaign"}; (void)runner.run(tasks); }

  const auto events = parse_chrome_trace(tracer.to_chrome_json());
  ASSERT_FALSE(events.empty());
  std::map<long long, int> depth;  // per-tid open-span stack depth
  long long last_ts = 0;
  for (const auto& ev : events) {
    EXPECT_EQ(ev.pid, 1);
    EXPECT_GE(ev.tid, 1);
    EXPECT_GE(ev.ts, last_ts);  // merged in (ts, tid, seq) order
    last_ts = ev.ts;
    if (ev.phase == 'B') {
      ++depth[ev.tid];
    } else if (ev.phase == 'E') {
      EXPECT_GT(depth[ev.tid], 0) << "E without open B on tid " << ev.tid;
      --depth[ev.tid];
    } else {
      // Besides spans, the runner emits sampled instants and per-worker
      // throughput counter events.
      EXPECT_TRUE(ev.phase == 'i' || ev.phase == 'C')
          << "unexpected phase " << ev.phase;
    }
  }
  for (const auto& [tid, open] : depth)
    EXPECT_EQ(open, 0) << "unclosed span on tid " << tid;
  // The StageTimer span and at least one campaign shard span made it in.
  const auto json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"name\":\"campaign\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"shard[0,16)\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"probe\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"campaign.tasks_done\""), std::string::npos);
}

TEST(StageTimer, StackUnwindingClosesTheStage) {
  // A StageTimer destroyed by an exception must close its stage node so
  // later stages attach as siblings, not as children of a dangling open
  // stage — and tracing must emit the matching E event.
  Registry registry;
  Tracer tracer;
  registry.set_tracer(&tracer);
  try {
    StageTimer doomed{&registry, "doomed"};
    throw std::runtime_error{"unwind"};
  } catch (const std::runtime_error&) {
  }
  { StageTimer after{&registry, "after"}; }
  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.stages.children.size(), 2u);
  EXPECT_EQ(snapshot.stages.children[0].name, "doomed");
  EXPECT_TRUE(snapshot.stages.children[0].children.empty());
  EXPECT_EQ(snapshot.stages.children[1].name, "after");
  const auto events = parse_chrome_trace(tracer.to_chrome_json());
  ASSERT_EQ(events.size(), 4u);  // B/E for doomed, B/E for after
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[1].phase, 'E');
}

// ---------------------------------------------------------------------
// Histogram percentiles (log2-bucket estimates).
// ---------------------------------------------------------------------

TEST(HistogramPercentile, EmptyAndEdgeCases) {
  MetricsSnapshot::HistogramData empty;
  EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);

  // All mass at zero: every quantile is 0.
  MetricsSnapshot::HistogramData zeros{10, 0, {{0, 10}}};
  EXPECT_DOUBLE_EQ(zeros.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(zeros.percentile(0.99), 0.0);
}

TEST(HistogramPercentile, InterpolatesWithinTheBucket) {
  // 100 observations in [8, 16): p0 pins the lower edge, higher quantiles
  // move linearly through the bucket and never reach the upper edge.
  MetricsSnapshot::HistogramData data{100, 1200, {{8, 100}}};
  EXPECT_DOUBLE_EQ(data.percentile(0.0), 8.0);
  EXPECT_GT(data.percentile(0.5), 8.0);
  EXPECT_LT(data.percentile(0.5), 16.0);
  EXPECT_GT(data.percentile(0.9), data.percentile(0.5));
  EXPECT_LE(data.percentile(1.0), 16.0);
}

TEST(HistogramPercentile, PicksTheBucketHoldingTheQuantile) {
  // 90 observations in [1, 2), 10 in [1024, 2048): p50 sits in the first
  // bucket, p99 in the last.
  MetricsSnapshot::HistogramData data{100, 0, {{1, 90}, {1024, 10}}};
  EXPECT_LT(data.percentile(0.5), 2.0);
  EXPECT_GE(data.percentile(0.95), 1024.0);
  EXPECT_LT(data.percentile(0.99), 2048.0);
}

TEST(HistogramPercentile, ManifestSerializesP50P90P99) {
  Registry registry;
  for (int i = 1; i <= 100; ++i)
    registry.histogram("lat").observe(static_cast<std::uint64_t>(i));
  RunManifest manifest{"unit"};
  manifest.capture(registry);
  const auto json = manifest.to_json();
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p90\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

// ---------------------------------------------------------------------
// Provenance: determinism and the stats cross-check.
// ---------------------------------------------------------------------

infer::CableStudy run_cable(int parallelism) {
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
  infer::CablePipelineConfig config;
  config.campaign.parallelism = parallelism;
  const infer::CablePipeline pipeline{world, 0, {&live, &snapshot}, config};
  return pipeline.run(vps);
}

/// Every edge transcript in a stable order — the strongest byte-level
/// surface explain() exposes.
std::string all_explains(const ProvenanceLog& log) {
  std::string out;
  for (const auto& [key, unused] : log.edges())
    out += log.explain(key.first, key.second);
  return out;
}

TEST(Provenance, ExplainIsByteStableAcrossThreadCounts) {
  const auto serial = run_cable(1);
  const auto parallel = run_cable(8);
  ASSERT_FALSE(serial.provenance().edges().empty());
  EXPECT_EQ(all_explains(serial.provenance()),
            all_explains(parallel.provenance()));
  // Reverse lookup resolves through the canonical direction.
  const auto& [first_key, unused] = *serial.provenance().edges().begin();
  EXPECT_EQ(serial.provenance().explain(first_key.second, first_key.first),
            serial.provenance().explain(first_key.first, first_key.second));
}

TEST(Provenance, RuleTotalsEqualPruningAndRefineStats) {
  const auto study = run_cable(2);
  const auto& rules = study.provenance().rule_counts();
  const auto count = [&rules](const char* rule, bool kept) {
    const auto it = rules.find(rule);
    if (it == rules.end()) return std::uint64_t{0};
    return kept ? it->second.kept : it->second.removed;
  };
  const auto& ps = study.adjacency.stats;
  EXPECT_EQ(count("prune.mpls", false), ps.co_adj_mpls);
  EXPECT_EQ(count("prune.backbone", false), ps.co_adj_backbone);
  EXPECT_EQ(count("prune.cross_region", false), ps.co_adj_cross_region);
  EXPECT_EQ(count("prune.single", false), ps.co_adj_single);
  // Every CO adjacency got exactly one prune.* verdict.
  EXPECT_EQ(count("prune.kept", true) + count("prune.mpls", false) +
                count("prune.backbone", false) +
                count("prune.cross_region", false) +
                count("prune.single", false),
            ps.co_adj_initial);
  EXPECT_EQ(count("refine.edge_edge", false),
            study.refine.edge_edges_removed);
  EXPECT_EQ(count("refine.ring", true), study.refine.ring_edges_added);
  EXPECT_EQ(count("refine.small_agg", true), study.refine.small_aggs_kept);
}

TEST(Provenance, ManifestSectionMirrorsTheLog) {
  const auto study = run_cable(1);
  const auto json = study.manifest().to_json();
  const auto section = json.find("\"provenance\":");
  ASSERT_NE(section, std::string::npos);
  EXPECT_NE(json.find("\"prune.kept\":", section), std::string::npos);
  // Totals serialize as {"kept": k, "removed": r} per rule.
  EXPECT_NE(json.find("\"kept\":", section), std::string::npos);
  EXPECT_NE(json.find("\"removed\":", section), std::string::npos);
}

TEST(Provenance, ExplainOnUnknownEdgeSaysSo) {
  ProvenanceLog log;
  const auto text = log.explain("nowhere|xx|0", "nowhere|xx|1");
  EXPECT_NE(text.find("no provenance record"), std::string::npos);
}

TEST(Provenance, MergeAddsCountsAndConcatenatesChains) {
  ProvenanceLog a;
  a.add_support("x", "y", 3, "(vp1,10.0.0.1)", "(vp2,10.0.0.2)");
  a.record("x", "y", "prune.kept", true, "first");
  ProvenanceLog b;
  b.add_support("x", "y", 2, "(vp0,10.0.0.0)", "(vp3,10.0.0.3)");
  b.record("x", "y", "refine.edge_edge", false, "second");
  a.merge(b);
  const auto* edge = a.find("x", "y");
  ASSERT_NE(edge, nullptr);
  EXPECT_EQ(edge->observations, 5u);
  ASSERT_EQ(edge->decisions.size(), 2u);
  EXPECT_EQ(edge->decisions[1].rule, "refine.edge_edge");
  EXPECT_FALSE(edge->kept());
  EXPECT_EQ(a.rule_counts().at("prune.kept").kept, 1u);
  EXPECT_EQ(a.rule_counts().at("refine.edge_edge").removed, 1u);
}

}  // namespace
}  // namespace ran::obs
