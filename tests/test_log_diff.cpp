// Logger + manifest_diff tests: the structured log's determinism and
// rate-limiting contracts (exact level counts under a thread pool,
// per-site caps, consecutive dedup, a canonical view that is byte-stable
// at any thread count) and the regression-gate semantics of
// diff_manifests / diff_bench (deterministic paths byte-exact, volatile
// paths within tolerance, benchmarks gated on relative slowdown).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "netbase/json.hpp"
#include "netbase/strings.hpp"
#include "obs/diff.hpp"
#include "obs/log.hpp"

namespace ran::obs {
namespace {

LogConfig quiet(std::uint64_t per_site_limit = 0) {
  LogConfig config;
  config.min_level = LogLevel::kDebug;
  config.stderr_sink = false;  // keep test output clean
  config.per_site_limit = per_site_limit;
  return config;
}

net::JsonValue parse(const std::string& text) {
  std::string error;
  auto value = net::parse_json(text, &error);
  EXPECT_TRUE(value.has_value()) << error << "\n" << text;
  return value ? *value : net::JsonValue{};
}

TEST(Log, LevelCountsAreExactUnderConcurrentLogging) {
  Log log{quiet()};
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 5000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&log, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        log.info("test.info", net::format("worker %d step %llu", t,
                                          (unsigned long long)i));
        if (i % 10 == 0) log.warn("test.warn", "every tenth");
      }
    });
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(log.count(LogLevel::kInfo), kThreads * kPerThread);
  EXPECT_EQ(log.count(LogLevel::kWarn), kThreads * kPerThread / 10);
  EXPECT_EQ(log.count(LogLevel::kError), 0u);
}

TEST(Log, MinLevelDropsAtTheCallSite) {
  LogConfig config = quiet();
  config.min_level = LogLevel::kWarn;
  Log log{config};
  log.debug("test.site", "dropped");
  log.info("test.site", "dropped");
  log.warn("test.site", "kept");
  EXPECT_FALSE(log.enabled(LogLevel::kInfo));
  EXPECT_TRUE(log.enabled(LogLevel::kError));
  EXPECT_EQ(log.count(LogLevel::kInfo), 0u);
  EXPECT_EQ(log.count(LogLevel::kWarn), 1u);
  EXPECT_EQ(log.merged().size(), 1u);
}

TEST(Log, PerSiteCapKeepsExactSuppressionCounts) {
  Log log{quiet(/*per_site_limit=*/4)};
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 1000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&log, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        log.warn("test.hot", net::format("t%d i%llu", t,
                                         (unsigned long long)i));
    });
  for (auto& worker : workers) worker.join();
  // Every record is counted; only 4 are stored.
  EXPECT_EQ(log.count(LogLevel::kWarn), kThreads * kPerThread);
  EXPECT_EQ(log.suppressed("test.hot"), kThreads * kPerThread - 4);
  EXPECT_EQ(log.suppressed_total(), kThreads * kPerThread - 4);
  std::uint64_t kept = 0;
  for (const auto& record : log.merged()) kept += record.repeats;
  EXPECT_EQ(kept, 4u);
}

TEST(Log, ConsecutiveIdenticalRecordsFoldIntoRepeats) {
  Log log{quiet()};
  for (int i = 0; i < 5; ++i) log.warn("test.dup", "same message");
  log.warn("test.dup", "different");
  const auto merged = log.merged();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].repeats, 5u);
  EXPECT_EQ(merged[0].message, "same message");
  EXPECT_EQ(merged[1].repeats, 1u);
  // The fold is exact: counts still see every record.
  EXPECT_EQ(log.count(LogLevel::kWarn), 6u);
}

TEST(Log, CanonicalTextIsByteStableAcrossThreadCounts) {
  // The same work partitioned over 1 and 8 threads must canonicalize to
  // identical bytes: the view drops timestamps/thread ids and sorts the
  // (level, site, message) multiset.
  const auto run = [](int threads) {
    Log log{quiet()};
    constexpr std::uint64_t kItems = 400;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t)
      workers.emplace_back([&log, t, threads] {
        for (std::uint64_t i = (unsigned)t; i < kItems;
             i += (unsigned)threads) {
          log.info("work.item", net::format("item %03llu processed",
                                            (unsigned long long)i));
          if (i % 7 == 0) log.warn("work.odd", "seven-aligned item");
        }
      });
    for (auto& worker : workers) worker.join();
    return log.canonical_text();
  };
  const std::string one = run(1);
  const std::string eight = run(8);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, eight);
}

TEST(Log, JsonlStreamParsesAndMergeOrderIsDeterministic) {
  Log log{quiet()};
  log.info("a.site", "first");
  log.warn("b.site", "second");
  log.error("a.site", "third");
  const auto merged = log.merged();
  ASSERT_EQ(merged.size(), 3u);
  // Single-threaded: merge order is exactly emission order.
  EXPECT_EQ(merged[0].message, "first");
  EXPECT_EQ(merged[2].message, "third");
  // Every JSONL line is valid JSON with the expected fields.
  std::istringstream lines{log.to_jsonl()};
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const auto value = parse(line);
    ASSERT_TRUE(value.is_object()) << line;
    EXPECT_NE(value.find("level"), nullptr) << line;
    ++n;
  }
  EXPECT_GE(n, 3u);
}

// ---------------------------------------------------------------------
// manifest_diff semantics
// ---------------------------------------------------------------------

TEST(ManifestDiff, IdenticalDocumentsProduceNoDifferences) {
  const auto doc = parse(R"({
    "name": "study",
    "metrics": {"campaign.tasks": 1200, "ratio": 0.25},
    "stages": [{"name": "ingest", "wall_ms": 12.5}],
    "volatile": {"tasks_per_sec": 8000.0}
  })");
  const auto report = diff_manifests(doc, doc);
  EXPECT_TRUE(report.gate_ok());
  EXPECT_TRUE(report.differences.empty());
  EXPECT_GT(report.paths_compared, 0u);
}

TEST(ManifestDiff, DeterministicCounterDriftFailsTheGate) {
  const auto before = parse(R"({"metrics": {"campaign.tasks": 1200}})");
  const auto after = parse(R"({"metrics": {"campaign.tasks": 1201}})");
  const auto report = diff_manifests(before, after);
  EXPECT_FALSE(report.gate_ok());
  ASSERT_EQ(report.differences.size(), 1u);
  EXPECT_EQ(report.differences[0].path, "metrics.campaign.tasks");
  EXPECT_EQ(report.differences[0].kind, DiffEntry::Kind::kDeterministic);
  EXPECT_NE(report.text().find("FAIL"), std::string::npos);
}

TEST(ManifestDiff, DeterministicNumbersCompareByRawToken) {
  // 1.0 vs 1.00 is numerically equal but NOT byte-identical output —
  // deterministic sections promise byte stability, so this is drift.
  const auto before = parse(R"({"summary": {"precision": 1.0}})");
  const auto after = parse(R"({"summary": {"precision": 1.00}})");
  EXPECT_FALSE(diff_manifests(before, after).gate_ok());
}

TEST(ManifestDiff, VolatileMovementWithinToleranceStaysGreen) {
  const auto before = parse(R"({
    "metrics": {"campaign.tasks": 1200},
    "resources": {"vm_rss_kb": 50000},
    "volatile": {"tasks_per_sec": 8000.0}
  })");
  const auto after = parse(R"({
    "metrics": {"campaign.tasks": 1200},
    "resources": {"vm_rss_kb": 61000},
    "volatile": {"tasks_per_sec": 9500.0}
  })");
  const auto report = diff_manifests(before, after);
  EXPECT_TRUE(report.gate_ok()) << report.text();
  // The movement is recorded (for the human report) but does not gate.
  EXPECT_FALSE(report.differences.empty());
  for (const auto& entry : report.differences) {
    EXPECT_EQ(entry.kind, DiffEntry::Kind::kVolatile) << entry.path;
    EXPECT_TRUE(entry.within_tolerance) << entry.path;
  }
}

TEST(ManifestDiff, VolatileMovementBeyondToleranceFails) {
  const auto before = parse(R"({"volatile": {"tasks_per_sec": 1000.0}})");
  const auto after = parse(R"({"volatile": {"tasks_per_sec": 9000.0}})");
  DiffOptions tight;
  tight.rel_tolerance = 0.5;
  tight.abs_tolerance = 1.0;
  const auto report = diff_manifests(before, after, tight);
  EXPECT_FALSE(report.gate_ok());
  EXPECT_EQ(report.volatile_out_of_tolerance, 1u);
  EXPECT_EQ(report.deterministic_differences, 0u);
}

TEST(ManifestDiff, WallMsLeavesAreToleranceComparedAnywhere) {
  const auto before =
      parse(R"({"stages": [{"name": "ingest", "wall_ms": 10.0}]})");
  const auto after =
      parse(R"({"stages": [{"name": "ingest", "wall_ms": 14.0}]})");
  EXPECT_TRUE(diff_manifests(before, after).gate_ok());
}

TEST(ManifestDiff, MissingPathIsAlwaysDeterministicDrift) {
  // Tolerance applies to values, not to shape: a resources section
  // present on one side only means the runs were instrumented
  // differently, which the gate must flag.
  const auto before = parse(R"({"resources": {"vm_rss_kb": 50000}})");
  const auto after = parse(R"({})");
  const auto report = diff_manifests(before, after);
  EXPECT_FALSE(report.gate_ok());
  EXPECT_GE(report.deterministic_differences, 1u);
}

TEST(ManifestDiff, ReportJsonRoundTrips) {
  const auto before = parse(R"({"metrics": {"a": 1}})");
  const auto after = parse(R"({"metrics": {"a": 2}})");
  const auto report = diff_manifests(before, after);
  const auto value = parse(report.to_json());
  ASSERT_TRUE(value.is_object());
  const auto* differences = value.find("differences");
  ASSERT_NE(differences, nullptr);
  EXPECT_TRUE(differences->is_array());
}

TEST(BenchDiff, SlowdownBeyondThresholdFailsSpeedupPasses) {
  const auto before = parse(R"({"benchmarks": [
    {"name": "BM_Traceroute", "real_time": 100.0},
    {"name": "BM_AliasResolve", "real_time": 200.0}
  ]})");
  const auto after = parse(R"({"benchmarks": [
    {"name": "BM_Traceroute", "real_time": 150.0},
    {"name": "BM_AliasResolve", "real_time": 50.0}
  ]})");
  BenchDiffOptions options;
  options.slowdown_threshold = 0.35;
  const auto report = diff_bench(before, after, options);
  EXPECT_FALSE(report.gate_ok());
  EXPECT_EQ(report.volatile_out_of_tolerance, 1u);  // only the slowdown

  options.slowdown_threshold = 0.60;
  EXPECT_TRUE(diff_bench(before, after, options).gate_ok());
}

TEST(BenchDiff, BenchmarkPresentOnOneSideOnlyIsDeterministicDrift) {
  const auto before = parse(R"({"benchmarks": [
    {"name": "BM_Traceroute", "real_time": 100.0}
  ]})");
  const auto after = parse(R"({"benchmarks": []})");
  const auto report = diff_bench(before, after);
  EXPECT_FALSE(report.gate_ok());
  EXPECT_GE(report.deterministic_differences, 1u);
}

TEST(BenchDiff, SameHostClassComparesTheTimings) {
  const auto before = parse(R"({
    "context": {"num_cpus": 4, "build_type": "Release",
                "library_build_type": "release", "host_name": "a"},
    "benchmarks": [{"name": "BM_Traceroute", "real_time": 100.0}]})");
  const auto slower = parse(R"({
    "context": {"num_cpus": 4, "build_type": "Release",
                "library_build_type": "release", "host_name": "b"},
    "benchmarks": [{"name": "BM_Traceroute", "real_time": 150.0}]})");
  const auto report = diff_bench(before, slower);
  EXPECT_TRUE(report.comparable());
  EXPECT_EQ(report.volatile_out_of_tolerance, 1u);
  EXPECT_FALSE(report.gate_ok());
  EXPECT_NE(report.text().find("-> FAIL"), std::string::npos);
  EXPECT_TRUE(diff_bench(before, before).gate_ok());
}

TEST(BenchDiff, HostClassMismatchIsIncomparableWhateverTheTimings) {
  // The checked-in baseline's shape: one CPU and a debug benchmark
  // library, against a 4-CPU run with identical timings.
  const auto baseline = parse(R"({
    "context": {"num_cpus": 1, "build_type": "Release",
                "library_build_type": "debug"},
    "benchmarks": [{"name": "BM_Traceroute", "real_time": 100.0}]})");
  const auto fresh = parse(R"({
    "context": {"num_cpus": 4, "build_type": "Release",
                "library_build_type": "debug"},
    "benchmarks": [{"name": "BM_Traceroute", "real_time": 100.0}]})");
  const auto report = diff_bench(baseline, fresh);
  EXPECT_FALSE(report.comparable());
  EXPECT_FALSE(report.gate_ok());
  EXPECT_EQ(report.host_class_differences, 1u);
  ASSERT_EQ(report.differences.size(), 1u);
  EXPECT_EQ(report.differences[0].path, "context.num_cpus");
  EXPECT_EQ(report.differences[0].kind, DiffEntry::Kind::kHostClass);
  EXPECT_NE(report.text().find("INCOMPARABLE"), std::string::npos);

  // A 10x slowdown or speedup changes nothing: timings are not compared.
  const auto slow = parse(R"({
    "context": {"num_cpus": 4, "build_type": "Debug"},
    "benchmarks": [{"name": "BM_Traceroute", "real_time": 1000.0}]})");
  const auto slow_report = diff_bench(baseline, slow);
  EXPECT_FALSE(slow_report.gate_ok());
  EXPECT_EQ(slow_report.host_class_differences, 3u);  // absent counts
  EXPECT_EQ(slow_report.volatile_out_of_tolerance, 0u);
  EXPECT_EQ(slow_report.paths_compared, 0u);
  EXPECT_FALSE(diff_bench(slow, baseline).gate_ok());
}

// ---------------------------------------------------------------------
// the JSON reader underneath the differ
// ---------------------------------------------------------------------

TEST(JsonParse, KeepsRawNumberTokensForExactComparison) {
  const auto value = parse(R"({"a": 1.50, "b": 1e3, "c": -0})");
  const auto* a = value.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->is_number());
  EXPECT_EQ(a->str, "1.50");  // raw token preserved
  EXPECT_DOUBLE_EQ(a->num, 1.5);
  EXPECT_EQ(value.find("b")->str, "1e3");
  EXPECT_DOUBLE_EQ(value.find("b")->num, 1000.0);
}

TEST(JsonParse, HandlesEscapesNestingAndRejectsJunk) {
  const auto value = parse(R"({"s": "a\"b\\cA", "arr": [1, [2, 3]],
                              "t": true, "n": null})");
  EXPECT_EQ(value.find("s")->str, "a\"b\\cA");
  ASSERT_TRUE(value.find("arr")->is_array());
  EXPECT_EQ(value.find("arr")->array[1].array[0].num, 2.0);

  std::string error;
  EXPECT_FALSE(net::parse_json("{\"a\": }", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(net::parse_json("{} trailing", &error).has_value());
  EXPECT_FALSE(net::parse_json("{\"a\": 1", &error).has_value());
  EXPECT_FALSE(net::parse_json("", &error).has_value());
}

}  // namespace
}  // namespace ran::obs
