// trace_analyze: the trace-analytics CLI — turns the Chrome trace JSON
// the pipelines emit into attributed answers (per-stage self/total time,
// the critical path, per-thread utilization), and measures per-stage
// speedup: of one trace against another (--compare), or over its own
// thread-sweep campaign (--scaling).
//
//   ./build/examples/trace_analyze [mode] [trace.json ...]
//
// Modes (default --report):
//   --report            human-readable analysis of the given trace files
//   --json              the full deterministic JSON report
//   --canonical         the scheduling-invariant canonical JSON (byte-
//                       identical across analyzer runs and thread counts)
//   --top N             cap ranked tables at N rows (default 10)
//   --compare A.json B.json
//                       per-stage speedup/efficiency of B against A
//                       (typically a 1-thread vs an N-thread trace)
//   --scaling           run a small cable-pipeline campaign at a thread
//                       sweep (1,2,4,.. up to --max-threads, default 8),
//                       print the per-stage efficiency table, and flag
//                       stages below --efficiency-threshold (default 0.5)
//   --self-check        run one traced pipeline, then cross-validate the
//                       analysis against the run's own manifest (stage
//                       wall times must agree) and re-analyze for
//                       canonical byte-stability; exit 1 on any mismatch
//
// Traces analyzed here round-trip what obs::Tracer writes; --scaling and
// --self-check write their generated traces/manifests under --out-dir.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/cable_pipeline.hpp"
#include "dnssim/rdns.hpp"
#include "example_util.hpp"
#include "netbase/json.hpp"
#include "netbase/report.hpp"
#include "obs/manifest.hpp"
#include "obs/resource.hpp"
#include "obs/trace.hpp"
#include "obs/trace_analysis.hpp"
#include "simnet/world.hpp"
#include "topogen/profiles.hpp"
#include "vantage/vps.hpp"

namespace {

using namespace ran;

/// One traced pipeline run at a fixed thread count over a freshly built
/// (seed-identical) small cable world — the workload behind --scaling
/// and --self-check.
struct TracedRun {
  std::string trace_json;
  std::string manifest_json;
};

TracedRun run_traced_pipeline(int threads) {
  topo::CableProfile profile = topo::comcast_profile();
  profile.name = "trace-analyze";
  profile.regions.resize(2);
  net::Rng rng{2024};
  sim::World world{7};
  const int cable = world.add_isp(topo::generate_cable(profile, rng));
  auto vp_rng = rng.fork();
  const auto vps = vp::add_distributed_vps(world, 12, vp_rng);
  world.finalize();
  auto dns_rng = rng.fork();
  const auto live = dns::make_rdns(world.isp(cable), {}, dns_rng);
  const auto aged = dns::age_snapshot(live, 0.02, dns_rng);

  obs::Registry metrics;
  obs::Tracer tracer;
  obs::ResourceProfiler resources;
  metrics.set_tracer(&tracer);
  metrics.set_resource_profiler(&resources);
  world.set_metrics(&metrics);
  infer::CablePipelineConfig config;
  config.campaign.metrics = &metrics;
  config.campaign.parallelism = threads;
  const infer::CablePipeline pipeline{world, cable, {&live, &aged}, config};
  auto study = pipeline.run(vps);

  TracedRun out;
  out.trace_json = tracer.to_chrome_json();
  // The pipeline captured the registry (and the profiler) into the study
  // manifest itself; include_timings turns on the wall_ms and volatile
  // sections the analyses below cross-check.
  out.manifest_json =
      study.manifest().to_json(obs::ManifestOptions{.include_timings = true});
  return out;
}

bool write_text(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok;
}

void print_comparison(
    const std::vector<obs::TraceAnalysis::StageComparison>& rows,
    int workers) {
  net::TextTable table{
      {"stage", "base_ms", "other_ms", "speedup", "efficiency"}};
  for (const auto& row : rows)
    table.add_row(
        {row.name,
         net::fmt_double(static_cast<double>(row.base_us) / 1000.0),
         net::fmt_double(static_cast<double>(row.other_us) / 1000.0),
         net::fmt_double(row.speedup), net::fmt_double(row.efficiency)});
  std::cout << "per-stage scaling (" << workers << " worker thread(s))\n"
            << table.to_string();
}

int run_scaling(const std::filesystem::path& out, int max_threads,
                double threshold, std::size_t top_n) {
  std::vector<int> sweep;
  for (int t = 1; t <= max_threads; t *= 2) sweep.push_back(t);
  if (sweep.empty() || sweep.back() != max_threads)
    sweep.push_back(max_threads);

  std::map<int, obs::TraceAnalysis> analyses;
  for (const int t : sweep) {
    std::cout << "running traced cable pipeline at " << t
              << " thread(s)...\n";
    const auto run = run_traced_pipeline(t);
    const auto trace_path =
        (out / ("trace_scaling_t" + std::to_string(t) + ".json")).string();
    if (!write_text(trace_path, run.trace_json + "\n"))
      std::cerr << "warning: could not write " << trace_path << "\n";
    std::string error;
    if (!analyses[t].load_json(run.trace_json, &error)) {
      std::cerr << "analysis failed at " << t << " threads: " << error
                << "\n";
      return 1;
    }
  }

  const auto& base = analyses.at(sweep.front());
  std::cout << "\nbaseline (" << sweep.front() << " thread)\n"
            << base.report_text(top_n);
  bool flagged = false;
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    const int t = sweep[i];
    const auto& other = analyses.at(t);
    const auto rows = obs::TraceAnalysis::compare(base, other);
    std::cout << "\n=== " << sweep.front() << " -> " << t
              << " thread(s) ===\n";
    print_comparison(rows, other.worker_thread_count());
    if (t == sweep.back()) {
      for (const auto& row : rows) {
        if (row.name == "[wall]" || row.efficiency >= threshold) continue;
        flagged = true;
        std::cout << "FLAG: stage " << row.name << " efficiency "
                  << net::fmt_double(row.efficiency) << " < "
                  << net::fmt_double(threshold) << " at " << t
                  << " threads\n";
      }
    }
  }
  if (!flagged)
    std::cout << "\nno stage below the efficiency threshold ("
              << net::fmt_double(threshold) << ")\n";
  return 0;
}

int run_self_check(const std::filesystem::path& out, int threads,
                   std::size_t top_n) {
  std::cout << "self-check: running one traced cable pipeline at "
            << threads << " thread(s)...\n";
  const auto run = run_traced_pipeline(threads);
  const auto trace_path = (out / "trace_self_check.json").string();
  const auto manifest_path = (out / "trace_self_check_manifest.json").string();
  write_text(trace_path, run.trace_json + "\n");
  write_text(manifest_path, run.manifest_json + "\n");

  // Re-analyzing the same bytes twice must reproduce the canonical
  // report byte-for-byte — the analyzer half of the determinism story.
  obs::TraceAnalysis first;
  obs::TraceAnalysis second;
  std::string error;
  if (!first.load_file(trace_path, &error) ||
      !second.load_file(trace_path, &error)) {
    std::cerr << "self-check: " << error << "\n";
    return 1;
  }
  if (first.canonical_json() != second.canonical_json()) {
    std::cerr << "self-check FAILED: canonical reports differ between "
                 "analyzer runs\n";
    return 1;
  }
  if (first.unmatched_ends() != 0 || first.unclosed_spans() != 0) {
    std::cerr << "self-check FAILED: " << first.unmatched_ends()
              << " unmatched ends, " << first.unclosed_spans()
              << " unclosed spans\n";
    return 1;
  }

  // Cross-validate against the manifest: a pipeline stage's traced span
  // and its stage-tree wall_ms are two clocks around the same scope, so
  // they must agree within slack (tracer overhead plus rounding).
  const auto manifest = net::parse_json(run.manifest_json);
  if (!manifest) {
    std::cerr << "self-check FAILED: cannot parse own manifest\n";
    return 1;
  }
  int checked = 0;
  bool ok = true;
  const auto* stages = manifest->find("stages");
  const auto* children =
      stages != nullptr ? stages->find("children") : nullptr;
  if (children != nullptr && children->is_array()) {
    for (const auto& stage : children->array) {
      const auto* name = stage.find("name");
      const auto* wall = stage.find("wall_ms");
      if (name == nullptr || !name->is_string() || wall == nullptr ||
          !wall->is_number())
        continue;
      const auto it = first.spans().find(name->str);
      if (it == first.spans().end()) {
        std::cerr << "self-check FAILED: manifest stage \"" << name->str
                  << "\" has no traced span\n";
        ok = false;
        continue;
      }
      const double span_ms =
          static_cast<double>(it->second.total_us) / 1000.0;
      const double slack = 30.0 + 0.25 * std::max(span_ms, wall->num);
      if (span_ms > wall->num + slack || wall->num > span_ms + slack) {
        std::cerr << "self-check FAILED: stage \"" << name->str
                  << "\" traced " << span_ms << " ms vs manifest "
                  << wall->num << " ms (slack " << slack << ")\n";
        ok = false;
      }
      ++checked;
    }
  }
  if (checked == 0) {
    std::cerr << "self-check FAILED: no manifest stages to validate\n";
    return 1;
  }
  if (!ok) return 1;
  std::cout << first.report_text(top_n) << "\nself-check passed: "
            << checked << " stage(s) cross-validated, canonical report "
            << "byte-stable (" << trace_path << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { kReport, kJson, kCanonical, kCompare, kScaling,
                    kSelfCheck };
  Mode mode = Mode::kReport;
  std::size_t top_n = 10;
  double threshold = 0.5;
  int max_threads = 8;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--report") == 0) mode = Mode::kReport;
    else if (std::strcmp(arg, "--json") == 0) mode = Mode::kJson;
    else if (std::strcmp(arg, "--canonical") == 0) mode = Mode::kCanonical;
    else if (std::strcmp(arg, "--compare") == 0) mode = Mode::kCompare;
    else if (std::strcmp(arg, "--scaling") == 0) mode = Mode::kScaling;
    else if (std::strcmp(arg, "--self-check") == 0) mode = Mode::kSelfCheck;
    else if (std::strcmp(arg, "--top") == 0 && i + 1 < argc)
      top_n = static_cast<std::size_t>(std::atoll(argv[++i]));
    else if (std::strcmp(arg, "--efficiency-threshold") == 0 && i + 1 < argc)
      threshold = std::atof(argv[++i]);
    else if (std::strcmp(arg, "--max-threads") == 0 && i + 1 < argc)
      max_threads = std::max(1, std::atoi(argv[++i]));
    else if (std::strcmp(arg, "--out-dir") == 0 ||
             std::strcmp(arg, "--log-level") == 0 ||
             std::strcmp(arg, "--log-file") == 0 ||
             std::strcmp(arg, "--threads") == 0)
      ++i;  // handled by example_util
    else if (arg[0] == '-' && arg[1] == '-') {
      std::cerr << "unknown flag " << arg << "\n";
      return 2;
    } else
      files.emplace_back(arg);
  }
  const auto out = ran::examples::out_dir(argc, argv);

  if (mode == Mode::kScaling)
    return run_scaling(out, max_threads, threshold, top_n);
  if (mode == Mode::kSelfCheck)
    return run_self_check(out, ran::examples::threads(argc, argv, 8),
                          top_n);

  if (mode == Mode::kCompare) {
    if (files.size() != 2) {
      std::cerr << "--compare needs exactly two trace files\n";
      return 2;
    }
    ran::obs::TraceAnalysis base;
    ran::obs::TraceAnalysis other;
    std::string error;
    if (!base.load_file(files[0], &error) ||
        !other.load_file(files[1], &error)) {
      std::cerr << error << "\n";
      return 1;
    }
    print_comparison(ran::obs::TraceAnalysis::compare(base, other),
                     other.worker_thread_count());
    return 0;
  }

  if (files.empty()) {
    std::cerr << "usage: trace_analyze [--report|--json|--canonical] "
                 "[--top N] trace.json ...\n"
                 "       trace_analyze --compare A.json B.json\n"
                 "       trace_analyze --scaling [--max-threads N] "
                 "[--efficiency-threshold F]\n"
                 "       trace_analyze --self-check [--threads N]\n";
    return 2;
  }
  ran::obs::TraceAnalysis analysis;
  for (const auto& file : files) {
    std::string error;
    if (!analysis.load_file(file, &error)) {
      std::cerr << error << "\n";
      return 1;
    }
  }
  if (mode == Mode::kJson)
    std::cout << analysis.report_json() << "\n";
  else if (mode == Mode::kCanonical)
    std::cout << analysis.canonical_json() << "\n";
  else
    std::cout << analysis.report_text(top_n);
  return 0;
}
