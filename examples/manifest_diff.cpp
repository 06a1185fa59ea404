// manifest_diff: the CI regression gate over two observability artifacts.
//
// Compares two run-manifest JSONs (default), two google-benchmark JSON
// exports (--bench), or two Prometheus exposition scrapes (--metrics,
// the rolling ran_serve_metrics.prom files `ran_serve --telemetry-every`
// writes). Deterministic manifest content must match byte-for-byte;
// volatile timings / resource samples are compared within a tolerance;
// benchmark real_time may not regress beyond the slowdown threshold;
// exposition scrapes of one live daemon must parse and every monotonic
// series (counters, histogram buckets/sums/counts) must be >= its
// earlier value — the delta/reset-free scrape contract. Exit code 0 =
// gate passes, 1 = drift detected, 2 = bad usage or unreadable input,
// 3 = --bench exports from different host classes (num_cpus, build_type
// or library_build_type differ): incomparable, so neither pass nor fail.
//
//   manifest_diff before_manifest.json after_manifest.json
//   manifest_diff --bench --slowdown 0.5 before_bench.json after_bench.json
//   manifest_diff --metrics scrape1.prom scrape2.prom
//   manifest_diff --json report.json a.json b.json
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "netbase/json.hpp"
#include "obs/diff.hpp"
#include "obs/exposition.hpp"

namespace {

constexpr const char* kUsage =
    "usage: manifest_diff [options] <before.json> <after.json>\n"
    "  --bench            diff google-benchmark exports instead of "
    "manifests\n"
    "  --metrics          diff Prometheus exposition scrapes instead of "
    "manifests\n"
    "  --json <path>      also write the machine-readable report there\n"
    "  --rel-tol <x>      relative tolerance for volatile numerics "
    "(default 0.5)\n"
    "  --abs-tol <x>      absolute tolerance for volatile numerics "
    "(default 64)\n"
    "  --slowdown <x>     --bench: allowed relative real_time slowdown "
    "(default 0.35)\n"
    "  --filter <regex>   --bench: only compare benchmarks whose name "
    "matches\n";

std::optional<std::string> load_text(const char* path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    std::cerr << "manifest_diff: cannot open " << path << "\n";
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Whether a sample is monotonic under the scrape contract: counters,
/// and every histogram sub-series except the quantile gauges.
bool is_monotonic_sample(const std::string& key,
                         const std::map<std::string, std::string>& types) {
  const auto base_end = key.find('{');
  std::string name =
      base_end == std::string::npos ? key : key.substr(0, base_end);
  if (auto it = types.find(name); it != types.end())
    return it->second == "counter";
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    if (name.size() > std::strlen(suffix) &&
        name.compare(name.size() - std::strlen(suffix), std::string::npos,
                     suffix) == 0) {
      const auto histogram = name.substr(0, name.size() - std::strlen(suffix));
      if (auto it = types.find(histogram); it != types.end())
        return it->second == "histogram";
    }
  }
  return false;
}

/// The --metrics gate: both scrapes parse, no series vanishes, every
/// monotonic series grew or held. Returns the exit code.
int diff_metrics(const char* before_path, const char* after_path) {
  const auto before_text = load_text(before_path);
  const auto after_text = load_text(after_path);
  if (!before_text || !after_text) return 2;
  std::string error;
  std::map<std::string, std::string> before_types;
  std::map<std::string, std::string> after_types;
  const auto before =
      ran::obs::parse_exposition(*before_text, &error, &before_types);
  if (!before) {
    std::cerr << "manifest_diff: " << before_path << ": " << error << "\n";
    return 2;
  }
  const auto after =
      ran::obs::parse_exposition(*after_text, &error, &after_types);
  if (!after) {
    std::cerr << "manifest_diff: " << after_path << ": " << error << "\n";
    return 2;
  }

  int violations = 0;
  std::size_t monotonic = 0;
  for (const auto& [key, before_value] : *before) {
    const auto it = after->find(key);
    if (it == after->end()) {
      std::cout << "FAIL " << key
                << ": series present before, missing after\n";
      ++violations;
      continue;
    }
    if (!is_monotonic_sample(key, before_types)) continue;
    ++monotonic;
    if (it->second < before_value) {
      std::cout << "FAIL " << key << ": monotonic series decreased ("
                << before_value << " -> " << it->second << ")\n";
      ++violations;
    }
  }
  std::cout << "metrics diff: " << before->size() << " series before, "
            << after->size() << " after, " << monotonic
            << " monotonic checked, " << violations << " violation"
            << (violations == 1 ? "" : "s") << "\n";
  return violations == 0 ? 0 : 1;
}

std::optional<ran::net::JsonValue> load_json(const char* path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    std::cerr << "manifest_diff: cannot open " << path << "\n";
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  auto parsed = ran::net::parse_json(buffer.str(), &error);
  if (!parsed)
    std::cerr << "manifest_diff: " << path << ": " << error << "\n";
  return parsed;
}

}  // namespace

int main(int argc, char** argv) {
  bool bench = false;
  bool metrics = false;
  const char* json_out = nullptr;
  ran::obs::DiffOptions options;
  ran::obs::BenchDiffOptions bench_options;
  const char* files[2] = {nullptr, nullptr};
  int n_files = 0;

  for (int i = 1; i < argc; ++i) {
    const auto number = [&](double& out) {
      if (i + 1 >= argc) return false;
      out = std::atof(argv[++i]);
      return true;
    };
    if (std::strcmp(argv[i], "--bench") == 0) {
      bench = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    } else if (std::strcmp(argv[i], "--rel-tol") == 0) {
      if (!number(options.rel_tolerance)) break;
    } else if (std::strcmp(argv[i], "--abs-tol") == 0) {
      if (!number(options.abs_tolerance)) break;
    } else if (std::strcmp(argv[i], "--slowdown") == 0) {
      if (!number(bench_options.slowdown_threshold)) break;
    } else if (std::strcmp(argv[i], "--filter") == 0 && i + 1 < argc) {
      bench_options.name_filter = argv[++i];
    } else if (argv[i][0] == '-') {
      std::cerr << "manifest_diff: unknown option " << argv[i] << "\n"
                << kUsage;
      return 2;
    } else if (n_files < 2) {
      files[n_files++] = argv[i];
    } else {
      n_files = 3;  // too many positionals
      break;
    }
  }
  if (n_files != 2) {
    std::cerr << kUsage;
    return 2;
  }
  if (metrics) return diff_metrics(files[0], files[1]);

  const auto before = load_json(files[0]);
  const auto after = load_json(files[1]);
  if (!before || !after) return 2;

  const ran::obs::DiffReport report =
      bench ? ran::obs::diff_bench(*before, *after, bench_options)
            : ran::obs::diff_manifests(*before, *after, options);

  std::cout << report.text();
  if (json_out != nullptr) {
    std::ofstream out{json_out, std::ios::binary};
    out << report.to_json();
    if (!out) {
      std::cerr << "manifest_diff: cannot write " << json_out << "\n";
      return 2;
    }
  }
  if (!report.comparable()) return 3;
  return report.gate_ok() ? 0 : 1;
}
