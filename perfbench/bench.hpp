// Shared plumbing of the ranbench workloads: command-line options, the
// result report every workload fills, the seeded Comcast world the
// pipeline workloads probe, and the few timing helpers they share.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dnssim/rdns.hpp"
#include "simnet/world.hpp"
#include "vantage/vps.hpp"

namespace ranbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 20.0;
  bool trace = false;
  /// Inputs made by `ranbench prepare` (offline corpus, serve snapshot).
  std::filesystem::path data_dir;
};

/// Everything one run reports. Metrics carry their sample count; checks
/// count into attempted/failed, and the first few failures are kept
/// verbatim for the log.
class Report {
 public:
  /// `stat` says how the value summarises its `samples` (the log prints
  /// "(<stat>, n=<samples>)").
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples, const std::string& stat = "median");
  void context(const std::string& key, const std::string& value);
  void context(const std::string& key, double value);
  /// Records every sample behind a median in the context, for the
  /// steadiness report and for reading a noisy run after the fact.
  void samples(const std::string& key, const std::vector<double>& values);
  /// One checked operation; false counts as failed.
  void check(bool ok, const std::string& what);
  /// `attempted` operations of which `failed` failed, in one go.
  void checks(std::size_t attempted, std::size_t failed,
              const std::string& what);

  [[nodiscard]] std::size_t failed() const { return failed_; }
  /// The single JSON line run.py reads.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
    std::string stat;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> context_;
  std::vector<std::string> failures_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// The §5 measurement world at one seed: the Comcast-like ISP, 47
/// distributed vantage points, and its live + aged rDNS tables. Built
/// in the order map_cable_isp builds it; the seed drives topology, VP
/// placement and rDNS noise alike.
struct CableWorld {
  std::unique_ptr<ran::sim::World> world;
  int isp = -1;
  std::vector<ran::vp::ExternalVp> vps;
  ran::dns::RdnsDb live;
  ran::dns::RdnsDb aged;
};

/// Per-call wall times of one make_cable_world(), for the traced run.
struct SetupTimes {
  double generate_ms = 0.0;  ///< topogen: generate_cable
  double finalize_ms = 0.0;  ///< simnet: World::finalize
  double rdns_ms = 0.0;      ///< dnssim: make_rdns + age_snapshot
};

[[nodiscard]] CableWorld make_cable_world(std::uint64_t seed,
                                          SetupTimes* times = nullptr);

/// Campaign parallelism of the cable workload: min(4, nproc).
[[nodiscard]] int campaign_threads();

/// Milliseconds elapsed since `start`.
[[nodiscard]] inline double ms_since(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// VmHWM (peak resident set) of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Fills the host and build context every result records.
void record_context(Report& report, const Options& options);
/// Empty when this binary may report numbers; otherwise why it may not
/// (a non-Release, assertion-enabled or sanitizer build).
[[nodiscard]] std::string build_refusal();

/// Reads a whole file; empty on failure.
[[nodiscard]] std::string read_file(const std::filesystem::path& path);

/// The workloads and the input preparation step.
int prepare_inputs(std::uint64_t seed, const std::filesystem::path& out);
void run_cable(const Options& options, Report& report);
void run_offline(const Options& options, Report& report);
void run_serve(const Options& options, Report& report);

}  // namespace ranbench
