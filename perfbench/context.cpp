#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "netbase/protocol.hpp"

namespace ranbench {

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples,
                    const std::string& stat) {
  metrics_[name] = {value, unit, samples, stat};
}

void Report::context(const std::string& key, const std::string& value) {
  context_[key] = value;
}

void Report::context(const std::string& key, double value) {
  std::ostringstream os;
  os.precision(6);
  os << value;
  context_[key] = os.str();
}

void Report::samples(const std::string& key,
                     const std::vector<double>& values) {
  std::ostringstream os;
  os.precision(4);
  for (std::size_t i = 0; i < values.size(); ++i)
    os << (i == 0 ? "" : " ") << values[i];
  context_[key] = os.str();
}

void Report::check(bool ok, const std::string& what) {
  checks(1, ok ? 0 : 1, what);
}

void Report::checks(std::size_t attempted, std::size_t failed,
                    const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0 && failures_.size() < 16)
    failures_.push_back(what + " (" + std::to_string(failed) + " of " +
                        std::to_string(attempted) + ")");
}

std::string Report::to_json() const {
  ran::net::LineJsonWriter w;
  w.begin_object();
  w.key("attempted").value(static_cast<std::uint64_t>(attempted_));
  w.key("context").begin_object();
  for (const auto& [key, value] : context_) w.key(key).value(value);
  w.end_object();
  w.key("failed").value(static_cast<std::uint64_t>(failed_));
  w.key("failures").begin_array();
  for (const auto& failure : failures_) w.value(failure);
  w.end_array();
  w.key("metrics").begin_object();
  for (const auto& [name, m] : metrics_) {
    w.key(name).begin_object();
    w.key("samples").value(static_cast<std::uint64_t>(m.samples));
    w.key("stat").value(m.stat);
    w.key("unit").value(m.unit);
    w.key("value").value(m.value);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

int campaign_threads() {
  return std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1,
                    4);
}

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream is{path, std::ios::binary};
  if (!is) return {};
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

namespace {

/// A fixed dependent integer chain: its time tracks this host's
/// single-core speed and steal, and is recorded next to the metrics so
/// two result files from different hosts are not compared blindly.
double alu_calibration_ms() {
  const auto start = std::chrono::steady_clock::now();
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 100'000'000; ++i) x = x * 6364136223846793005ULL + 1;
  sink = x;
  (void)sink;
  return ms_since(start);
}

std::string compiler() {
#if defined(__clang__)
  return "clang " __VERSION__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return __VERSION__;
#endif
}

}  // namespace

std::string build_refusal() {
  const std::string build_type = RANBENCH_BUILD_TYPE;
  if (build_type != "Release")
    return "build type is '" + build_type + "', not Release";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
#ifndef NDEBUG
  return "built with assertions enabled";
#endif
  return {};
}

void record_context(Report& report, const Options& options) {
  report.context("workload", options.workload);
  report.context("seed", std::to_string(options.seed));
  report.context("trace", options.trace ? "1" : "0");
  report.context("nproc",
                 std::to_string(std::thread::hardware_concurrency()));
  report.context("build_type", RANBENCH_BUILD_TYPE);
  report.context("compiler", compiler());
  report.context("alu_calibration_ms", alu_calibration_ms());
}

}  // namespace ranbench
