// Pooled measurement campaigns: fans a list of traceroute tasks across a
// worker pool. Because World::trace is a pure function of the probe's
// identity and every result lands in the output slot of its task index,
// a campaign's corpus is bit-identical whatever the thread count or
// scheduling — threads=1 reproduces the plain serial loop exactly.
//
// CampaignConfig is also the execution-config base shared by every
// pipeline config (cable / AT&T / mobile): one place for per-trace
// options, the parallelism knob, and the metrics sink.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "traceroute.hpp"

namespace ran::probe {

/// One traceroute to run: a vantage point (source + label) and a target.
struct ProbeTask {
  sim::ProbeSource src;
  std::string vp;
  net::IPv4Address dst;
  std::uint64_t flow_id = 0;
};

/// Execution settings for a measurement campaign, embedded by every
/// pipeline config. None of these fields changes what is inferred —
/// corpora are byte-identical at any parallelism, with or without a
/// metrics registry.
struct CampaignConfig {
  /// Probe attempts / gap limit for every traceroute.
  TraceOptions trace{};
  /// Worker threads; 0 = all hardware threads, 1 = serial.
  int parallelism = 0;
  /// Metrics sink for campaign/probe instrumentation; null = off. When
  /// the registry carries a tracer (Registry::set_tracer), the runner
  /// also emits one span per task shard plus sampled per-probe instants.
  obs::Registry* metrics = nullptr;
  /// Every Nth probe emits an instant trace event while tracing is on;
  /// 0 disables per-probe instants (shard spans still appear). Tracing
  /// never affects results, only the timeline exported.
  int trace_sample = 64;
};

/// Resolves a `threads` knob: 0 -> hardware_concurrency (at least 1).
[[nodiscard]] int resolve_threads(int threads);

/// Runs fn(i) for every i in [0, count) on up to `threads` workers, for
/// loops over a few coarse items (regions, address bits). Indexes are
/// handed out one per fetch from a shared counter, and no more workers
/// start than there are items; callers must key any output by index so
/// results are independent of scheduling. One worker runs inline on the
/// calling thread.
void parallel_for(std::size_t count, int threads,
                  const std::function<void(std::size_t)>& fn);

/// As parallel_for, for loops over many fine items (probes, traces):
/// indexes are handed out in blocks of 16 — CampaignRunner's trace shards
/// are these blocks — and fn also receives the index of the worker
/// running it (0 is the calling thread), for per-worker accounting.
/// Results must not depend on the worker index.
void parallel_for_indexed(std::size_t count, int threads,
                          const std::function<void(int, std::size_t)>& fn);

/// Builds the VP-major task grid (every target from vps[0], then vps[1],
/// ...) — the canonical ordering of the serial pipeline loops. Works with
/// any VP type exposing `.source()` and `.name`.
template <typename VpRange>
[[nodiscard]] std::vector<ProbeTask> grid_tasks(
    const VpRange& vps, std::span<const net::IPv4Address> targets) {
  std::vector<ProbeTask> tasks;
  tasks.reserve(vps.size() * targets.size());
  for (const auto& vp : vps)
    for (const auto target : targets)
      tasks.push_back({vp.source(), vp.name, target, 0});
  return tasks;
}

class CampaignRunner {
 public:
  explicit CampaignRunner(const sim::World& world,
                          const CampaignConfig& config = {});

  [[nodiscard]] int thread_count() const { return threads_; }
  [[nodiscard]] const TracerouteEngine& engine() const { return engine_; }

  /// Runs every task; result[i] is the traceroute for tasks[i].
  [[nodiscard]] std::vector<TraceRecord> run(
      std::span<const ProbeTask> tasks) const;

 private:
  TracerouteEngine engine_;
  int threads_;
  obs::Registry* metrics_;
  int trace_sample_;
};

}  // namespace ran::probe
