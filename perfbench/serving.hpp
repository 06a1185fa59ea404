// The serving measurement every workload ends its job with: the topology
// the workload produced (or loaded) is published into a SnapshotHub and
// answered by a serve::Server configured as ran_serve runs it by default
// (Registry, a 256-record FlightRecorder, hub metrics attached, logger
// off, two workers), driven by one generator thread over two loopback
// connections.
//
// The session runs in rounds so its samples spread over the whole run
// instead of one stretch of it:
//
//   closed slice — each connection keeps 16 pipelined requests
//                  outstanding: saturation throughput (sat_qps);
//   open slice   — Poisson arrivals at 20,000 req/s, each request timed
//                  from its scheduled send, while a republisher thread
//                  loads an alternate-generation snapshot JSON from memory
//                  and publishes it (republish_ms).
//
// p50_us is the lower quartile of the medians of 5,000-request windows
// (a quarter second each) of the open slices. An open-loop median is
// mostly the time a sleeping worker's virtual CPU takes to wake, which on
// a shared host rises by a third for seconds at a time; the lower
// quartile leaves out windows that fell into such a phase, so long as
// they are fewer than three in four. The pooled median of every request
// is recorded next to it (p50_us.pooled).
//
// The request mix is seeded: path and latency queries between random CO
// pairs of every region, plus one resilience query per region. Every
// reply must be ok, and a fixed subset must match, byte for byte with the
// request id stripped, what an in-process QueryEngine answers.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/snapshot.hpp"
#include "loadgen.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace ranbench {

using SnapshotPtr = std::shared_ptr<const ran::infer::TopologySnapshot>;

/// Parses a snapshot document; null when it does not load.
[[nodiscard]] SnapshotPtr load_snapshot(const std::string& json);

/// Set-up as a serving user pays it — load the snapshot, publish it,
/// start the server, wait for the first reply — once: its seconds, or
/// a negative value when it failed (counted into `report`).
[[nodiscard]] double serve_setup_sample(const std::string& json,
                                        Report& report);

/// The seeded request mix, with the expected replies of its probe subset.
struct RequestMix {
  std::vector<std::string> lines;
  /// Expected reply (no rid) for probe entries; empty elsewhere.
  std::vector<std::string> expected;
};

class ServingSession {
 public:
  ServingSession(const std::string& snapshot_json, const Options& options,
                 Report& report);
  ServingSession(const ServingSession&) = delete;
  ServingSession& operator=(const ServingSession&) = delete;
  ~ServingSession();

  /// False when the snapshot did not load or the server did not start.
  [[nodiscard]] bool ok() const { return load_ != nullptr && load_->ok(); }

  /// One closed slice of `closed_s` seconds, then one open slice of
  /// `open_s` seconds with `republishes` republishes spread across it.
  void round(double closed_s, double open_s, int republishes);

  /// For `seconds`, each connection sends its next request only when the
  /// previous reply arrived; returns the wall time (s) of every batch of
  /// `batch` answers — an application walking a list of queries.
  [[nodiscard]] std::vector<double> one_at_a_time(double seconds,
                                                  std::size_t batch);

  /// Reports sat_qps, p50_us and republish_ms (and, when tracing, the
  /// serve.* and core.engine.* layer metrics plus the tracing overhead
  /// of an equally long open loop against a traced server) and the
  /// reply checks.
  void finish();

  /// A server configured as ran_serve runs by default, with its own
  /// registry and flight recorder.
  struct Stack {
    ran::obs::Registry metrics;
    ran::obs::FlightRecorder recorder;
    ran::infer::SnapshotHub hub;
    std::optional<ran::serve::Server> server;
    Stack(const SnapshotPtr& snapshot, int workers, ran::obs::Tracer* tracer);
  };

 private:
  /// One open slice against `stack` over `load`; appends its samples.
  void open_slice(Stack& stack, LoopbackLoad& load, double seconds,
                  int republishes, std::vector<double>& latency_us);
  void on_reply(std::size_t request, std::string_view line);
  void report_layers();

  const Options& options_;
  Report& report_;
  std::string json_;
  std::string alt_json_;
  SnapshotPtr snapshot_;
  RequestMix mix_;
  int workers_ = 1;
  std::unique_ptr<Stack> stack_;
  std::unique_ptr<LoopbackLoad> load_;
  std::size_t cursor_ = 0;
  std::uint64_t slices_ = 0;  ///< open slices run: seeds their schedules

  std::vector<double> block_qps_;
  std::vector<double> latency_us_;
  std::vector<double> window_p50_us_;  ///< one median per open-loop window
  std::vector<double> late_us_;
  std::vector<double> republish_ms_;
  std::vector<double> publish_us_;
  /// serve.latency_us.<op> buckets observed during open slices.
  std::map<std::uint64_t, std::int64_t> server_buckets_;
  double open_seconds_ = 0.0;

  std::size_t replies_ = 0;
  std::size_t not_ok_ = 0;
  std::size_t probed_ = 0;
  std::size_t probe_mismatch_ = 0;
};

}  // namespace ranbench
