// Observability core: a thread-safe metrics registry (counters, gauges,
// log2-bucketed histograms) plus the RAII StageTimer that nests into a
// stage tree mirroring the paper's methodology phases.
//
// Determinism contract: metrics registered through counter() / gauge() /
// histogram() must be pure functions of the work performed — the same
// campaign produces the same values at any thread count — and are what a
// RunManifest serializes by default. Anything derived from wall-clock or
// scheduling (tasks/sec, cache hit rates that depend on interleaving)
// goes through volatile_counter() / volatile_gauge() and is excluded
// from deterministic snapshots. Instrumentation never feeds
// back into inference: enabling a registry cannot change a corpus or a
// graph, only describe it.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ran::obs {

class Log;
class ResourceProfiler;
class Tracer;

/// Monotonic event count. Relaxed atomics: totals are exact because adds
/// commute; no ordering is implied between metrics.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins scalar (e.g. a detected parameter, a final ratio).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Histogram over non-negative integers with fixed log-scale buckets:
/// bucket 0 holds the value 0, bucket b >= 1 holds [2^(b-1), 2^b). Fixed
/// edges keep merged/parallel observations deterministic — no dynamic
/// rebucketing, no floating-point boundaries.
class Histogram {
 public:
  static constexpr int kBuckets = 65;  ///< bit_width(uint64) + 1

  void observe(std::uint64_t value) {
    buckets_[static_cast<std::size_t>(bucket_of(value))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  [[nodiscard]] static int bucket_of(std::uint64_t value) {
    return static_cast<int>(std::bit_width(value));
  }
  /// Smallest value landing in `bucket` (0, 1, 2, 4, 8, ...).
  [[nodiscard]] static std::uint64_t bucket_lower_bound(int bucket) {
    return bucket == 0 ? 0 : std::uint64_t{1} << (bucket - 1);
  }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket_count(int bucket) const {
    return buckets_[static_cast<std::size_t>(bucket)].load(
        std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// One node of the stage tree. `items` counts deterministic work units
/// (targets probed, edges examined); `wall_ms` is timing-only and omitted
/// from deterministic serialization.
struct StageNode {
  std::string name;
  std::uint64_t items = 0;
  double wall_ms = 0.0;
  std::vector<std::unique_ptr<StageNode>> children;
};

/// Value-type copy of a stage tree, as captured into a manifest.
struct StageSnapshot {
  std::string name;
  std::uint64_t items = 0;
  double wall_ms = 0.0;
  std::vector<StageSnapshot> children;
};

/// Point-in-time copy of a registry, ordered by metric name.
struct MetricsSnapshot {
  struct HistogramData {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    /// (bucket lower bound, count) for non-empty buckets only.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;

    /// Defined on empty histograms (0.0, not the 0/0 NaN that would
    /// serialize a manifest into invalid JSON).
    [[nodiscard]] double mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) /
                              static_cast<double>(count);
    }

    /// Quantile estimate from the log2 buckets (q in [0, 1]): finds the
    /// bucket holding the q-th observation and interpolates linearly
    /// inside its [lower, 2*lower) range. Exact for bucket edges, within
    /// one bucket width otherwise; 0.0 on empty histograms. Deterministic
    /// — a pure function of the (deterministic) bucket counts, so p50/
    /// p90/p99 are safe to serialize into manifests.
    [[nodiscard]] double percentile(double q) const;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;
  std::map<std::string, std::uint64_t> volatile_counters;
  std::map<std::string, double> volatile_gauges;
  std::map<std::string, HistogramData> volatile_histograms;
  StageSnapshot stages;
  /// Scrape ordinal stamped by Registry::scrape(); 0 for plain
  /// snapshot() copies (manifest captures do not consume the sequence).
  std::uint64_t scrape_seq = 0;
};

/// Thread-safe, name-keyed metric store. Lookup takes a mutex; the
/// returned references are stable for the registry's lifetime, so hot
/// paths resolve once and increment lock-free.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);
  /// Execution-dependent variants: values may differ between runs of the
  /// same campaign (thread counts, cache interleaving, wall time).
  [[nodiscard]] Counter& volatile_counter(std::string_view name);
  [[nodiscard]] Gauge& volatile_gauge(std::string_view name);
  /// Wall-clock distributions (request latencies): always volatile —
  /// timing histograms are never deterministic.
  [[nodiscard]] Histogram& volatile_histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// snapshot() for scrapers: additionally stamps a monotonically
  /// increasing scrape sequence number (1, 2, ...). Scraping is
  /// delta/reset-free — nothing is cleared, counters only grow, so for
  /// any two scrapes s1 before s2 every counter satisfies
  /// s2[c] >= s1[c], and s2[c] - s1[c] is exactly the number of
  /// increments that completed between the two reads once writers
  /// quiesce. Concurrent scrapers never perturb each other (no
  /// read-and-reset), which is what makes repeated live scrapes exact.
  [[nodiscard]] MetricsSnapshot scrape() const;

  /// Attaches an event tracer: StageTimer scopes (and the campaign
  /// runner, which resolves it from its registry) emit begin/end spans
  /// through it. Set before instrumented work starts and keep the tracer
  /// alive for the registry's lifetime; null detaches. Tracing is
  /// volatile observability — it never appears in deterministic
  /// manifests and never feeds back into inference.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] Tracer* tracer() const { return tracer_; }

  /// Attaches a structured logger: pipelines, the campaign runner, and
  /// the ingest boundary resolve it from their registry and emit real
  /// warnings through it ("dropped N malformed trace blocks") instead of
  /// only bumping counters. Same lifetime discipline as set_tracer; null
  /// detaches, and a null logger costs call sites one pointer test.
  void set_logger(Log* log) { log_ = log; }
  [[nodiscard]] Log* logger() const { return log_; }

  /// Attaches a resource profiler: every StageTimer scope then samples
  /// process memory at open and close, and pipelines report their big
  /// structures' sizes into it. Null detaches.
  void set_resource_profiler(ResourceProfiler* profiler) {
    resources_ = profiler;
  }
  [[nodiscard]] ResourceProfiler* resource_profiler() const {
    return resources_;
  }

  // --- stage tree (used via StageTimer) ---------------------------------
  /// Opens a child of the innermost open stage and returns its node.
  [[nodiscard]] StageNode* begin_stage(std::string name);
  /// Closes `node`, recording its work items and wall time. Stages close
  /// in LIFO order (enforced), which RAII timers guarantee.
  void end_stage(StageNode* node, std::uint64_t items, double wall_ms);

 private:
  template <typename T>
  [[nodiscard]] T& lookup(std::map<std::string, std::unique_ptr<T>,
                                   std::less<>>& store,
                          std::string_view name);

  Tracer* tracer_ = nullptr;
  Log* log_ = nullptr;
  ResourceProfiler* resources_ = nullptr;
  mutable std::atomic<std::uint64_t> scrape_seq_{0};
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>>
      volatile_counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> volatile_gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
      volatile_histograms_;
  StageNode stage_root_{"run", 0, 0.0, {}};
  std::vector<StageNode*> stage_stack_;
};

/// RAII scope timing one methodology stage. Null registry makes it a
/// no-op, so instrumented code needs no branches. add_items() records the
/// stage's deterministic work count (targets, edges, addresses).
class StageTimer {
 public:
  StageTimer(Registry* registry, std::string name);
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;
  ~StageTimer();

  void add_items(std::uint64_t n) { items_ += n; }
  /// Closes the stage before the scope ends (idempotent). Useful when a
  /// registry snapshot is taken later in the same scope.
  void stop();

 private:
  Registry* registry_ = nullptr;
  StageNode* node_ = nullptr;
  std::uint64_t items_ = 0;
  std::chrono::steady_clock::time_point start_;
  /// Retained while the registry has a tracer or resource profiler
  /// attached, for the matching end-span / end-sample call.
  std::string name_;
  /// Which hooks saw the begin — a tracer/profiler attached mid-stage
  /// must not receive an end with no matching begin.
  bool traced_ = false;
  bool profiled_ = false;
};

}  // namespace ran::obs
