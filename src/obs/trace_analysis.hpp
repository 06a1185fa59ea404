// Trace analytics: the read side of the tracer. TraceAnalysis loads one
// or more Chrome-trace JSON documents (exactly what obs::Tracer emits —
// B/E spans, 'i' instants, 'C' counters), merges them, and turns the raw
// timeline into attributed answers:
//
//   * per-span-name aggregates: count, total (inclusive) and self
//     (exclusive, children subtracted) time;
//   * a critical-path attribution: the root thread's wall time divided
//     among its innermost open spans, ranked — "which stage actually
//     owns the run's duration";
//   * per-thread utilization: busy time under top-level spans vs. the
//     trace's wall span, exposing the idle gaps an empty work queue
//     leaves behind;
//   * counter-event totals (per-thread cumulative counters summed at
//     their final value);
//   * compare(): measured per-stage speedup of one trace against another
//     (a 1-thread run against an N-thread run of the same workload) —
//     the scaling instrument, read by `trace_analyze --compare` and
//     `--scaling`.
//
// Two serializations with different stability contracts, mirroring the
// manifest's deterministic/volatile split:
//   * canonical_json(): only scheduling-invariant structure — per-name
//     span/instant/counter-event counts. For the same workload this is
//     byte-identical at any thread count and across repeated analyzer
//     runs (pinned by tests/test_contention).
//   * report_json() / report_text(): the full analysis, deterministic
//     for a given input trace but carrying wall-clock values.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ran::obs {

class TraceAnalysis {
 public:
  /// Aggregate over every B/E span of one name.
  struct SpanStats {
    std::uint64_t count = 0;
    std::uint64_t total_us = 0;  ///< inclusive of nested spans
    std::uint64_t self_us = 0;   ///< nested span time subtracted
    std::string category;        ///< first category seen for the name
  };

  /// One traced thread. `busy_us` sums top-level span durations; the
  /// utilization denominator is the owning file's wall span.
  struct ThreadStats {
    std::uint32_t file = 0;
    std::uint32_t tid = 0;
    std::uint64_t events = 0;
    std::uint64_t busy_us = 0;
    std::uint64_t campaign_spans = 0;  ///< spans of category "campaign"
    std::uint64_t first_ts_us = 0;
    std::uint64_t last_ts_us = 0;
  };

  struct CounterStats {
    std::uint64_t events = 0;
    /// Counters are cumulative per thread: the sum of each thread's last
    /// sample is the cross-thread final total.
    std::uint64_t final = 0;
  };

  /// One critical-path segment: wall time of the root thread attributed
  /// to the innermost open span named `name` ("(idle)" outside spans).
  struct CriticalSegment {
    std::string name;
    std::uint64_t us = 0;
  };

  /// One row of the parallel-efficiency table compare() produces.
  struct StageComparison {
    std::string name;
    std::uint64_t base_us = 0;
    std::uint64_t other_us = 0;
    double speedup = 0.0;     ///< base / other
    double efficiency = 0.0;  ///< speedup / other's worker count
  };

  /// Parses and folds in one trace document; false (with a one-line
  /// message in `error`) on malformed JSON or a missing traceEvents
  /// array. May be called repeatedly to merge several files.
  bool load_json(std::string_view text, std::string* error = nullptr);
  bool load_file(const std::string& path, std::string* error = nullptr);

  [[nodiscard]] std::size_t file_count() const { return file_wall_us_.size(); }
  [[nodiscard]] std::uint64_t event_count() const { return events_; }
  /// Longest single-file wall span (last ts - first ts).
  [[nodiscard]] std::uint64_t wall_us() const;
  /// Threads that ran campaign-category spans; every traced thread when
  /// the trace has none (a non-campaign workload).
  [[nodiscard]] int worker_thread_count() const;

  [[nodiscard]] const std::map<std::string, SpanStats>& spans() const {
    return spans_;
  }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& instants()
      const {
    return instants_;
  }
  [[nodiscard]] std::map<std::string, CounterStats> counters() const;
  [[nodiscard]] const std::vector<ThreadStats>& threads() const {
    return threads_;
  }
  /// Ranked (descending) critical-path segments of the first loaded
  /// file's root thread — the thread whose first event is earliest.
  [[nodiscard]] std::vector<CriticalSegment> critical_path() const;

  [[nodiscard]] std::uint64_t unmatched_ends() const {
    return unmatched_ends_;
  }
  [[nodiscard]] std::uint64_t unclosed_spans() const {
    return unclosed_spans_;
  }

  [[nodiscard]] std::string canonical_json() const;
  [[nodiscard]] std::string report_json() const;
  /// Human-readable report; `top_n` caps each ranked table.
  [[nodiscard]] std::string report_text(std::size_t top_n = 10) const;

  /// Per-stage speedup/efficiency of `other` against `base` (typically a
  /// 1-thread trace vs. an N-thread trace of the same workload): rows
  /// for every stage-category span name they share, ordered by name,
  /// plus a leading "[wall]" row comparing whole-trace wall spans.
  [[nodiscard]] static std::vector<StageComparison> compare(
      const TraceAnalysis& base, const TraceAnalysis& other);

 private:
  struct RootSegmentState;

  std::map<std::string, SpanStats> spans_;
  std::map<std::string, std::uint64_t> instants_;
  /// name -> ((file<<32)|tid -> last sampled value, event count).
  std::map<std::string,
           std::pair<std::map<std::uint64_t, std::uint64_t>, std::uint64_t>>
      counter_samples_;
  std::vector<ThreadStats> threads_;
  std::vector<std::uint64_t> file_wall_us_;
  /// Root-thread critical path of file 0, merged by innermost span name.
  std::map<std::string, std::uint64_t> critical_us_;
  std::uint64_t events_ = 0;
  std::uint64_t unmatched_ends_ = 0;
  std::uint64_t unclosed_spans_ = 0;
};

}  // namespace ran::obs
