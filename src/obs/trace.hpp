// Event tracing: per-run timelines in the Chrome trace-event format
// (load the exported trace.json in Perfetto / chrome://tracing).
//
// Contract, mirroring the metrics registry's split: tracing is VOLATILE
// observability. Timestamps come from the wall clock and event order
// depends on scheduling, so a trace is never part of a deterministic
// manifest and never feeds back into inference. What IS deterministic is
// the merge: buffers are combined in a fixed order (timestamp, then
// thread id, then per-thread sequence), so the same buffer contents
// always serialize to the same bytes.
//
// Cost model: a null Tracer* is the off switch — instrumented code does a
// single pointer test and nothing else (the BM_CampaignTraced benchmark
// holds the disabled path to <2% on campaign throughput). When enabled,
// each thread appends to its own obs::PerThread buffer (per_thread.hpp)
// without synchronization; export takes the registration lock and must
// happen after worker threads have joined.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "per_thread.hpp"

namespace ran::obs {

/// One Chrome trace event. `phase` uses the trace-event phase letters:
/// 'B' begin, 'E' end, 'i' instant, 'C' counter (with a sampled value).
struct TraceEvent {
  char phase = 'i';
  std::uint64_t ts_us = 0;     ///< microseconds since the tracer's epoch
  std::uint64_t seq = 0;       ///< per-thread sequence (merge tie-break)
  /// The sampled value of a 'C' event ("args":{"value":...}); unused
  /// otherwise.
  std::uint64_t value = 0;
  std::string name;
  const char* category = "";   ///< static-lifetime category string
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread. Spans must nest per thread
  /// (LIFO), which the RAII TraceSpan guarantees.
  void begin(std::string_view name, const char* category = "stage");
  /// Closes the innermost open span on the calling thread. The name is
  /// recorded again for readability; Chrome pairs B/E by nesting.
  void end(std::string_view name);
  /// A zero-duration marker (sampled probe events and the like).
  void instant(std::string_view name, const char* category = "event");

  /// A counter ('C') event sampling `value` on the calling thread's
  /// track — per-thread task throughput in campaign traces. Chrome
  /// renders one stacked series per (name, tid).
  void counter(std::string_view name, std::uint64_t value,
               const char* category = "counter");

  /// Drops all recorded events and restarts the clock epoch. Buffers
  /// stay registered, so cached per-thread handles remain valid. Must
  /// not race with recording threads.
  void reset();

  /// Number of events recorded so far (export-time use only).
  [[nodiscard]] std::size_t event_count() const;

  /// Serializes every buffer into one Chrome trace-event JSON document:
  /// {"traceEvents":[...],"displayTimeUnit":"ms"}. Events are merged in
  /// (ts, tid, seq) order; one event per line so the output is both
  /// Perfetto-loadable and line-parseable by the structural tests.
  [[nodiscard]] std::string to_chrome_json() const;
  /// Writes to_chrome_json() + newline to `path`; false when the file
  /// cannot be opened.
  bool write_file(const std::string& path) const;

 private:
  using Events = std::vector<TraceEvent>;  ///< one thread's timeline

  void record(char phase, std::string_view name, const char* category,
              std::uint64_t value = 0);
  [[nodiscard]] std::uint64_t now_us() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  std::chrono::steady_clock::time_point epoch_;
  PerThread<Events> buffers_;
};

/// RAII span: begin at construction, end at destruction. A null tracer
/// makes it a no-op, so call sites need no branches.
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, std::string_view name,
            const char* category = "stage")
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    name_.assign(name);
    tracer_->begin(name_, category);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (tracer_ != nullptr) tracer_->end(name_);
  }

 private:
  Tracer* tracer_ = nullptr;
  std::string name_;
};

}  // namespace ran::obs
