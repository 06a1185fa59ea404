// Measurement helpers shared by every ranbench workload: order statistics
// over timing samples and the open-loop request record. Kept free of the
// program's libraries so stats_test.cpp can check them in isolation.
// (Metric names are validated where they are defined, in run.py.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ranbench {

/// Median of `samples` (mean of the two middle values for an even
/// count); 0 for an empty set.
[[nodiscard]] double median(std::vector<double> samples);

/// Nearest-rank quantile of `samples`, q in [0, 1]: the smallest sample
/// with at least q * n samples at or below it. 0 for an empty set.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

/// Medians of consecutive windows of `window` samples, in order; a last
/// window shorter than `window` joins the one before it. Empty for an
/// empty set or a zero window.
[[nodiscard]] std::vector<double> window_medians(
    const std::vector<double>& samples, std::size_t window);

/// The highest of p90, p99, p99.9 and p99.99 that still has at least
/// `min_beyond` samples above its rank — the tail a sample count can
/// actually resolve. `q` is 0 when even p90 is unresolved.
struct Tail {
  double q = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;  ///< samples ranked above the percentile
};
[[nodiscard]] Tail resolved_tail(std::vector<double> samples,
                                 std::size_t min_beyond = 10);

/// One open-loop request: when it was due, when the generator actually
/// wrote it, and when its reply arrived (microseconds on one clock).
/// Latency runs from the scheduled time, so a generator or server stall
/// is charged to every request it delays, not hidden by a late send.
struct OpenLoopRecord {
  double scheduled_us = 0.0;
  double sent_us = 0.0;
  double done_us = 0.0;

  [[nodiscard]] double latency_us() const { return done_us - scheduled_us; }
  [[nodiscard]] double late_us() const { return sent_us - scheduled_us; }
};

/// Poisson arrival times: `count` offsets (microseconds from the phase
/// start) with exponential gaps of mean 1e6 / rate_per_s, drawn from a
/// generator seeded with `seed`. The same seed gives the same schedule.
[[nodiscard]] std::vector<double> poisson_schedule(std::uint64_t seed,
                                                   double rate_per_s,
                                                   std::size_t count);

}  // namespace ranbench
