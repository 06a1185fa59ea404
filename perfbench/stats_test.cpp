// Unit tests of the benchmark's measurement helpers (stats.hpp). Build and
// run with
//
//   cmake --build <build-dir> --target ranbench_tests && <build-dir>/ranbench_tests
//
// Exit status 0 when every check holds; each failed check is printed.
#include <cmath>
#include <iostream>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (ok) return;
  ++failures;
  std::cerr << "stats_test.cpp:" << line << ": FAILED " << what << "\n";
}

#define CHECK(expr) check((expr), #expr, __LINE__)

bool near(double a, double b, double tol = 1e-9) {
  return std::abs(a - b) <= tol;
}

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;  // n, n-1, ..., 1: unsorted on purpose
}

void test_median() {
  using ranbench::median;
  CHECK(median({}) == 0.0);
  CHECK(median({7.0}) == 7.0);
  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  CHECK(median({5.0, 5.0, 1.0, 9.0, 5.0}) == 5.0);
  CHECK(median(iota_samples(1000)) == 500.5);
}

void test_quantile() {
  using ranbench::quantile;
  const auto v = iota_samples(100);  // 1..100
  CHECK(quantile(v, 0.5) == 50.0);
  CHECK(quantile(v, 0.9) == 90.0);
  CHECK(quantile(v, 0.99) == 99.0);
  CHECK(quantile(v, 1.0) == 100.0);
  CHECK(quantile(v, 0.0) == 1.0);
  CHECK(quantile({}, 0.5) == 0.0);
}

void test_window_medians() {
  using ranbench::window_medians;
  // 1..10 in windows of 3: {1,2,3}, {4,5,6}, then the short {10} joins
  // {7,8,9}.
  std::vector<double> v;
  for (int i = 1; i <= 10; ++i) v.push_back(i);
  CHECK((window_medians(v, 3) == std::vector<double>{2.0, 5.0, 8.5}));
  // An exact multiple leaves no short window.
  v.pop_back();
  CHECK((window_medians(v, 3) == std::vector<double>{2.0, 5.0, 8.0}));
  // Fewer samples than one window: a single window of them all.
  CHECK((window_medians({4.0, 1.0}, 3) == std::vector<double>{2.5}));
  CHECK(window_medians({}, 3).empty());
  CHECK(window_medians(v, 0).empty());
}

void test_resolved_tail() {
  using ranbench::resolved_tail;
  // 99 samples: p90 sits at rank 90 with only 9 above it — unresolved.
  CHECK(resolved_tail(iota_samples(99)).q == 0.0);
  // 100 samples: p90 = 90 with exactly ten samples beyond it.
  auto tail = resolved_tail(iota_samples(100));
  CHECK(tail.q == 0.9);
  CHECK(tail.value == 90.0);
  CHECK(tail.beyond == 10);
  // 1,000 samples resolve p99 but not p99.9.
  tail = resolved_tail(iota_samples(1000));
  CHECK(tail.q == 0.99);
  CHECK(tail.value == 990.0);
  CHECK(tail.beyond == 10);
  // 10,000 samples resolve p99.9; 9,999 do not.
  CHECK(resolved_tail(iota_samples(10000)).q == 0.999);
  CHECK(resolved_tail(iota_samples(10000)).value == 9990.0);
  CHECK(resolved_tail(iota_samples(9999)).q == 0.99);
  // A stricter requirement falls back to a lower percentile.
  CHECK(resolved_tail(iota_samples(1000), 11).q == 0.9);
  CHECK(resolved_tail({}).q == 0.0);
}

void test_open_loop_lateness() {
  using ranbench::OpenLoopRecord;
  // Due at 100, written at 130 (the generator ran 30 us late), answered
  // at 180: the request waited 80 us, not the 50 us since the send.
  const OpenLoopRecord r{100.0, 130.0, 180.0};
  CHECK(r.latency_us() == 80.0);
  CHECK(r.late_us() == 30.0);
  // A 50 us stall delays three requests due at 0, 10 and 20; each is
  // charged its whole wait from the schedule, so the stall shows in
  // every one of them.
  const std::vector<OpenLoopRecord> stalled = {
      {0.0, 50.0, 55.0}, {10.0, 50.0, 56.0}, {20.0, 50.0, 57.0}};
  CHECK(stalled[0].latency_us() == 55.0);
  CHECK(stalled[1].latency_us() == 46.0);
  CHECK(stalled[2].latency_us() == 37.0);
  CHECK(stalled[2].late_us() == 30.0);
  std::vector<double> latencies;
  for (const auto& s : stalled) latencies.push_back(s.latency_us());
  CHECK(ranbench::median(latencies) == 46.0);
}

void test_poisson_schedule() {
  using ranbench::poisson_schedule;
  const auto a = poisson_schedule(42, 20000.0, 100000);
  const auto b = poisson_schedule(42, 20000.0, 100000);
  const auto c = poisson_schedule(43, 20000.0, 100000);
  CHECK(a == b);
  CHECK(a != c);
  CHECK(a.size() == 100000);
  bool increasing = true;
  for (std::size_t i = 1; i < a.size(); ++i) increasing &= a[i] > a[i - 1];
  CHECK(increasing);
  // Mean gap 50 us at 20,000 req/s (within 2% over 100k arrivals).
  const double mean_gap = a.back() / static_cast<double>(a.size());
  CHECK(near(mean_gap, 50.0, 1.0));
}

}  // namespace

int main() {
  test_median();
  test_quantile();
  test_window_medians();
  test_resolved_tail();
  test_open_loop_lateness();
  test_poisson_schedule();
  if (failures == 0) std::cout << "stats_test: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
