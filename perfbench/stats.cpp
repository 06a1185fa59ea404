#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <random>

namespace ranbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + mid);
  return (lower + upper) / 2.0;
}

namespace {

/// 0-based nearest-rank index of quantile q among n sorted samples.
std::size_t rank_of(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n) - 1;
}

}  // namespace

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t k = rank_of(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(k),
                   samples.end());
  return samples[k];
}

std::vector<double> window_medians(const std::vector<double>& samples,
                                   std::size_t window) {
  std::vector<double> medians;
  if (window == 0) return medians;
  for (std::size_t begin = 0; begin < samples.size();) {
    const std::size_t end = samples.size() - begin < 2 * window
                                ? samples.size()
                                : begin + window;
    medians.push_back(median(std::vector<double>(
        samples.begin() + static_cast<long>(begin),
        samples.begin() + static_cast<long>(end))));
    begin = end;
  }
  return medians;
}

Tail resolved_tail(std::vector<double> samples, std::size_t min_beyond) {
  Tail tail;
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  for (const double q : {0.9, 0.99, 0.999, 0.9999}) {
    const std::size_t k = rank_of(n, q);
    const std::size_t beyond = n - 1 - k;
    if (beyond < min_beyond) break;
    tail = {q, samples[k], beyond};
  }
  return tail;
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     std::size_t count) {
  std::mt19937_64 rng{seed};
  std::exponential_distribution<double> gap{rate_per_s / 1e6};
  std::vector<double> at;
  at.reserve(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += gap(rng);
    at.push_back(t);
  }
  return at;
}

}  // namespace ranbench
