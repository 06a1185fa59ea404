#include "metrics.hpp"

#include <algorithm>

#include "netbase/contracts.hpp"
#include "resource.hpp"
#include "trace.hpp"

namespace ran::obs {

template <typename T>
T& Registry::lookup(
    std::map<std::string, std::unique_ptr<T>, std::less<>>& store,
    std::string_view name) {
  const std::lock_guard lock{mutex_};
  const auto it = store.find(name);
  if (it != store.end()) return *it->second;
  return *store.emplace(std::string{name}, std::make_unique<T>())
              .first->second;
}

Counter& Registry::counter(std::string_view name) {
  return lookup(counters_, name);
}

Gauge& Registry::gauge(std::string_view name) {
  return lookup(gauges_, name);
}

Histogram& Registry::histogram(std::string_view name) {
  return lookup(histograms_, name);
}

Counter& Registry::volatile_counter(std::string_view name) {
  return lookup(volatile_counters_, name);
}

Gauge& Registry::volatile_gauge(std::string_view name) {
  return lookup(volatile_gauges_, name);
}

Histogram& Registry::volatile_histogram(std::string_view name) {
  return lookup(volatile_histograms_, name);
}

double MetricsSnapshot::HistogramData::percentile(double q) const {
  if (count == 0 || buckets.empty()) return 0.0;
  // A single observation is known exactly (it IS the sum): return it for
  // every q instead of interpolating inside its bucket, so single-sample
  // histograms serialize the true value, not a bucket-midpoint estimate.
  if (count == 1) return static_cast<double>(sum);
  q = std::clamp(q, 0.0, 1.0);
  // The (1-based) rank of the q-th observation under nearest-rank.
  const double rank = q * static_cast<double>(count);
  double seen = 0.0;
  for (const auto& [lower, n] : buckets) {
    const double next = seen + static_cast<double>(n);
    if (next < rank) {
      seen = next;
      continue;
    }
    // Interpolate inside [lower, upper): bucket 0 holds only the value 0.
    if (lower == 0) return 0.0;
    const double upper = static_cast<double>(lower) * 2.0;
    const double fraction =
        n == 0 ? 0.0 : (rank - seen) / static_cast<double>(n);
    return static_cast<double>(lower) +
           (upper - static_cast<double>(lower)) * fraction;
  }
  // q == 1 with rounding slack: the top of the last non-empty bucket.
  const auto last = buckets.back().first;
  return last == 0 ? 0.0 : static_cast<double>(last) * 2.0;
}

namespace {

StageSnapshot copy_stage(const StageNode& node) {
  StageSnapshot out;
  out.name = node.name;
  out.items = node.items;
  out.wall_ms = node.wall_ms;
  out.children.reserve(node.children.size());
  for (const auto& child : node.children)
    out.children.push_back(copy_stage(*child));
  return out;
}

}  // namespace

MetricsSnapshot Registry::snapshot() const {
  const std::lock_guard lock{mutex_};
  MetricsSnapshot out;
  for (const auto& [name, counter] : counters_)
    out.counters.emplace(name, counter->value());
  for (const auto& [name, gauge] : gauges_)
    out.gauges.emplace(name, gauge->value());
  for (const auto& [name, hist] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.count = hist->count();
    data.sum = hist->sum();
    for (int b = 0; b < Histogram::kBuckets; ++b)
      if (const auto n = hist->bucket_count(b); n > 0)
        data.buckets.emplace_back(Histogram::bucket_lower_bound(b), n);
    out.histograms.emplace(name, std::move(data));
  }
  for (const auto& [name, counter] : volatile_counters_)
    out.volatile_counters.emplace(name, counter->value());
  for (const auto& [name, gauge] : volatile_gauges_)
    out.volatile_gauges.emplace(name, gauge->value());
  for (const auto& [name, hist] : volatile_histograms_) {
    MetricsSnapshot::HistogramData data;
    data.count = hist->count();
    data.sum = hist->sum();
    for (int b = 0; b < Histogram::kBuckets; ++b)
      if (const auto n = hist->bucket_count(b); n > 0)
        data.buckets.emplace_back(Histogram::bucket_lower_bound(b), n);
    out.volatile_histograms.emplace(name, std::move(data));
  }
  out.stages = copy_stage(stage_root_);
  return out;
}

MetricsSnapshot Registry::scrape() const {
  auto out = snapshot();
  out.scrape_seq = scrape_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  return out;
}

StageNode* Registry::begin_stage(std::string name) {
  const std::lock_guard lock{mutex_};
  StageNode* parent =
      stage_stack_.empty() ? &stage_root_ : stage_stack_.back();
  parent->children.push_back(std::make_unique<StageNode>());
  StageNode* node = parent->children.back().get();
  node->name = std::move(name);
  stage_stack_.push_back(node);
  return node;
}

void Registry::end_stage(StageNode* node, std::uint64_t items,
                         double wall_ms) {
  const std::lock_guard lock{mutex_};
  RAN_EXPECTS(!stage_stack_.empty() && stage_stack_.back() == node);
  node->items = items;
  node->wall_ms = wall_ms;
  stage_stack_.pop_back();
}

StageTimer::StageTimer(Registry* registry, std::string name)
    : registry_(registry) {
  if (registry_ == nullptr) return;
  traced_ = registry_->tracer() != nullptr;
  profiled_ = registry_->resource_profiler() != nullptr;
  if (traced_ || profiled_) {
    name_ = name;
    if (traced_) registry_->tracer()->begin(name_, "stage");
    if (profiled_) registry_->resource_profiler()->on_stage_begin(name_);
  }
  node_ = registry_->begin_stage(std::move(name));
  start_ = std::chrono::steady_clock::now();
}

void StageTimer::stop() {
  if (registry_ == nullptr) return;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  registry_->end_stage(
      node_, items_,
      std::chrono::duration<double, std::milli>(elapsed).count());
  // Guarded on what the constructor saw: a tracer or profiler attached
  // mid-stage must not see an end with no matching begin.
  if (traced_)
    if (auto* tracer = registry_->tracer()) tracer->end(name_);
  if (profiled_)
    if (auto* profiler = registry_->resource_profiler())
      profiler->on_stage_end(name_);
  registry_ = nullptr;
}

StageTimer::~StageTimer() { stop(); }

}  // namespace ran::obs
