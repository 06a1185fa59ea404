#include "campaign.hpp"

#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_set>

#include "netbase/strings.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace ran::probe {

namespace {

/// Indexes per counter fetch: large enough to amortize the atomic,
/// small enough to balance uneven per-trace cost.
constexpr std::size_t kBlock = 16;

/// Runs fn(worker, i) for every i in [0, count), handing out `block`
/// consecutive indexes per counter fetch. Starts no more workers than
/// there are blocks; a single worker runs inline on the calling thread.
void run_blocks(std::size_t count, int threads, std::size_t block,
                const std::function<void(int, std::size_t)>& fn) {
  const std::size_t blocks = (count + block - 1) / block;
  const auto workers = static_cast<int>(
      std::min(blocks, static_cast<std::size_t>(resolve_threads(threads))));
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(0, i);
    return;
  }
  std::atomic<std::size_t> next{0};
  auto worker = [&](int id) {
    while (true) {
      const std::size_t begin = next.fetch_add(block);
      if (begin >= count) return;
      const std::size_t end = std::min(begin + block, count);
      for (std::size_t i = begin; i < end; ++i) fn(id, i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers) - 1);
  for (int t = 1; t < workers; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (auto& th : pool) th.join();
}

}  // namespace

int resolve_threads(int threads) {
  if (threads > 0) return threads;
  const auto hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void parallel_for_indexed(std::size_t count, int threads,
                          const std::function<void(int, std::size_t)>& fn) {
  run_blocks(count, threads, kBlock, fn);
}

void parallel_for(std::size_t count, int threads,
                  const std::function<void(std::size_t)>& fn) {
  run_blocks(count, threads, 1, [&fn](int, std::size_t i) { fn(i); });
}

CampaignRunner::CampaignRunner(const sim::World& world,
                               const CampaignConfig& config)
    : engine_(world, config.trace, config.metrics),
      threads_(resolve_threads(config.parallelism)),
      metrics_(config.metrics),
      trace_sample_(config.trace_sample) {}

std::vector<TraceRecord> CampaignRunner::run(
    std::span<const ProbeTask> tasks) const {
  using Clock = std::chrono::steady_clock;
  // Warm the per-source route tables up front so the pool runs against a
  // read-mostly cache instead of racing to fill it.
  if (threads_ > 1) {
    std::unordered_set<sim::NodeId> seen;
    std::vector<sim::ProbeSource> sources;
    for (const auto& task : tasks)
      if (seen.insert(task.src.node).second) sources.push_back(task.src);
    engine_.world().warm_routes(sources);
  }
  std::vector<TraceRecord> out(tasks.size());
  // Batch-outcome accounting: workers tally reached/silent into their
  // own slot, summed after the join. Sums commute, so the totals (and the
  // canonical log view below) stay byte-stable at any thread count.
  struct BatchTally {
    std::size_t reached = 0;
    std::size_t silent = 0;
  };
  std::vector<BatchTally> partial(static_cast<std::size_t>(threads_));
  // Per-worker cumulative task counts, published as per-thread 'C'
  // counter events at shard ends while tracing — task throughput lands
  // on each worker's track in the exported timeline.
  std::vector<std::uint64_t> tasks_done(static_cast<std::size_t>(threads_),
                                        0);
  obs::Log* log = metrics_ != nullptr ? metrics_->logger() : nullptr;
  const bool tally = metrics_ != nullptr || log != nullptr;
  // Tracing rides along when the registry carries a tracer: one span per
  // kBlock shard (shards are handed to a worker whole, so B/E pairs nest
  // per thread) plus sampled per-probe instants. A null tracer keeps the
  // hot loop at a single pointer test.
  obs::Tracer* tracer = metrics_ != nullptr ? metrics_->tracer() : nullptr;
  const auto shard_name = [&tasks](std::size_t i) {
    const std::size_t begin = i - i % kBlock;
    const std::size_t end = std::min(begin + kBlock, tasks.size());
    return net::format("shard[%zu,%zu)", begin, end);
  };
  const auto t0 = Clock::now();
  parallel_for_indexed(tasks.size(), threads_, [&](int worker,
                                                   std::size_t i) {
    const auto& task = tasks[i];
    const auto w = static_cast<std::size_t>(worker);
    if (tracer != nullptr && i % kBlock == 0)
      tracer->begin(shard_name(i), "campaign");
    out[i] = engine_.run(task.src, task.dst, task.vp, task.flow_id);
    const bool shard_end = (i + 1) % kBlock == 0 || i + 1 == tasks.size();
    if (tally) {
      const auto& record = out[i];
      partial[w].reached += record.reached;
      bool any = false;
      for (const auto& hop : record.hops) any = any || hop.responded();
      partial[w].silent += !any;
      tasks_done[w] += 1;
    }
    if (tracer != nullptr) {
      if (trace_sample_ > 0 &&
          i % static_cast<std::size_t>(trace_sample_) == 0)
        tracer->instant(
            net::format("probe %s -> %s", task.vp.c_str(),
                        task.dst.to_string().c_str()),
            "probe");
      if (shard_end) {
        tracer->end(shard_name(i));
        tracer->counter("campaign.tasks_done", tasks_done[w]);
      }
    }
  });
  if (metrics_ != nullptr) {
    metrics_->counter("campaign.tasks").inc(tasks.size());
    metrics_->counter("campaign.batches").inc();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    metrics_->volatile_gauge("campaign.threads")
        .set(static_cast<double>(threads_));
    if (wall_ms > 0.0)
      metrics_->volatile_gauge("campaign.tasks_per_sec")
          .set(static_cast<double>(tasks.size()) / wall_ms * 1000.0);
  }
  // Batch outcome logging happens on the joined main thread and depends
  // only on the (deterministic) trace results, never on scheduling — the
  // canonical log view stays byte-stable at any thread count.
  if (log != nullptr && !tasks.empty()) {
    std::size_t reached = 0;
    std::size_t silent = 0;
    for (const auto& worker_tally : partial) {
      reached += worker_tally.reached;
      silent += worker_tally.silent;
    }
    if (silent == out.size())
      log->warn("campaign.batch",
                net::format("campaign batch of %zu probe(s) saw no "
                            "responding hop at all",
                            out.size()));
    else if (log->enabled(obs::LogLevel::kInfo))
      log->info("campaign.batch",
                net::format("campaign batch: %zu probe(s), %zu reached "
                            "their target, %zu fully silent",
                            out.size(), reached, silent));
  }
  return out;
}

}  // namespace ran::probe
