// serve_loopback — answering topology and latency queries over loopback
// TCP for applications such as the §5.5 edge-compute study, with no
// pipeline layer involved — and the ServingSession every workload uses.
#include <algorithm>
#include <atomic>
#include <random>
#include <thread>

#include "core/query_engine.hpp"
#include "netbase/protocol.hpp"
#include "netbase/socket.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "serving.hpp"
#include "stats.hpp"

namespace ranbench {

namespace {

using Clock = std::chrono::steady_clock;
using ran::infer::TopologySnapshot;

constexpr double kOpenLoopRate = 20000.0;  // req/s, ~13% of saturation
constexpr int kDepth = 16;                 // closed-loop requests in flight
constexpr int kConnections = 2;
constexpr std::size_t kBlock = 10000;  // completions per sat_qps sample
constexpr std::size_t kMixSize = 4096;
constexpr std::size_t kProbeEvery = 16;  // every 16th mix entry is checked
constexpr std::size_t kRunBatch = 512;   // answers per serve_loopback run_s
constexpr std::size_t kWindow = 5000;    // open-loop requests per p50 window

RequestMix make_mix(const SnapshotPtr& snapshot, std::uint64_t seed) {
  using namespace ran;
  std::mt19937_64 rng{seed};
  std::vector<const infer::RegionSnapshot*> regions;
  for (const auto& [name, region] : snapshot->regions())
    if (region.co_count() > 0) regions.push_back(&region);
  RequestMix mix;
  if (regions.empty()) return mix;
  const auto request = [](std::string_view op, std::string_view region,
                          std::string_view from, std::string_view to) {
    net::LineJsonWriter w;
    w.begin_object();
    w.key("op").value(op);
    w.key("region").value(region);
    if (!from.empty()) w.key("from").value(from).key("to").value(to);
    w.end_object();
    return w.take();
  };
  for (const auto* region : regions)
    mix.lines.push_back(request("resilience", region->region(), {}, {}));
  while (mix.lines.size() < kMixSize) {
    const auto* region = regions[rng() % regions.size()];
    const auto n = static_cast<std::uint32_t>(region->co_count());
    const auto from = static_cast<std::uint32_t>(rng() % n);
    const auto to = static_cast<std::uint32_t>(rng() % n);
    mix.lines.push_back(request(rng() % 2 == 0 ? "path" : "latency",
                                region->region(), region->graph().key(from),
                                region->graph().key(to)));
  }
  std::shuffle(mix.lines.begin(), mix.lines.end(), rng);
  // Expected replies from a bare engine: no telemetry, so no rid.
  infer::SnapshotHub hub;
  hub.publish(snapshot);
  const infer::QueryEngine engine{hub};
  mix.expected.resize(mix.lines.size());
  for (std::size_t i = 0; i < mix.lines.size(); i += kProbeEvery)
    mix.expected[i] = engine.answer(mix.lines[i]);
  return mix;
}

/// The reply with its `,"rid":<n>` field removed.
std::string strip_rid(std::string_view reply) {
  constexpr std::string_view kRid = ",\"rid\":";
  const auto at = reply.find(kRid);
  if (at == std::string_view::npos) return std::string{reply};
  auto end = at + kRid.size();
  while (end < reply.size() && reply[end] >= '0' && reply[end] <= '9') ++end;
  std::string out{reply.substr(0, at)};
  out.append(reply.substr(end));
  return out;
}

/// The same topology as `snapshot`, published as generation gen + 1 —
/// what a re-ingest yields when the measurements did not change.
std::string alternate_generation_json(const TopologySnapshot& snapshot) {
  using namespace ran;
  std::map<std::string, infer::RegionalGraph> regions;
  std::map<std::string, double> rtts;
  for (const auto& [name, region] : snapshot.regions()) {
    regions.emplace(name, region.regional());
    for (const auto& [co, ms] : region.co_rtt_ms()) rtts[co] = ms;
  }
  std::shared_ptr<const obs::ProvenanceLog> provenance;
  if (snapshot.provenance() != nullptr)
    provenance = std::make_shared<obs::ProvenanceLog>(*snapshot.provenance());
  return infer::TopologySnapshot::build(snapshot.source(), regions,
                                        std::move(provenance),
                                        snapshot.generation() + 1, rtts)
      .to_json();
}

/// Adds (sign = 1) or removes (sign = -1) the query ops' latency
/// histogram buckets of `s` to `buckets`.
void add_server_buckets(const ran::obs::MetricsSnapshot& s, int sign,
                        std::map<std::uint64_t, std::int64_t>& buckets) {
  for (const char* op : {"path", "latency", "resilience"}) {
    const auto it =
        s.volatile_histograms.find(std::string{"serve.latency_us."} + op);
    if (it == s.volatile_histograms.end()) continue;
    for (const auto& [lower, count] : it->second.buckets)
      buckets[lower] += sign * static_cast<std::int64_t>(count);
  }
}

/// In-process QueryEngine::answer cost on the mix at one thread: median
/// ns per answer over repeated passes.
double engine_answer_ns(const SnapshotPtr& snapshot, const RequestMix& mix,
                        bool telemetry) {
  using namespace ran;
  obs::Registry metrics;
  obs::FlightRecorder recorder{obs::FlightRecorderConfig{}};
  infer::SnapshotHub hub;
  hub.publish(snapshot);
  infer::QueryEngineConfig config;
  if (telemetry) {
    config.metrics = &metrics;
    config.recorder = &recorder;
  }
  const infer::QueryEngine engine{hub, config};
  std::vector<double> per_answer;
  std::size_t bytes = 0;
  for (int pass = 0; pass < 9; ++pass) {
    const auto start = Clock::now();
    for (const auto& line : mix.lines) bytes += engine.answer(line).size();
    per_answer.push_back(ms_since(start) * 1e6 /
                         static_cast<double>(mix.lines.size()));
  }
  per_answer.erase(per_answer.begin());  // the first pass warms caches
  return bytes > 0 ? median(per_answer) : 0.0;
}

int serve_workers() { return std::min(2, campaign_threads()); }

}  // namespace

SnapshotPtr load_snapshot(const std::string& json) {
  auto parsed = TopologySnapshot::from_json(json);
  if (!parsed) return nullptr;
  return std::make_shared<const TopologySnapshot>(std::move(*parsed));
}

ServingSession::Stack::Stack(const SnapshotPtr& snapshot, int workers,
                             ran::obs::Tracer* tracer)
    : recorder(ran::obs::FlightRecorderConfig{}) {
  if (tracer != nullptr) metrics.set_tracer(tracer);
  hub.attach_metrics(&metrics);
  hub.publish(snapshot);
  ran::serve::ServerConfig config;
  config.worker_threads = workers;
  config.metrics = &metrics;
  config.recorder = &recorder;
  server.emplace(hub, config);
}

double serve_setup_sample(const std::string& json, Report& report) {
  const auto start = Clock::now();
  const auto snapshot = load_snapshot(json);
  if (snapshot == nullptr) {
    report.check(false, "snapshot loads");
    return -1.0;
  }
  ServingSession::Stack stack{snapshot, serve_workers(), nullptr};
  bool ok = stack.server->start();
  if (ok) {
    auto stream = ran::net::TcpStream::connect_local(stack.server->port());
    ok = stream.valid() && stream.send_all("{\"op\":\"ping\"}\n");
    std::string reply;
    char chunk[512];
    while (ok && reply.find('\n') == std::string::npos) {
      std::size_t n = 0;
      ok = stream.read_some(chunk, sizeof(chunk), 5000, &n) ==
           ran::net::TcpStream::ReadResult::kData;
      if (ok) reply.append(chunk, n);
    }
    ok = ok && reply.rfind("{\"ok\":true", 0) == 0;
  }
  const double seconds = ms_since(start) / 1e3;
  report.check(ok, "server start-up answers its first ping");
  stack.server->stop();
  return ok ? seconds : -1.0;
}

ServingSession::ServingSession(const std::string& snapshot_json,
                               const Options& options, Report& report)
    : options_(options), report_(report), json_(snapshot_json) {
  snapshot_ = load_snapshot(json_);
  report_.check(snapshot_ != nullptr, "snapshot JSON loads");
  if (snapshot_ == nullptr) return;
  workers_ = serve_workers();
  report_.context("serve.workers", std::to_string(workers_));
  report_.context("serve.connections", std::to_string(kConnections));
  alt_json_ = alternate_generation_json(*snapshot_);
  mix_ = make_mix(snapshot_, options_.seed);
  report_.check(!mix_.lines.empty(), "request mix is not empty");
  if (mix_.lines.empty()) return;
  stack_ = std::make_unique<Stack>(snapshot_, workers_, nullptr);
  report_.check(stack_->server->start(), "server starts");
  load_ = std::make_unique<LoopbackLoad>(stack_->server->port(),
                                         kConnections);
  report_.check(load_->ok(), "load generator connects");
  if (!load_->ok()) return;
  // Warm-up: connections, worker caches, the mix's first pass.
  const auto warm = load_->closed_loop(
      mix_.lines, &cursor_, kDepth, 0.3, kBlock,
      [this](std::size_t r, std::string_view l) { on_reply(r, l); });
  report_.checks(warm.sent, warm.missing, "warm-up requests answered");
  // Warm the republish path too: the first loads on a fresh thread pay
  // for a new malloc arena, which the republisher threads then reuse.
  std::thread([this] {
    for (const auto* json : {&alt_json_, &json_}) {
      auto snapshot = load_snapshot(*json);
      report_.check(snapshot != nullptr, "warm-up republish loads");
      stack_->hub.publish(std::move(snapshot));
    }
  }).join();
}

ServingSession::~ServingSession() {
  load_.reset();
  if (stack_ != nullptr) stack_->server->stop();
}

void ServingSession::on_reply(std::size_t request, std::string_view line) {
  ++replies_;
  if (line.rfind("{\"ok\":true", 0) != 0) ++not_ok_;
  if (!mix_.expected[request].empty()) {
    ++probed_;
    if (strip_rid(line) != mix_.expected[request]) ++probe_mismatch_;
  }
}

void ServingSession::round(double closed_s, double open_s, int republishes) {
  if (!ok()) return;
  const auto closed = load_->closed_loop(
      mix_.lines, &cursor_, kDepth, closed_s, kBlock,
      [this](std::size_t r, std::string_view l) { on_reply(r, l); });
  report_.checks(closed.sent, closed.missing, "closed-loop requests answered");
  block_qps_.insert(block_qps_.end(), closed.block_qps.begin(),
                    closed.block_qps.end());
  open_slice(*stack_, *load_, open_s, republishes, latency_us_);
  open_seconds_ += open_s;
}

std::vector<double> ServingSession::one_at_a_time(double seconds,
                                                  std::size_t batch) {
  std::vector<double> times;
  if (!ok()) return times;
  const auto result = load_->closed_loop(
      mix_.lines, &cursor_, 1, seconds, batch,
      [this](std::size_t r, std::string_view l) { on_reply(r, l); });
  report_.checks(result.sent, result.missing,
                 "one-at-a-time requests answered");
  for (const double qps : result.block_qps)
    times.push_back(static_cast<double>(batch) / qps);
  return times;
}

void ServingSession::open_slice(Stack& stack, LoopbackLoad& load,
                                double seconds, int republishes,
                                std::vector<double>& latency_us) {
  const auto schedule =
      poisson_schedule(options_.seed * 1000003 + slices_++, kOpenLoopRate,
                       static_cast<std::size_t>(kOpenLoopRate * seconds));
  const auto before = stack.metrics.scrape();
  std::atomic<bool> stop{false};
  std::vector<double> republish_ms;
  std::vector<double> publish_us;
  std::thread republisher([&] {
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds / (republishes + 1)));
    auto next = Clock::now() + interval;
    for (int i = 0; i < republishes; ++i, next += interval) {
      while (Clock::now() < next && !stop.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (stop.load()) break;
      const auto start = Clock::now();
      auto snapshot = load_snapshot((slices_ + i) % 2 == 0 ? alt_json_ : json_);
      if (snapshot == nullptr) continue;  // counted as failed below
      const auto publish_start = Clock::now();
      stack.hub.publish(std::move(snapshot));
      publish_us.push_back(ms_since(publish_start) * 1e3);
      republish_ms.push_back(ms_since(start));
    }
  });
  const auto result = load.open_loop(
      mix_.lines, &cursor_, schedule, 2.0,
      [this](std::size_t r, std::string_view l) { on_reply(r, l); });
  stop.store(true);
  republisher.join();
  report_.checks(schedule.size(), result.missing, "open-loop requests answered");
  report_.checks(static_cast<std::size_t>(republishes),
                 static_cast<std::size_t>(republishes) - republish_ms.size(),
                 "republished snapshots loaded and published");
  if (&stack != stack_.get()) {
    for (const auto& record : result.records)
      latency_us.push_back(record.latency_us());
    return;
  }
  std::vector<double> slice_latency_us;
  for (const auto& record : result.records) {
    slice_latency_us.push_back(record.latency_us());
    late_us_.push_back(record.late_us());
  }
  const auto windows = window_medians(slice_latency_us, kWindow);
  window_p50_us_.insert(window_p50_us_.end(), windows.begin(), windows.end());
  latency_us.insert(latency_us.end(), slice_latency_us.begin(),
                    slice_latency_us.end());
  republish_ms_.insert(republish_ms_.end(), republish_ms.begin(),
                       republish_ms.end());
  publish_us_.insert(publish_us_.end(), publish_us.begin(), publish_us.end());
  add_server_buckets(stack.metrics.scrape(), 1, server_buckets_);
  add_server_buckets(before, -1, server_buckets_);
}

void ServingSession::finish() {
  if (ok()) {
    report_.metric("sat_qps", median(block_qps_), "req/s", block_qps_.size());
    report_.metric("p50_us", quantile(window_p50_us_, 0.25), "us",
                   window_p50_us_.size(), "lower quartile of window medians");
    report_.context("p50_us.pooled", median(latency_us_));
    report_.metric("republish_ms", median(republish_ms_), "ms",
                   republish_ms_.size());
    report_.samples("sat_qps.samples", block_qps_);
    report_.samples("republish_ms.samples", republish_ms_);
    report_.samples("p50_us.windows", window_p50_us_);
    for (const double q : {0.75, 0.9, 0.95, 0.99})
      report_.context("serve.open_loop_p" + std::to_string(int(q * 100)) + "_us",
                      quantile(latency_us_, q));
    const auto tail = resolved_tail(latency_us_);
    report_.context("serve.resolved_tail_q", tail.q);
    report_.context("serve.resolved_tail_us", tail.value);
    if (options_.trace) report_layers();
  }
  load_.reset();
  if (stack_ != nullptr) stack_->server->stop();
  report_.checks(replies_, not_ok_, "replies are ok");
  report_.checks(probed_, probe_mismatch_,
                 "probe replies match the in-process engine");
}

void ServingSession::report_layers() {
  const std::size_t n = latency_us_.size();
  const double p50 = median(latency_us_);
  report_.metric("serve.p90_us", quantile(latency_us_, 0.9), "us", n, "p90");
  report_.metric("serve.p99_us", quantile(latency_us_, 0.99), "us", n, "p99");
  report_.metric("serve.loadgen_late_ms", quantile(late_us_, 0.99) / 1e3,
                 "ms", n, "p99");
  ran::obs::MetricsSnapshot::HistogramData server;
  for (const auto& [lower, count] : server_buckets_) {
    if (count <= 0) continue;
    server.buckets.emplace_back(lower, static_cast<std::uint64_t>(count));
    server.count += static_cast<std::uint64_t>(count);
  }
  const double server_p50 = server.percentile(0.5);
  report_.metric("serve.server_p50_us", server_p50, "us", server.count);
  report_.metric("serve.wire_share", 1.0 - server_p50 / p50, "ratio", n,
                 "ratio of medians");
  report_.metric("serve.hub_publish_us", median(publish_us_), "us",
                 publish_us_.size());
  report_.metric("core.engine.answer_ns",
                 engine_answer_ns(snapshot_, mix_, false), "ns", 8);
  report_.metric("core.engine.answer_ns.telemetry",
                 engine_answer_ns(snapshot_, mix_, true), "ns", 8);

  // Tracing overhead: an equally long open loop against a second server
  // whose registry carries the program's tracer (one span per request).
  ran::obs::Tracer tracer;
  Stack traced{snapshot_, workers_, &tracer};
  report_.check(traced.server->start(), "traced server starts");
  LoopbackLoad traced_load{traced.server->port(), kConnections};
  report_.check(traced_load.ok(), "load generator connects to traced server");
  if (traced_load.ok()) {
    (void)traced_load.closed_loop(
        mix_.lines, &cursor_, kDepth, 0.3, kBlock,
        [this](std::size_t r, std::string_view l) { on_reply(r, l); });
    std::vector<double> traced_latency;
    open_slice(traced, traced_load, open_seconds_, 2, traced_latency);
    report_.metric("obs.trace_overhead_frac",
                   (median(traced_latency) - p50) / p50, "ratio",
                   traced_latency.size());
  }
  traced.server->stop();
}

void run_serve(const Options& options, Report& report) {
  const std::string json = read_file(options.data_dir / "snapshot.json");
  report.check(!json.empty(), "saved snapshot is readable");
  if (json.empty()) return;
  std::vector<double> setup;
  const auto setup_samples = [&](int n) {
    for (int i = 0; i < n; ++i)
      if (const double s = serve_setup_sample(json, report); s >= 0.0)
        setup.push_back(s);
  };
  setup_samples(5);
  ServingSession serving{json, options, report};
  // Rounds of: batches of queries issued one at a time (run_s: the job of
  // an application such as the §5.5 planner walking its CO pairs), a
  // closed and an open slice, and two more set-up samples, so every
  // median rests on samples from the whole run.
  const int rounds = std::max(2, static_cast<int>(options.seconds / 3.0));
  std::vector<double> batches;
  for (int i = 0; i < rounds; ++i) {
    const auto times = serving.one_at_a_time(0.4, kRunBatch);
    batches.insert(batches.end(), times.begin(), times.end());
    serving.round(0.8, 1.8, 4);
    setup_samples(2);
  }
  if (!setup.empty())
    report.metric("setup_s", median(setup), "s", setup.size());
  report.metric("run_s", median(batches), "s", batches.size());
  serving.finish();
}

}  // namespace ranbench
