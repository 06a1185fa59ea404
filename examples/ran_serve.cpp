// The `ran_serve` daemon: maps a cable ISP (or loads a previously saved
// snapshot), publishes the result into a SnapshotHub, and answers
// concurrent topology queries over a loopback JSON-lines protocol until
// SIGINT / --duration expires.
//
//   ./build/examples/ran_serve [--port <p>] [--workers <n>]
//       [--snapshot <file>] [--save-snapshot <file>] [--fixture]
//       [--republish-every <seconds>] [--duration <seconds>]
//       [--port-file <file>] [--telemetry-every <seconds>]
//       [--recorder-capacity <n>] [--burst-threshold <n>]
//
// With --snapshot the daemon skips the measurement campaign entirely and
// serves the saved artifact — the collect-once / serve-forever split.
// --fixture serves a tiny built-in synthetic topology instead (starts in
// milliseconds; what the serve_obs_gate CI test runs against).
// With --republish-every N a background thread rebuilds the snapshot as
// a new generation every N seconds and atomically publishes it;
// in-flight queries keep the generation they started on (the SnapshotHub
// contract), so republishing is invisible except in `ping`'s generation.
//
// Live telemetry (the observability tentpole):
//   * --port-file writes the bound port once serving starts, so
//     scripted clients need no stdout parsing;
//   * --telemetry-every S atomically (temp file + rename) rewrites
//     <out>/ran_serve_telemetry.json (rolling manifest) and
//     <out>/ran_serve_metrics.prom (Prometheus exposition) every S
//     seconds — point a file-based scraper at either;
//   * every answered request lands in a FlightRecorder ring; SIGUSR1
//     dumps the last-N records to <out>/ran_serve_flight.jsonl, the
//     admin {"op":"dump"} reply carries them over the wire, and
//     --burst-threshold N auto-dumps to <out>/ran_serve_burst.jsonl
//     when more than N errors land within one second.
//
// On shutdown the run manifest records the serving metrics: request and
// per-reason error counters plus the per-op request latency histograms
// (count/mean/p50/p90/p99) under volatile.histograms.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>

#include "core/cable_pipeline.hpp"
#include "core/latency_study.hpp"
#include "core/snapshot.hpp"
#include "dnssim/rdns.hpp"
#include "example_util.hpp"
#include "obs/exposition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/manifest.hpp"
#include "obs/provenance.hpp"
#include "serve/server.hpp"
#include "simnet/world.hpp"
#include "topogen/profiles.hpp"
#include "vantage/vps.hpp"

namespace {

std::atomic<bool> g_interrupted{false};
std::atomic<bool> g_dump_requested{false};

void on_signal(int) { g_interrupted.store(true); }
void on_dump_signal(int) { g_dump_requested.store(true); }

/// Writes `body` to `path` atomically (temp file + rename): a concurrent
/// reader sees either the previous complete file or the new one, never a
/// half-written scrape.
bool write_atomic(const std::string& path, const std::string& body) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os{tmp, std::ios::trunc};
    if (!os) return false;
    os << body;
    if (!os.good()) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

/// The built-in --fixture topology: two small regions with measured
/// RTTs and a provenance log — enough surface for every op, built in
/// microseconds. Deterministic, so gate runs are reproducible.
std::shared_ptr<const ran::infer::TopologySnapshot> fixture_snapshot() {
  using namespace ran;
  std::map<std::string, infer::RegionalGraph> regions;
  infer::RegionalGraph& spring = regions["springfield"];
  spring.region = "springfield";
  spring.add_edge("agg1", "edge1", 12);
  spring.add_edge("agg1", "edge2", 9);
  spring.add_edge("agg2", "edge2", 4);
  spring.add_edge("agg2", "edge3", 7);
  spring.agg_cos = {"agg1", "agg2"};
  infer::RegionalGraph& shelby = regions["shelbyville"];
  shelby.region = "shelbyville";
  shelby.add_edge("hub1", "leaf1", 5);
  shelby.add_edge("hub1", "leaf2", 3);
  shelby.agg_cos = {"hub1"};
  auto provenance = std::make_shared<obs::ProvenanceLog>();
  provenance->add_support("agg1", "edge1", 12, "(vp1,10.0.0.1)",
                          "(vp7,10.0.9.9)");
  provenance->record("agg1", "edge1", "adj.transit", true, "12 transits");
  return std::make_shared<const infer::TopologySnapshot>(
      infer::TopologySnapshot::build(
          "fixture", regions, std::move(provenance), 1,
          {{"agg1", 4.0}, {"edge1", 6.5}, {"hub1", 3.0}}));
}

/// Rebuilds `snap` verbatim as generation `gen` — what a real re-ingest
/// would produce when the underlying measurements did not change.
ran::infer::TopologySnapshot rebuild_with_generation(
    const ran::infer::TopologySnapshot& snap, std::uint64_t gen) {
  using namespace ran;
  std::map<std::string, infer::RegionalGraph> regions;
  std::map<std::string, double> rtts;
  for (const auto& [name, region] : snap.regions()) {
    regions.emplace(name, region.regional());
    for (const auto& [co, ms] : region.co_rtt_ms()) rtts[co] = ms;
  }
  std::shared_ptr<const obs::ProvenanceLog> provenance;
  if (snap.provenance() != nullptr)
    provenance = std::make_shared<obs::ProvenanceLog>(*snap.provenance());
  return infer::TopologySnapshot::build(snap.source(), regions,
                                        std::move(provenance), gen, rtts);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ran;
  std::uint16_t port = 0;
  int workers = 4;
  std::string snapshot_path;
  std::string save_path;
  std::string port_file;
  int republish_every_s = 0;
  int duration_s = 0;
  int telemetry_every_s = 0;
  std::size_t recorder_capacity = 256;
  std::uint64_t burst_threshold = 0;
  bool use_fixture = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fixture") == 0) use_fixture = true;
    if (i + 1 >= argc) break;
    if (std::strcmp(argv[i], "--port") == 0)
      port = static_cast<std::uint16_t>(std::atoi(argv[i + 1]));
    else if (std::strcmp(argv[i], "--workers") == 0)
      workers = std::atoi(argv[i + 1]);
    else if (std::strcmp(argv[i], "--snapshot") == 0)
      snapshot_path = argv[i + 1];
    else if (std::strcmp(argv[i], "--save-snapshot") == 0)
      save_path = argv[i + 1];
    else if (std::strcmp(argv[i], "--port-file") == 0)
      port_file = argv[i + 1];
    else if (std::strcmp(argv[i], "--republish-every") == 0)
      republish_every_s = std::atoi(argv[i + 1]);
    else if (std::strcmp(argv[i], "--duration") == 0)
      duration_s = std::atoi(argv[i + 1]);
    else if (std::strcmp(argv[i], "--telemetry-every") == 0)
      telemetry_every_s = std::atoi(argv[i + 1]);
    else if (std::strcmp(argv[i], "--recorder-capacity") == 0)
      recorder_capacity =
          static_cast<std::size_t>(std::atoll(argv[i + 1]));
    else if (std::strcmp(argv[i], "--burst-threshold") == 0)
      burst_threshold = static_cast<std::uint64_t>(std::atoll(argv[i + 1]));
  }
  const auto out = examples::out_dir(argc, argv);
  const auto logger = examples::make_logger(argc, argv, out, "ran_serve");
  obs::Registry metrics;
  metrics.set_logger(logger.get());
  obs::FlightRecorderConfig recorder_config;
  recorder_config.capacity = std::max<std::size_t>(1, recorder_capacity);
  recorder_config.burst_threshold = burst_threshold;
  recorder_config.burst_path = (out / "ran_serve_burst.jsonl").string();
  obs::FlightRecorder recorder{recorder_config};

  // ---- obtain a snapshot: fixture, load from disk, or map an ISP -------
  std::shared_ptr<const infer::TopologySnapshot> snapshot;
  if (use_fixture) {
    snapshot = fixture_snapshot();
    std::cout << "serving the built-in fixture topology ("
              << snapshot->co_count() << " COs, " << snapshot->edge_count()
              << " edges)\n";
  } else if (!snapshot_path.empty()) {
    std::ifstream is{snapshot_path};
    std::string error;
    auto loaded = infer::TopologySnapshot::load(is, &error);
    if (!loaded) {
      std::cerr << "failed to load " << snapshot_path << ": " << error
                << "\n";
      return 1;
    }
    snapshot =
        std::make_shared<const infer::TopologySnapshot>(std::move(*loaded));
    std::cout << "loaded snapshot generation " << snapshot->generation()
              << " (" << snapshot->co_count() << " COs, "
              << snapshot->edge_count() << " edges) from " << snapshot_path
              << "\n";
  } else {
    std::cout << "mapping a Comcast-like ISP (§5 pipeline)...\n";
    sim::World world{909090};
    net::Rng rng{909090};
    auto profile = topo::comcast_profile();
    auto gen_rng = rng.fork();
    const int isp = world.add_isp(topo::generate_cable(profile, gen_rng));
    auto vp_rng = rng.fork();
    const auto vps = vp::add_distributed_vps(world, 24, vp_rng);
    world.finalize();
    auto dns_rng = rng.fork();
    const auto live = dns::make_rdns(world.isp(isp), {}, dns_rng);
    const auto aged = dns::age_snapshot(live, 0.02, dns_rng);
    infer::CablePipelineConfig config;
    config.campaign.metrics = &metrics;
    config.campaign.parallelism = examples::threads(argc, argv, 0);
    const infer::CablePipeline pipeline{world, isp, {&live, &aged}, config};
    const auto study = pipeline.run(vps);
    snapshot = study.snapshot();
    std::cout << "study complete: " << snapshot->co_count() << " COs, "
              << snapshot->edge_count() << " edges across "
              << snapshot->regions().size() << " regions\n";
  }
  if (!save_path.empty()) {
    std::ofstream os{save_path};
    snapshot->save(os);
    std::cout << "snapshot saved to " << save_path << "\n";
  }

  // ---- publish and serve ----------------------------------------------
  infer::SnapshotHub hub;
  hub.publish(snapshot);

  serve::ServerConfig server_config;
  server_config.port = port;
  server_config.worker_threads = workers;
  server_config.metrics = &metrics;
  server_config.log = logger.get();
  server_config.recorder = &recorder;
  serve::Server server{hub, server_config};
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "failed to start: " << error << "\n";
    return 1;
  }
  if (!port_file.empty() &&
      !write_atomic(port_file, std::to_string(server.port()) + "\n"))
    std::cerr << "warning: could not write " << port_file << "\n";
  std::cout << "serving on 127.0.0.1:" << server.port() << " with "
            << workers << " workers — try\n  echo '{\"op\":\"stats\"}' | "
            << "./build/examples/ran_query --port " << server.port()
            << "\n";

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGUSR1, on_dump_signal);

  // Optional rolling telemetry: every S seconds scrape the registry and
  // atomically rewrite the manifest + exposition files. Scrapes are
  // delta-free (nothing is reset), so this thread and any wire scraper
  // never perturb each other.
  const auto telemetry_json = (out / "ran_serve_telemetry.json").string();
  const auto telemetry_prom = (out / "ran_serve_metrics.prom").string();
  std::atomic<bool> telemetry_stop{false};
  std::thread telemetry;
  if (telemetry_every_s > 0) {
    telemetry = std::thread{[&] {
      while (!telemetry_stop.load()) {
        for (int tick = 0; tick < telemetry_every_s * 10; ++tick) {
          if (telemetry_stop.load()) return;
          std::this_thread::sleep_for(std::chrono::milliseconds{100});
        }
        const auto scrape = metrics.scrape();
        write_atomic(telemetry_prom, obs::render_prometheus(scrape));
        obs::RunManifest rolling{"ran_serve"};
        rolling.add_summary("snapshot", "generation",
                            hub.get()->generation());
        rolling.add_summary("serve", "scrape_seq", scrape.scrape_seq);
        rolling.capture(metrics);
        write_atomic(telemetry_json,
                     rolling.to_json(obs::ManifestOptions{
                         .include_timings = true}) +
                         "\n");
      }
    }};
  }

  // Optional background re-ingest: rebuild + atomically publish a new
  // generation on a timer. Queries racing the publish are answered from
  // whichever generation they pinned first — never a torn mix.
  std::atomic<bool> republish_stop{false};
  std::thread republisher;
  if (republish_every_s > 0) {
    republisher = std::thread{[&] {
      std::uint64_t gen = snapshot->generation();
      while (!republish_stop.load()) {
        for (int tick = 0; tick < republish_every_s * 10; ++tick) {
          if (republish_stop.load()) return;
          std::this_thread::sleep_for(std::chrono::milliseconds{100});
        }
        auto next = std::make_shared<const infer::TopologySnapshot>(
            rebuild_with_generation(*hub.get(), ++gen));
        hub.publish(next);
        std::cout << "republished as generation " << gen << "\n";
      }
    }};
  }

  const auto flight_path = (out / "ran_serve_flight.jsonl").string();
  const auto started = std::chrono::steady_clock::now();
  while (!g_interrupted.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds{100});
    if (g_dump_requested.exchange(false)) {
      if (recorder.dump_file(flight_path))
        std::cout << "flight record (" << recorder.record_count()
                  << " requests seen) dumped to " << flight_path << "\n";
      else
        std::cerr << "warning: could not write " << flight_path << "\n";
    }
    if (duration_s > 0 &&
        std::chrono::steady_clock::now() - started >=
            std::chrono::seconds{duration_s})
      break;
  }

  std::cout << "shutting down...\n";
  republish_stop.store(true);
  telemetry_stop.store(true);
  if (republisher.joinable()) republisher.join();
  if (telemetry.joinable()) telemetry.join();
  server.stop();

  obs::RunManifest manifest{"ran_serve"};
  manifest.set_config("workers", static_cast<std::int64_t>(workers));
  manifest.add_summary("snapshot", "generation", hub.get()->generation());
  manifest.add_summary("snapshot", "publishes", hub.publish_count());
  manifest.add_summary("snapshot", "cos",
                       static_cast<std::uint64_t>(hub.get()->co_count()));
  manifest.add_summary("serve", "flight_records", recorder.record_count());
  manifest.add_summary("serve", "burst_dumps", recorder.burst_dumps());
  manifest.add_summary("serve", "request_ids",
                       server.engine().request_ids_issued());
  manifest.capture(metrics);
  const auto manifest_path = (out / "ran_serve_manifest.json").string();
  // The serving metrics ARE the point of this manifest and they are all
  // volatile (request counts, latency histogram) — opt into them.
  if (manifest.write_file(manifest_path,
                          obs::ManifestOptions{.include_timings = true}))
    std::cout << "run manifest written to " << manifest_path << "\n";
  return 0;
}
