// cable_comcast: the full §5 pipeline on the Comcast profile, run the way
// a user maps one carrier — every rep builds a fresh World and rDNS and
// calls CablePipeline::run at campaign parallelism min(4, nproc), with a
// Registry attached to the World and the campaign exactly as
// map_cable_isp attaches one. The first rep is cold and only checked.
#include <algorithm>
#include <sstream>

#include "bench.hpp"
#include "core/cable_pipeline.hpp"
#include "core/corpus_io.hpp"
#include "core/snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "probe/campaign.hpp"
#include "serving.hpp"
#include "stats.hpp"
#include "topogen/profiles.hpp"

namespace ranbench {

using Clock = std::chrono::steady_clock;

CableWorld make_cable_world(std::uint64_t seed, SetupTimes* times) {
  using namespace ran;
  SetupTimes local;
  SetupTimes& t = times != nullptr ? *times : local;
  CableWorld out;
  out.world = std::make_unique<sim::World>(seed);
  net::Rng rng{seed};
  auto start = Clock::now();
  auto gen_rng = rng.fork();
  out.isp = out.world->add_isp(
      topo::generate_cable(topo::comcast_profile(), gen_rng));
  t.generate_ms = ms_since(start);
  auto vp_rng = rng.fork();
  out.vps = vp::add_distributed_vps(*out.world, 47, vp_rng);
  start = Clock::now();
  out.world->finalize();
  t.finalize_ms = ms_since(start);
  // The rDNS noise bench/common.hpp gives Comcast (location-tag naming,
  // many outdated names).
  start = Clock::now();
  auto dns_rng = rng.fork();
  dns::RdnsNoise noise;
  noise.missing_prob = 0.08;
  noise.stale_prob = 0.05;
  noise.stale_cross_region_frac = 0.40;
  out.live = dns::make_rdns(out.world->isp(out.isp), noise, dns_rng);
  out.aged = dns::age_snapshot(out.live, 0.02, dns_rng);
  t.rdns_ms = ms_since(start);
  return out;
}

namespace {

struct RepResult {
  double setup_ms = 0.0;
  double run_ms = 0.0;
  std::size_t traces = 0;
  std::string snapshot_json;
  std::shared_ptr<const ran::infer::TopologySnapshot> snapshot;
  ran::obs::MetricsSnapshot metrics;  ///< traced reps only
};

/// One rep: fresh world + rDNS, then one timed CablePipeline::run.
RepResult run_rep(std::uint64_t seed, int threads, bool traced) {
  using namespace ran;
  RepResult rep;
  obs::Registry metrics;
  obs::Tracer tracer;
  if (traced) metrics.set_tracer(&tracer);
  const auto setup_start = Clock::now();
  CableWorld cw = make_cable_world(seed);
  rep.setup_ms = ms_since(setup_start);
  cw.world->set_metrics(&metrics);
  infer::CablePipelineConfig config;
  config.campaign.metrics = &metrics;
  config.campaign.parallelism = threads;
  const infer::CablePipeline pipeline{*cw.world, cw.isp,
                                      {&cw.live, &cw.aged}, config};
  const auto run_start = Clock::now();
  const auto study = pipeline.run(cw.vps);
  rep.run_ms = ms_since(run_start);
  rep.traces = study.corpus().size();
  rep.snapshot = study.snapshot();
  if (rep.snapshot != nullptr) rep.snapshot_json = rep.snapshot->to_json();
  if (traced) rep.metrics = metrics.snapshot();
  return rep;
}

/// One address per EdgeCO — the last-mile gateway behind it — as the
/// target list of the bare campaign-grid measurement.
std::vector<ran::net::IPv4Address> edge_co_targets(const CableWorld& cw) {
  std::vector<ran::net::IPv4Address> targets;
  std::vector<char> seen(cw.world->isp(cw.isp).cos().size(), 0);
  for (const auto& lm : cw.world->isp(cw.isp).last_miles()) {
    if (lm.edge_co >= seen.size() || seen[lm.edge_co] != 0) continue;
    seen[lm.edge_co] = 1;
    targets.push_back(lm.gw_addr);
  }
  return targets;
}

/// Checks one rep against the first: same corpus size, same snapshot.
void check_rep(const RepResult& rep, const RepResult& first, Report& report,
               const std::string& what) {
  report.check(rep.snapshot != nullptr && rep.traces > 0 &&
                   rep.traces == first.traces &&
                   rep.snapshot_json == first.snapshot_json,
               what + ": corpus size and snapshot JSON equal the first rep's");
}

void trace_cable(const Options& options, Report& report) {
  using namespace ran;
  const int threads = campaign_threads();
  report.context("threads", std::to_string(threads));

  // Setup calls, timed one by one (median of several worlds).
  std::vector<double> generate, finalize, rdns;
  for (int i = 0; i < 5; ++i) {
    SetupTimes t;
    (void)make_cable_world(options.seed, &t);
    generate.push_back(t.generate_ms);
    finalize.push_back(t.finalize_ms);
    rdns.push_back(t.rdns_ms);
  }
  report.metric("topogen.generate_ms", median(generate), "ms", 5);
  report.metric("simnet.finalize_ms", median(finalize), "ms", 5);
  report.metric("dnssim.rdns_ms", median(rdns), "ms", 5);

  // Untraced reference reps alternate with traced reps (program tracer
  // attached), so host drift does not land on one side only.
  const RepResult first = run_rep(options.seed, threads, false);
  std::vector<double> untraced;
  std::vector<RepResult> traced;
  for (int i = 0; i < 3; ++i) {
    const auto rep = run_rep(options.seed, threads, false);
    check_rep(rep, first, report, "untraced rep");
    untraced.push_back(rep.run_ms);
    traced.push_back(run_rep(options.seed, threads, true));
    check_rep(traced.back(), first, report, "traced rep");
  }
  // Report every stage from the median-wall traced rep, so the stage
  // times and core.unstaged_ms add up to exactly that rep's wall time.
  std::sort(traced.begin(), traced.end(),
            [](const RepResult& a, const RepResult& b) {
              return a.run_ms < b.run_ms;
            });
  const RepResult& mid = traced[traced.size() / 2];
  std::map<std::string, double> stage_ms;
  double staged = 0.0;
  for (const auto& stage : mid.metrics.stages.children) {
    stage_ms[stage.name] += stage.wall_ms;
    staged += stage.wall_ms;
  }
  const std::vector<std::pair<std::string, std::string>> stage_metrics = {
      {"sweep", "probe.sweep_ms"},
      {"rdns", "probe.rdns_ms"},
      {"followup", "probe.followup_ms"},
      {"alias", "probe.alias_ms"},
      {"b1_mapping", "core.b1_mapping_ms"},
      {"b2_prune", "core.b2_prune_ms"},
      {"refine", "core.refine_stage_ms"}};
  double listed = 0.0;
  for (const auto& [stage, metric] : stage_metrics) {
    report.check(stage_ms.contains(stage), "stage '" + stage + "' recorded");
    report.metric(metric, stage_ms[stage], "ms", 1);
    listed += stage_ms[stage];
  }
  report.check(std::abs(listed - staged) < 1e-6,
               "every top-level stage has a metric");
  const double unstaged = mid.run_ms - staged;
  report.metric("core.unstaged_ms", unstaged, "ms", 1);
  report.metric("core.stage_coverage", staged / mid.run_ms, "ratio", 1);
  report.context("cable.traced_run_ms", mid.run_ms);

  const auto counter = [&](const std::string& name) {
    const auto it = mid.metrics.volatile_counters.find(name);
    return it == mid.metrics.volatile_counters.end()
               ? 0.0
               : static_cast<double>(it->second);
  };
  const double hits = counter("sim.route_cache.hits");
  const double misses = counter("sim.route_cache.misses");
  report.metric("simnet.route_hit_ratio",
                hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio", 1);
  report.metric("simnet.route_misses", misses, "count", 1);
  report.metric("simnet.route_evictions",
                counter("sim.route_cache.evictions"), "count", 1);
  report.metric("simnet.route_insert_races",
                counter("sim.route_cache.insert_races"), "count", 1);

  std::vector<double> traced_ms;
  for (const auto& rep : traced) traced_ms.push_back(rep.run_ms);
  const double base = median(untraced);
  report.metric("obs.trace_overhead_frac", (median(traced_ms) - base) / base,
                "ratio", traced.size());

  // Thread invariance: a 1-thread rep must produce the same study.
  const auto serial = run_rep(options.seed, 1, false);
  check_rep(serial, first, report, "1-thread rep");

  // The bare campaign grid at 1 and T threads (alternating, median of 3).
  CableWorld cw = make_cable_world(options.seed);
  obs::Registry grid_metrics;
  cw.world->set_metrics(&grid_metrics);
  const auto tasks = probe::grid_tasks(cw.vps, edge_co_targets(cw));
  std::vector<double> t1, tn;
  std::string reference;
  for (int i = 0; i < 3; ++i) {
    for (const int t : {1, threads}) {
      probe::CampaignConfig config;
      config.parallelism = t;
      config.metrics = &grid_metrics;
      const probe::CampaignRunner runner{*cw.world, config};
      infer::TraceCorpus corpus;
      const auto start = Clock::now();
      corpus.traces = runner.run(tasks);
      (t == 1 ? t1 : tn).push_back(ms_since(start));
      std::ostringstream os;
      infer::write_corpus(os, corpus);
      if (reference.empty())
        reference = os.str();
      else
        report.check(os.str() == reference,
                     "campaign grid corpus is thread-invariant");
    }
  }
  report.metric("probe.grid_ms.t1", median(t1), "ms", t1.size());
  report.metric("probe.grid_ms.tN", median(tn), "ms", tn.size());
  report.metric("probe.speedup", median(t1) / median(tn), "ratio", tn.size());
  report.metric("probe.traces_per_s",
                static_cast<double>(tasks.size()) / (median(tn) / 1e3), "1/s",
                tn.size());
  report.context("probe.grid_tasks", static_cast<double>(tasks.size()));
}

}  // namespace

void run_cable(const Options& options, Report& report) {
  if (options.trace) {
    trace_cable(options, report);
    return;
  }
  const int threads = campaign_threads();
  report.context("threads", std::to_string(threads));
  // Fixed rep counts (peak RSS grows with reps, so it must not depend
  // on how fast this host is): one cold rep, then `warm` timed ones, each
  // followed by a serving round on the topology the cold rep inferred.
  const int warm = std::max(3, static_cast<int>(options.seconds * 0.5));
  const RepResult first = run_rep(options.seed, threads, false);
  report.check(first.snapshot != nullptr && first.traces > 0,
               "cold rep produced a corpus and a snapshot");
  ServingSession serving{first.snapshot_json, options, report};
  // The cold rep's set-up is not a sample: it pays the first page faults.
  std::vector<double> setup;
  std::vector<double> run;
  for (int i = 0; i < warm; ++i) {
    const auto rep = run_rep(options.seed, threads, false);
    check_rep(rep, first, report, "warm rep");
    setup.push_back(rep.setup_ms / 1e3);
    run.push_back(rep.run_ms / 1e3);
    // World set-up is short next to a run: time a few more worlds alone
    // after every rep, so its median rests on samples from the whole run.
    for (int j = 0; j < 3; ++j) {
      const auto start = Clock::now();
      (void)make_cable_world(options.seed);
      setup.push_back(ms_since(start) / 1e3);
    }
    serving.round(0.25, 0.5, 2);
  }
  report.metric("setup_s", median(setup), "s", setup.size());
  report.metric("run_s", median(run), "s", run.size());
  report.samples("run_s.samples", run);
  report.context("cable.traces", static_cast<double>(first.traces));
  serving.finish();
}

}  // namespace ranbench
