// offline_comcast: the offline_analysis flow at one thread. `prepare`
// runs the Comcast campaign once per seed and saves its corpus and rDNS
// table (and the study's snapshot, which serve_loopback serves) before
// any measured process starts. The measured process repeats one pass:
// lenient read_corpus + read_rdns from those files, CorpusIndex::build,
// build_co_mapping, build_and_prune, refine_regions,
// TopologySnapshot::build, save to memory, load back.
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "core/cable_pipeline.hpp"
#include "core/corpus_index.hpp"
#include "core/corpus_io.hpp"
#include "core/snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "serving.hpp"
#include "stats.hpp"

namespace ranbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

int prepare_inputs(std::uint64_t seed, const fs::path& out) {
  using namespace ran;
  CableWorld cw = make_cable_world(seed);
  obs::Registry metrics;
  cw.world->set_metrics(&metrics);
  infer::CablePipelineConfig config;
  config.campaign.metrics = &metrics;
  config.campaign.parallelism = campaign_threads();
  const infer::CablePipeline pipeline{*cw.world, cw.isp,
                                      {&cw.live, &cw.aged}, config};
  const auto study = pipeline.run(cw.vps);
  if (study.snapshot() == nullptr) return 1;
  fs::create_directories(out);
  // Each file lands under its final name only once complete.
  const auto write = [&](const std::string& name, const auto& body) {
    const fs::path tmp = out / (name + ".tmp");
    {
      std::ofstream os{tmp, std::ios::trunc};
      body(os);
      if (!os.good()) return false;
    }
    fs::rename(tmp, out / name);
    return true;
  };
  const bool ok =
      write("corpus.txt",
            [&](std::ostream& os) { infer::write_corpus(os, study.corpus()); }) &&
      write("rdns.txt",
            [&](std::ostream& os) { infer::write_rdns(os, cw.live); }) &&
      write("snapshot.json",
            [&](std::ostream& os) { study.snapshot()->save(os); });
  return ok ? 0 : 1;
}

namespace {

struct PassResult {
  double total_ms = 0.0;
  double corpus_ms = 0.0;
  double rdns_ms = 0.0;
  double index_ms = 0.0;
  double co_mapping_ms = 0.0;
  double prune_ms = 0.0;
  double refine_ms = 0.0;
  double build_ms = 0.0;
  double save_ms = 0.0;
  double load_ms = 0.0;
  std::size_t json_bytes = 0;
  std::size_t traces = 0;
  bool ingest_clean = false;  ///< no skipped lines or traces
  bool round_trip = false;    ///< reloaded to_json() == built to_json()
  std::string json;
};

/// One offline pass over the saved inputs, every call timed.
PassResult offline_pass(const fs::path& dir) {
  using namespace ran;
  PassResult r;
  obs::Registry metrics;
  const auto pass_start = Clock::now();

  auto start = Clock::now();
  std::ifstream corpus_in{dir / "corpus.txt"};
  const infer::IngestConfig ingest{infer::IngestMode::kLenient,
                                   /*reject_duplicate_traces=*/false,
                                   &metrics, nullptr};
  infer::ParseReport corpus_report;
  const auto corpus = infer::read_corpus(corpus_in, ingest, &corpus_report);
  r.corpus_ms = ms_since(start);
  start = Clock::now();
  std::ifstream rdns_in{dir / "rdns.txt"};
  infer::ParseReport rdns_report;
  const auto rdns_db = infer::read_rdns(rdns_in, ingest, &rdns_report);
  r.rdns_ms = ms_since(start);
  if (!corpus || !rdns_db) return r;

  start = Clock::now();
  const auto index = infer::CorpusIndex::build(*corpus);
  r.index_ms = ms_since(start);

  start = Clock::now();
  const infer::RdnsSources sources{&*rdns_db, nullptr};
  const auto addrs = corpus->responding_addresses();
  obs::ProvenanceLog provenance;
  std::vector<infer::WeightedAdjacency> pairs;
  for (const auto& record : index.pairs())
    if (record.transit_count > 0)
      pairs.push_back({record.a, record.b,
                       static_cast<int>(record.transit_count),
                       record.last_transit_seq});
  const auto mapping = infer::build_co_mapping(
      addrs, pairs, infer::detect_p2p_len(addrs), sources,
      infer::RouterClusters{}, &provenance, nullptr);
  r.co_mapping_ms = ms_since(start);

  start = Clock::now();
  auto pruned = infer::build_and_prune(*corpus, index, mapping.map, {},
                                       &provenance, nullptr, 1);
  r.prune_ms = ms_since(start);

  start = Clock::now();
  infer::RefineOptions refine_options;
  refine_options.threads = 1;
  (void)infer::refine_regions(pruned.regions, index, mapping.map,
                              refine_options, &provenance);
  r.refine_ms = ms_since(start);

  start = Clock::now();
  const auto built = infer::TopologySnapshot::build(
      "offline", pruned.regions,
      std::make_shared<obs::ProvenanceLog>(provenance), 1);
  r.build_ms = ms_since(start);

  start = Clock::now();
  std::ostringstream saved;
  built.save(saved);
  r.save_ms = ms_since(start);

  start = Clock::now();
  std::istringstream saved_in{saved.str()};
  const auto reloaded = infer::TopologySnapshot::load(saved_in);
  r.load_ms = ms_since(start);
  r.total_ms = ms_since(pass_start);

  // Checks, outside every timed region.
  r.traces = corpus->size();
  r.ingest_clean = corpus_report.skipped_lines == 0 &&
                   corpus_report.skipped_traces == 0 &&
                   rdns_report.skipped_lines == 0 && r.traces > 0;
  r.json = built.to_json();
  r.json_bytes = saved.str().size();
  r.round_trip = reloaded.has_value() && reloaded->to_json() == r.json;
  return r;
}

/// A cold pass in a fresh child process: its wall time in ms, or a
/// negative value when the child failed or its pass did not check out.
double cold_pass_in_child(const fs::path& dir) {
  int fds[2];
  if (::pipe(fds) != 0) return -1.0;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return -1.0;
  }
  if (pid == 0) {
    ::close(fds[0]);
    double ms = -1.0;
    try {
      const auto r = offline_pass(dir);
      if (r.ingest_clean && r.round_trip) ms = r.total_ms;
    } catch (...) {
    }
    const bool sent = ::write(fds[1], &ms, sizeof(ms)) == sizeof(ms);
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  double ms = -1.0;
  if (::read(fds[0], &ms, sizeof(ms)) != sizeof(ms)) ms = -1.0;
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1.0;
  return ms;
}

void check_pass(const PassResult& r, const PassResult& first, Report& report) {
  report.check(r.ingest_clean, "offline pass: ingest skipped nothing");
  report.check(r.round_trip,
               "offline pass: reloaded snapshot equals the built one");
  report.check(r.json == first.json && r.traces == first.traces,
               "offline pass: same snapshot as the first pass");
}

void trace_offline(const Options& options, Report& report) {
  const PassResult first = offline_pass(options.data_dir);
  check_pass(first, first, report);
  // The offline flow has no tracer to switch on, so it reports no
  // obs.trace_overhead_frac: every pass is timed call by call alike.
  std::vector<PassResult> passes;
  for (int i = 0; i < 5; ++i) {
    passes.push_back(offline_pass(options.data_dir));
    check_pass(passes.back(), first, report);
  }
  const auto med = [&](double PassResult::*field) {
    std::vector<double> v;
    for (const auto& p : passes) v.push_back(p.*field);
    return median(v);
  };
  const std::size_t n = passes.size();
  report.metric("core.ingest.corpus_ms", med(&PassResult::corpus_ms), "ms", n);
  report.metric("core.ingest.rdns_ms", med(&PassResult::rdns_ms), "ms", n);
  const double corpus_mb =
      static_cast<double>(fs::file_size(options.data_dir / "corpus.txt")) /
      1e6;
  report.metric("core.ingest.mb_per_s",
                corpus_mb / (med(&PassResult::corpus_ms) / 1e3), "MB/s", n);
  report.metric("core.index_ms", med(&PassResult::index_ms), "ms", n);
  report.metric("core.co_mapping_ms", med(&PassResult::co_mapping_ms), "ms",
                n);
  report.metric("core.prune_ms", med(&PassResult::prune_ms), "ms", n);
  report.metric("core.refine_ms", med(&PassResult::refine_ms), "ms", n);
  report.metric("core.snapshot.build_ms", med(&PassResult::build_ms), "ms", n);
  report.metric("core.snapshot.save_ms", med(&PassResult::save_ms), "ms", n);
  report.metric("core.snapshot.load_ms", med(&PassResult::load_ms), "ms", n);
  report.metric("core.snapshot.json_mb",
                static_cast<double>(first.json_bytes) / 1e6, "MB", 1);
}

}  // namespace

void run_offline(const Options& options, Report& report) {
  report.context("threads", "1");
  if (options.trace) {
    trace_offline(options, report);
    return;
  }
  // Set-up is the cold first pass a user pays on every fresh process;
  // each sample runs in its own child so it is cold for real.
  std::vector<double> cold;
  for (int i = 0; i < 3; ++i) {
    const double ms = cold_pass_in_child(options.data_dir);
    report.check(ms > 0.0, "cold offline pass in a child process");
    if (ms > 0.0) cold.push_back(ms / 1e3);
  }
  const PassResult first = offline_pass(options.data_dir);
  check_pass(first, first, report);
  // Each warm pass is followed by a serving round on the topology the
  // first pass inferred.
  ServingSession serving{first.json, options, report};
  const int warm = std::max(3, static_cast<int>(options.seconds * 0.5));
  std::vector<double> run;
  for (int i = 0; i < warm; ++i) {
    const auto pass = offline_pass(options.data_dir);
    check_pass(pass, first, report);
    run.push_back(pass.total_ms / 1e3);
    serving.round(0.25, 0.5, 2);
  }
  report.metric("setup_s", median(cold), "s", cold.size());
  report.metric("run_s", median(run), "s", run.size());
  report.samples("run_s.samples", run);
  report.context("offline.traces", static_cast<double>(first.traces));
  serving.finish();
}

}  // namespace ranbench
