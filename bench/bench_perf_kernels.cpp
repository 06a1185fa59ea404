// Performance microbenchmarks (google-benchmark) for the simulator and
// inference kernels — not a paper artifact, but the scalability story a
// downstream user cares about: traceroute throughput, alias resolution,
// CO mapping, graph refinement, and the mobile bit-field analysis.
#include <benchmark/benchmark.h>

#include "common.hpp"
#include "core/corpus_index.hpp"
#include "core/csr_graph.hpp"
#include "netbase/strings.hpp"
#include "obs/trace.hpp"
#include "probe/campaign.hpp"

namespace {

using namespace ran;

const bench::CableBundle& cable_bundle() {
  static const auto bundle = bench::make_cable_bundle();
  return *bundle;
}

const infer::CableStudy& comcast_study() {
  static const auto study =
      bench::run_cable_study(cable_bundle(), cable_bundle().comcast);
  return study;
}

void BM_Traceroute(benchmark::State& state) {
  const auto& bundle = cable_bundle();
  const probe::TracerouteEngine engine{bundle.world, {}};
  const auto targets = infer::edge_co_targets(comcast_study());
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& vp = bundle.vps[i % bundle.vps.size()];
    const auto& target = targets[i % targets.size()];
    benchmark::DoNotOptimize(engine.run(vp.source(), target.addr, vp.name));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Traceroute);

void BM_CampaignParallel(benchmark::State& state) {
  const auto& bundle = cable_bundle();
  const auto targets = infer::edge_co_targets(comcast_study());
  std::vector<probe::ProbeTask> tasks;
  for (const auto& vp : bundle.vps)
    for (std::size_t t = 0; t < std::min<std::size_t>(targets.size(), 256); ++t)
      tasks.push_back({vp.source(), vp.name, targets[t].addr, 0});
  const probe::CampaignRunner runner{
      bundle.world, {.parallelism = static_cast<int>(state.range(0))}};
  for (auto _ : state) benchmark::DoNotOptimize(runner.run(tasks));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tasks.size()));
}
BENCHMARK(BM_CampaignParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// The tracer cost contract: Arg(0) runs the campaign with tracing
// disabled (null tracer — the instrumented hot loop is one pointer
// test), Arg(1) with a live tracer collecting shard spans + sampled
// probe instants. The disabled path must stay within noise (<2%) of
// BM_CampaignParallel/4.
void BM_CampaignTraced(benchmark::State& state) {
  const auto& bundle = cable_bundle();
  const auto targets = infer::edge_co_targets(comcast_study());
  std::vector<probe::ProbeTask> tasks;
  for (const auto& vp : bundle.vps)
    for (std::size_t t = 0; t < std::min<std::size_t>(targets.size(), 256);
         ++t)
      tasks.push_back({vp.source(), vp.name, targets[t].addr, 0});
  obs::Registry metrics;
  obs::Tracer tracer;
  if (state.range(0) != 0) metrics.set_tracer(&tracer);
  probe::CampaignConfig config;
  config.parallelism = 4;
  config.metrics = &metrics;
  const probe::CampaignRunner runner{bundle.world, config};
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(tasks));
    // Drop the events between iterations so the timed region measures
    // recording cost, not an ever-growing export buffer.
    if (state.range(0) != 0) tracer.reset();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tasks.size()));
}
BENCHMARK(BM_CampaignTraced)->Arg(0)->Arg(1)->UseRealTime();

void BM_Ping(benchmark::State& state) {
  const auto& bundle = cable_bundle();
  const auto targets = infer::edge_co_targets(comcast_study());
  const auto vp = bundle.clouds.front().source();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bundle.world.ping(vp, targets[i % targets.size()].addr));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Ping);

void BM_MidarResolve(benchmark::State& state) {
  const auto& bundle = cable_bundle();
  std::vector<net::IPv4Address> addrs;
  const auto& isp = bundle.world.isp(bundle.comcast);
  for (const auto& iface : isp.ifaces()) {
    if (iface.addr.is_unspecified() || iface.p2p_len == 0) continue;
    addrs.push_back(iface.addr);
    if (addrs.size() >= static_cast<std::size_t>(state.range(0))) break;
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(probe::midar_resolve(bundle.world, addrs));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(addrs.size()));
}
BENCHMARK(BM_MidarResolve)->Arg(256)->Arg(1024)->Arg(4096);

// The three phase-2 kernels measure the CorpusIndex-based APIs the
// pipelines run. The index itself is built once, untimed —
// BM_CorpusIndex tracks that scan separately.
const infer::CorpusIndex& comcast_index() {
  static const auto index = infer::CorpusIndex::build(comcast_study().corpus());
  return index;
}

void BM_CorpusIndex(benchmark::State& state) {
  const auto& study = comcast_study();
  for (auto _ : state) {
    benchmark::DoNotOptimize(infer::CorpusIndex::build(study.corpus()));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(comcast_index().hop_count()));
}
BENCHMARK(BM_CorpusIndex);

void BM_CoMapping(benchmark::State& state) {
  const auto& study = comcast_study();
  const auto& bundle = cable_bundle();
  std::vector<infer::WeightedAdjacency> pairs;
  for (const auto& record : comcast_index().pairs())
    if (record.transit_count > 0)
      pairs.push_back({record.a, record.b,
                       static_cast<int>(record.transit_count),
                       record.last_transit_seq});
  std::vector<net::IPv4Address> addrs;
  for (const auto& [addr, annotation] : study.mapping.map.entries())
    addrs.push_back(addr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(infer::build_co_mapping(
        addrs, pairs, study.p2p_len, bundle.rdns(bundle.comcast),
        study.clusters()));
  }
}
BENCHMARK(BM_CoMapping);

void BM_BuildAndPrune(benchmark::State& state) {
  const auto& study = comcast_study();
  for (auto _ : state) {
    benchmark::DoNotOptimize(infer::build_and_prune(
        study.corpus(), comcast_index(), study.mapping.map, {}));
  }
}
BENCHMARK(BM_BuildAndPrune);

void BM_RefineRegions(benchmark::State& state) {
  const auto& study = comcast_study();
  for (auto _ : state) {
    auto regions = study.adjacency.regions;  // copy: refinement mutates
    benchmark::DoNotOptimize(infer::refine_regions(
        regions, comcast_index(), study.mapping.map));
  }
}
BENCHMARK(BM_RefineRegions);

// Reverse-CSR rows answer "which COs feed this one" with one row lookup;
// every CO of every inferred region.
void BM_ParentsOfCsr(benchmark::State& state) {
  const auto& regions = comcast_study().adjacency.regions;
  std::vector<infer::CsrGraph> graphs;
  std::int64_t cos = 0;
  for (const auto& [name, graph] : regions) {
    graphs.push_back(infer::CsrGraph::from_regional(graph));
    cos += static_cast<std::int64_t>(graph.cos.size());
  }
  for (auto _ : state) {
    std::size_t parents = 0;
    for (const auto& csr : graphs)
      for (std::uint32_t id = 0; id < csr.node_count(); ++id)
        parents += csr.parents_of(id).size();
    benchmark::DoNotOptimize(parents);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          cos);
}
BENCHMARK(BM_ParentsOfCsr);

/// Synthetic prune workload: `regions` independent stars of `cos` COs
/// each, three observations per adjacency (enough to survive the
/// single-observation prune). Scaling is reported as CO adjacencies
/// classified per second.
struct SyntheticPrune {
  infer::TraceCorpus corpus;
  infer::CoMap map;
};

SyntheticPrune make_synthetic_prune(int regions, int cos) {
  SyntheticPrune out;
  for (int r = 0; r < regions; ++r) {
    const auto region = net::format("r%03d", r);
    auto addr_of = [&](int co) {
      return net::IPv4Address{(10u << 24) |
                              (static_cast<std::uint32_t>(r) << 12) |
                              static_cast<std::uint32_t>(co)};
    };
    for (int c = 0; c < cos; ++c) {
      infer::CoAnnotation annotation;
      annotation.co_key = net::format("%s|co%04d", region.c_str(), c);
      annotation.region = region;
      annotation.from_rdns = true;
      out.map.set(addr_of(c), annotation);
    }
    for (int c = 1; c < cos; ++c) {
      for (int occurrence = 0; occurrence < 3; ++occurrence) {
        probe::TraceRecord record;
        record.vp = "bench";
        sim::Hop agg;
        agg.ttl = 1;
        agg.addr = addr_of(0);
        sim::Hop edge;
        edge.ttl = 2;
        edge.addr = addr_of(c);
        record.hops = {agg, edge};
        record.dst = edge.addr;
        record.reached = false;  // keep the pair a transit observation
        out.corpus.add(std::move(record));
      }
    }
  }
  return out;
}

void BM_PruneScaling(benchmark::State& state) {
  const auto synthetic =
      make_synthetic_prune(static_cast<int>(state.range(0)),
                           static_cast<int>(state.range(1)));
  const auto index = infer::CorpusIndex::build(synthetic.corpus);
  for (auto _ : state) {
    benchmark::DoNotOptimize(infer::build_and_prune(
        synthetic.corpus, index, synthetic.map, {}));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(index.pairs().size()));
}
BENCHMARK(BM_PruneScaling)
    ->ArgNames({"regions", "cos"})
    ->Args({4, 64})
    ->Args({16, 64})
    ->Args({64, 64})
    ->Args({16, 16})
    ->Args({16, 256});

void BM_MobileAnalyze(benchmark::State& state) {
  static const auto bundle = bench::make_mobile_bundle();
  for (auto _ : state) {
    benchmark::DoNotOptimize(infer::analyze_mobile(
        bundle->vz_corpus, "verizon", bundle->verizon.asn()));
  }
}
BENCHMARK(BM_MobileAnalyze);

void BM_GenerateComcast(benchmark::State& state) {
  for (auto _ : state) {
    net::Rng rng{42};
    benchmark::DoNotOptimize(
        topo::generate_cable(topo::comcast_profile(), rng));
  }
}
BENCHMARK(BM_GenerateComcast);

}  // namespace

// Expanded BENCHMARK_MAIN so the JSON export carries build provenance
// (git sha, compiler, build type, thread count) in its context block.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ran::bench::add_benchmark_run_metadata();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
