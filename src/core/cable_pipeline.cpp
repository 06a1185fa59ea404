#include "cable_pipeline.hpp"

#include <algorithm>
#include <unordered_set>

#include "corpus_index.hpp"
#include "corpus_io.hpp"
#include "flat_table.hpp"
#include "footprint.hpp"
#include "interner.hpp"
#include "latency_study.hpp"
#include "snapshot.hpp"
#include "netbase/contracts.hpp"
#include "obs/log.hpp"
#include "obs/resource.hpp"
#include "probe/campaign.hpp"

namespace ran::infer {

int detect_p2p_len(std::span<const net::IPv4Address> addrs) {
  std::unordered_set<net::IPv4Address> seen{addrs.begin(), addrs.end()};
  int evidence31 = 0;
  int evidence30 = 0;
  for (const auto addr : addrs) {
    const auto mate31 = net::p2p_mate(addr, 31);
    if (mate31 && *mate31 != addr && seen.contains(*mate31)) ++evidence31;
    const auto mate30 = net::p2p_mate(addr, 30);
    if (mate30 && seen.contains(*mate30)) ++evidence30;
  }
  // Every /30 mate pair is also a /31 pair only when addresses fall on
  // offsets 1/2 of blocks of four — which never form a /31 pair — so the
  // two signals are disjoint and directly comparable.
  return evidence31 > evidence30 ? 31 : 30;
}

namespace {

struct RawCoPairCounts {
  std::size_t sweep_only = 0;
  std::size_t total = 0;
};

/// Distinct directed CO pairs (different COs) whose endpoints both carry
/// a regional-router rDNS name: among the index's pairs first seen in
/// traces [0, sweep_traces), and among all of them. Each distinct
/// address is looked up and extracted once; pairs are counted on
/// interned CO ids.
RawCoPairCounts count_raw_co_pairs(const CorpusIndex& index,
                                   std::size_t sweep_traces,
                                   const RdnsSources& rdns) {
  constexpr auto kNoCo = core::Interner::kInvalidId;
  core::Interner cos;
  core::FlatU32Map co_of{12};  // address -> raw CO id, or kNoCo
  const auto raw_co = [&](net::IPv4Address addr) {
    if (const auto* slot = co_of.find(addr.value())) return slot->value;
    std::uint32_t id = kNoCo;
    if (const auto name = rdns.lookup(addr)) {
      const auto info = dns::extract_hostname(*name);
      if (info.kind == dns::HostKind::kRegionalRouter)
        id = cos.intern(info.co_key);
    }
    co_of.upsert(addr.value()).value = id;
    return id;
  };
  core::FlatKeySet sweep_pairs{10};
  core::FlatKeySet all_pairs{12};
  for (const auto& record : index.pairs()) {
    const auto a = raw_co(record.a);
    const auto b = raw_co(record.b);
    if (a == kNoCo || b == kNoCo || a == b) continue;
    // a != b, so the packed key is never zero.
    const auto key = (std::uint64_t{a} << 32) | b;
    all_pairs.upsert(key);
    if (record.first_trace < sweep_traces) sweep_pairs.upsert(key);
  }
  return {sweep_pairs.size(), all_pairs.size()};
}

}  // namespace

CablePipeline::CablePipeline(const sim::World& world, int isp_index,
                             RdnsSources rdns, CablePipelineConfig config)
    : world_(world),
      isp_index_(isp_index),
      rdns_(rdns),
      config_(config) {
  RAN_EXPECTS(isp_index >= 0 && isp_index < world.isp_count());
  RAN_EXPECTS(config.followup_vps > 0);
}

std::vector<net::IPv4Address> CablePipeline::sweep_targets() const {
  // One address per /24 of the ISP's announced (BGP-visible) space.
  std::vector<net::IPv4Address> out;
  std::uint64_t total = 0;
  for (const auto& prefix : world_.isp(isp_index_).address_space())
    total += prefix.size() >> 8;
  out.reserve(total);
  for (const auto& prefix : world_.isp(isp_index_).address_space()) {
    RAN_EXPECTS(prefix.length() <= 24);
    const std::uint64_t slash24s = prefix.size() >> 8;
    for (std::uint64_t i = 0; i < slash24s; ++i)
      out.push_back(prefix.at(
          (i << 8) + static_cast<std::uint64_t>(config_.sweep_offset)));
  }
  return out;
}

std::vector<net::IPv4Address> CablePipeline::rdns_targets() const {
  // Every snapshot address whose name matches a CO regex and that falls
  // inside this ISP's announced space.
  std::vector<net::IPv4Address> out;
  RAN_EXPECTS(rdns_.snapshot != nullptr);
  const auto& isp = world_.isp(isp_index_);
  for (const auto& [addr, name] : rdns_.snapshot->entries()) {
    if (!isp.owns(addr)) continue;
    const auto info = dns::extract_hostname(name);
    if (info.kind == dns::HostKind::kRegionalRouter ||
        info.kind == dns::HostKind::kBackboneRouter)
      out.push_back(addr);
  }
  std::sort(out.begin(), out.end());
  return out;
}

CableStudy CablePipeline::run(std::span<const vp::ExternalVp> vps) const {
  RAN_EXPECTS(!vps.empty());
  CableStudy study;
  // Every run is instrumented so the manifest is always complete; a
  // caller-provided registry simply aggregates across runs too.
  obs::Registry local_metrics;
  obs::Registry& metrics = config_.campaign.metrics != nullptr
                               ? *config_.campaign.metrics
                               : local_metrics;
  probe::CampaignConfig campaign = config_.campaign;
  campaign.metrics = &metrics;
  const probe::CampaignRunner runner{world_, campaign};
  const auto& isp = world_.isp(isp_index_);
  obs::Log* log = metrics.logger();
  if (log != nullptr)
    log->info("cable.run",
              "cable pipeline starting for ISP " + isp.name());

  // ---- Phase 1(a): /24 sweep -------------------------------------------
  std::vector<probe::TraceRecord> sweep_traces;
  {
    obs::StageTimer stage{&metrics, "sweep"};
    const auto sweep = sweep_targets();
    study.sweep_targets = sweep.size();
    stage.add_items(sweep.size());
    sweep_traces = runner.run(probe::grid_tasks(vps, sweep));
  }

  // ---- Phase 1(b): rDNS-matched interface targets -----------------------
  std::vector<probe::TraceRecord> rdns_traces;
  const auto named = rdns_targets();
  {
    obs::StageTimer stage{&metrics, "rdns"};
    study.rdns_targets = named.size();
    stage.add_items(named.size());
    rdns_traces = runner.run(probe::grid_tasks(vps, named));
  }

  // ---- Phase 1(c): follow-up traceroutes to every intermediate ----------
  // One set of responding addresses serves the follow-up targets and,
  // once the follow-ups joined it, the manifest's distinct-address count.
  core::FlatKeySet responding{16};
  const auto add_responding = [&](const auto& traces) {
    for (const auto& trace : traces)
      for (const auto& hop : trace.hops)
        if (hop.responded()) responding.upsert(hop.addr.value());
  };
  add_responding(sweep_traces);
  add_responding(rdns_traces);
  std::vector<net::IPv4Address> intermediates;
  responding.for_each([&](const core::KeySlot& slot) {
    const net::IPv4Address addr{static_cast<std::uint32_t>(slot.bits)};
    if (isp.owns(addr)) intermediates.push_back(addr);
  });
  std::sort(intermediates.begin(), intermediates.end());
  study.followup_targets = intermediates.size();

  TraceCorpus followups;
  {
    obs::StageTimer stage{&metrics, "followup"};
    stage.add_items(intermediates.size());
    const int followup_vps =
        std::min<int>(config_.followup_vps, static_cast<int>(vps.size()));
    followups.traces = runner.run(probe::grid_tasks(
        vps.first(static_cast<std::size_t>(followup_vps)), intermediates));
  }
  add_responding(followups.traces);

  const auto mpls_separated =
      config_.use_mpls_check ? separated_pairs(followups) : AddressPairSet{};

  // The corpus is the sweep block, then the rDNS block, then the
  // follow-ups; the §5.1 comparison below relies on the sweep coming
  // first.
  const std::size_t sweep_trace_count = sweep_traces.size();
  auto& traces = study.traces.traces;
  traces.reserve(sweep_traces.size() + rdns_traces.size() +
                 followups.traces.size());
  for (auto* block : {&sweep_traces, &rdns_traces, &followups.traces})
    traces.insert(traces.end(), std::make_move_iterator(block->begin()),
                  std::make_move_iterator(block->end()));

  // Ingest boundary: the assembled corpus passes the same invariants the
  // offline loader enforces, and the ingest.* counters land in the
  // manifest so it records the data quality of what was analyzed.
  {
    IngestConfig ingest = config_.ingest;
    ingest.metrics = &metrics;
    if (ingest.log == nullptr) ingest.log = log;
    const auto ingest_report = validate_corpus(study.traces, ingest);
    RAN_EXPECTS(ingest.mode == IngestMode::kLenient || ingest_report.ok());
  }

  // ---- Phase 1(d): alias resolution -------------------------------------
  std::vector<net::IPv4Address> alias_universe;
  alias_universe.reserve(intermediates.size() + named.size());
  alias_universe.insert(alias_universe.end(), intermediates.begin(),
                        intermediates.end());
  for (const auto addr : named) alias_universe.push_back(addr);
  std::sort(alias_universe.begin(), alias_universe.end());
  alias_universe.erase(
      std::unique(alias_universe.begin(), alias_universe.end()),
      alias_universe.end());
  if (config_.use_alias_resolution) {
    obs::StageTimer stage{&metrics, "alias"};
    stage.add_items(alias_universe.size());
    study.routers = resolve_aliases(world_, alias_universe);
  }

  // ---- Phase 2: CO mapping, pruning, refinement -------------------------
  study.p2p_len = config_.p2p_len != 0 ? config_.p2p_len
                                       : detect_p2p_len(alias_universe);
  // Phase 2 reduces the corpus once (unique pairs + triplets) and feeds
  // every kernel from that index. The index build lives inside the
  // b1_mapping stage rather than getting a stage of its own, so the
  // deterministic manifest's stage tree (pinned by the golden fixtures)
  // names only the paper's phases.
  CorpusIndex index;
  {
    obs::StageTimer stage{&metrics, "b1_mapping"};
    stage.add_items(alias_universe.size());
    index = CorpusIndex::build(study.traces);
    // Point-to-point votes only make sense for addresses this ISP
    // routes (a transit hop preceding the ISP's entry must not inherit
    // a CO): one weighted vote per unique transit pair.
    std::vector<WeightedAdjacency> transit_pairs;
    if (config_.use_p2p_refinement) {
      for (const auto& record : index.pairs())
        if (record.transit_count > 0 && isp.owns(record.a))
          transit_pairs.push_back({record.a, record.b,
                                   static_cast<int>(record.transit_count),
                                   record.last_transit_seq});
    }
    study.mapping =
        build_co_mapping(alias_universe, transit_pairs, study.p2p_len, rdns_,
                         study.routers, &study.edge_provenance, log);
  }
  {
    obs::StageTimer stage{&metrics, "b2_prune"};
    study.adjacency = build_and_prune(
        study.traces, index, study.mapping.map, mpls_separated,
        &study.edge_provenance, log, config_.campaign.parallelism);
    stage.add_items(study.adjacency.stats.ip_adj_initial);
  }
  {
    obs::StageTimer stage{&metrics, "refine"};
    const RefineOptions refine_options{
        .remove_edge_edges = config_.use_edge_edge_removal,
        .complete_rings = config_.use_ring_completion,
        .threads = config_.campaign.parallelism,
        .log = log};
    study.refine = refine_regions(study.adjacency.regions, index,
                                  study.mapping.map, refine_options,
                                  &study.edge_provenance);
    stage.add_items(study.adjacency.regions.size());
  }

  // §5.1 comparison: CO interconnections visible from the /24 sweep alone
  // versus the whole campaign, both judged by raw rDNS extraction (the
  // information available at observation time). Routers that answer sweep
  // probes from unnamed loopbacks hide their CO here; directly targeting
  // their interfaces recovers it. The index's unique pairs carry both:
  // a pair was seen in the sweep iff its first trace is in the sweep
  // block.
  const auto co_pairs = count_raw_co_pairs(index, sweep_trace_count, rdns_);
  study.co_adjs_sweep_only = co_pairs.sweep_only;
  study.co_adjs_total = co_pairs.total;

  // ---- Run manifest ------------------------------------------------------
  study.mapping.stats.publish(metrics, "cable.b1");
  study.adjacency.stats.publish(metrics, "cable.b2");
  study.refine.publish(metrics, "cable.refine");

  auto& manifest = study.run_manifest;
  manifest.set_name("cable." + isp.name());
  manifest.set_config("trace.max_ttl",
                      static_cast<std::int64_t>(config_.campaign.trace.max_ttl));
  manifest.set_config(
      "trace.attempts",
      static_cast<std::int64_t>(config_.campaign.trace.attempts));
  manifest.set_config(
      "trace.gap_limit",
      static_cast<std::int64_t>(config_.campaign.trace.gap_limit));
  manifest.set_config("use_alias_resolution", config_.use_alias_resolution);
  manifest.set_config("use_p2p_refinement", config_.use_p2p_refinement);
  manifest.set_config("use_mpls_check", config_.use_mpls_check);
  manifest.set_config("use_edge_edge_removal", config_.use_edge_edge_removal);
  manifest.set_config("use_ring_completion", config_.use_ring_completion);
  manifest.set_config("p2p_len", static_cast<std::int64_t>(config_.p2p_len));
  manifest.set_config("followup_vps",
                      static_cast<std::int64_t>(config_.followup_vps));
  manifest.set_config("sweep_offset",
                      static_cast<std::int64_t>(config_.sweep_offset));
  manifest.set_config("ingest.mode",
                      std::string{to_string(config_.ingest.mode)});

  manifest.add_summary("campaign", "vps",
                       static_cast<std::uint64_t>(vps.size()));
  manifest.add_summary("campaign", "sweep_targets", study.sweep_targets);
  manifest.add_summary("campaign", "rdns_targets", study.rdns_targets);
  manifest.add_summary("campaign", "followup_targets",
                       study.followup_targets);
  manifest.add_summary("campaign", "co_adjs_sweep_only",
                       study.co_adjs_sweep_only);
  manifest.add_summary("campaign", "co_adjs_total", study.co_adjs_total);
  manifest.add_summary("corpus", "traces", study.traces.size());
  manifest.add_summary("corpus", "responding_addresses", responding.size());
  manifest.add_summary("clusters", "alias_clusters",
                       static_cast<std::uint64_t>(
                           study.routers.alias_cluster_count()));
  manifest.add_summary("graph", "p2p_len",
                       static_cast<std::uint64_t>(study.p2p_len));
  manifest.add_summary("graph", "regions",
                       static_cast<std::uint64_t>(study.regions().size()));
  std::size_t cos = 0;
  std::size_t edges = 0;
  for (const auto& [region, graph] : study.regions()) {
    cos += graph.cos.size();
    edges += graph.edge_count();
  }
  manifest.add_summary("graph", "cos", cos);
  manifest.add_summary("graph", "edges", edges);
  if (auto* profiler = metrics.resource_profiler(); profiler != nullptr) {
    profiler->set_structure_bytes("corpus", approx_bytes(study.traces));
    profiler->set_structure_bytes("alias_clusters",
                                  approx_bytes(study.routers));
    profiler->set_structure_bytes("co_map",
                                  approx_bytes(study.mapping.map));
    std::uint64_t graph_bytes = 0;
    for (const auto& [region, graph] : study.adjacency.regions)
      graph_bytes += approx_bytes(graph);
    profiler->set_structure_bytes("regional_graphs", graph_bytes);
    profiler->set_structure_bytes("provenance",
                                  approx_bytes(study.edge_provenance));
    manifest.capture_resources(*profiler);
  }
  // Freeze the result into the queryable snapshot artifact (a fresh
  // pipeline run is generation 1). Built after every stage closed and
  // without a StageTimer of its own: the snapshot is a pure function of
  // the graphs and must not perturb the manifest's sections. The hop-
  // difference RTTs of §5.5 ride along so latency queries can answer in
  // milliseconds; that table is one sharded pass over the corpus at the
  // campaign's parallelism, exact at any thread count.
  study.topology =
      std::make_shared<const TopologySnapshot>(TopologySnapshot::build(
          "cable", study.regions(),
          std::make_shared<obs::ProvenanceLog>(study.edge_provenance), 1,
          agg_to_edge_rtts(study, config_.campaign.parallelism)));

  manifest.capture(metrics);
  manifest.capture_provenance(study.edge_provenance);
  return study;
}

}  // namespace ran::infer
