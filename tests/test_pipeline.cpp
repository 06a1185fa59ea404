// Integration tests: the full §5 cable pipeline and §6 AT&T pipeline
// end-to-end on small worlds, with parameterized sweeps over the rDNS
// noise knobs to show the heuristics degrade gracefully rather than fall
// over (the paper's central robustness claim).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "core/att_pipeline.hpp"
#include "topogen/profiles.hpp"
#include "core/cable_pipeline.hpp"
#include "core/eval.hpp"
#include "core/latency_study.hpp"
#include "core/render.hpp"
#include "dnssim/rdns.hpp"
#include "vantage/mctraceroute.hpp"
#include "vantage/vps.hpp"

namespace ran::infer {
namespace {

/// A small cable world + pipeline run under configurable rDNS noise.
struct SmallCableRun {
  std::unique_ptr<sim::World> world;
  std::vector<vp::ExternalVp> vps;
  dns::RdnsDb live, snapshot;
  CableStudy study;

  [[nodiscard]] const topo::Isp& isp() const { return world->isp(0); }
};

SmallCableRun run_small_cable(double missing, double stale,
                              std::uint64_t seed = 500) {
  SmallCableRun run;
  run.world = std::make_unique<sim::World>(seed);
  net::Rng rng{seed};
  auto profile = topo::comcast_profile();
  profile.regions = {
      {"alpha", {"co"}, 20, {"denver,co", "dallas,tx"}, {}, false},
      {"beta", {"wa", "or"}, 36, {"seattle,wa", "portland,or"}, {}, false},
  };
  auto gen_rng = rng.fork();
  run.world->add_isp(topo::generate_cable(profile, gen_rng));
  auto vp_rng = rng.fork();
  run.vps = vp::add_distributed_vps(*run.world, 16, vp_rng);
  run.world->finalize();

  dns::RdnsNoise noise;
  noise.missing_prob = missing;
  noise.stale_prob = stale;
  auto dns_rng = rng.fork();
  run.live = dns::make_rdns(run.world->isp(0), noise, dns_rng);
  run.snapshot = dns::age_snapshot(run.live, 0.02, dns_rng);
  const CablePipeline pipeline{*run.world, 0, {&run.live, &run.snapshot}};
  run.study = pipeline.run(run.vps);
  return run;
}

TEST(CablePipelineIntegration, RecoversBothRegionsAccurately) {
  const auto run = run_small_cable(0.08, 0.04);
  ASSERT_EQ(run.study.regions().size(), 2u);
  for (const auto& [name, graph] : run.study.regions()) {
    const auto accuracy = compare_with_truth(graph, run.isp());
    ASSERT_TRUE(accuracy.has_value()) << name;
    EXPECT_GT(accuracy->edge_precision(), 0.9) << name;
    EXPECT_GT(accuracy->edge_recall(), 0.8) << name;
    EXPECT_EQ(accuracy->agg_false_negative, 0) << name;
  }
}

TEST(CablePipelineIntegration, DetectsSubnetLengthPerIsp) {
  const auto run = run_small_cable(0.08, 0.04);
  EXPECT_EQ(run.study.p2p_len, 30);
}

TEST(CablePipelineIntegration, FindsBackboneEntries) {
  const auto run = run_small_cable(0.08, 0.04);
  for (const auto& [name, graph] : run.study.regions())
    EXPECT_GE(graph.backbone_entries.size(), 1u) << name;
}

TEST(CablePipelineIntegration, DeterministicAcrossRuns) {
  const auto a = run_small_cable(0.08, 0.04);
  const auto b = run_small_cable(0.08, 0.04);
  ASSERT_EQ(a.study.regions().size(), b.study.regions().size());
  for (const auto& [name, graph] : a.study.regions()) {
    const auto& other = b.study.regions().at(name);
    EXPECT_EQ(graph.cos, other.cos);
    EXPECT_EQ(graph.agg_cos, other.agg_cos);
    EXPECT_EQ(graph.edge_count(), other.edge_count());
  }
}

TEST(CablePipelineIntegration, EdgeCoTargetsComeFromInferredGraphs) {
  const auto run = run_small_cable(0.08, 0.04);
  const auto targets = edge_co_targets(run.study);
  ASSERT_GT(targets.size(), 30u);
  std::set<std::string> keys;
  for (const auto& target : targets) {
    EXPECT_TRUE(keys.insert(target.co_key).second);  // one per EdgeCO
    EXPECT_FALSE(target.addr.is_unspecified());
    EXPECT_TRUE(run.study.regions().contains(target.region));
  }
}

/// Noise sweep: precision stays high as rDNS quality degrades; recall
/// falls gracefully.
class NoiseSweep
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(NoiseSweep, PrecisionSurvivesNoise) {
  const auto [missing, stale] = GetParam();
  const auto run = run_small_cable(missing, stale);
  double worst_precision = 1.0;
  double worst_recall = 1.0;
  for (const auto& [name, graph] : run.study.regions()) {
    const auto accuracy = compare_with_truth(graph, run.isp());
    if (!accuracy) continue;
    worst_precision = std::min(worst_precision, accuracy->edge_precision());
    worst_recall = std::min(worst_recall, accuracy->edge_recall());
  }
  EXPECT_GT(worst_precision, 0.8) << "missing=" << missing
                                  << " stale=" << stale;
  EXPECT_GT(worst_recall, 0.5) << "missing=" << missing
                                << " stale=" << stale;
}

INSTANTIATE_TEST_SUITE_P(
    RdnsQuality, NoiseSweep,
    ::testing::Values(std::pair{0.0, 0.0}, std::pair{0.05, 0.02},
                      std::pair{0.10, 0.05}, std::pair{0.20, 0.08},
                      std::pair{0.30, 0.12}));

TEST(CablePipelineIntegration, CleanRdnsYieldsNearPerfectGraphs) {
  const auto run = run_small_cable(0.0, 0.0);
  for (const auto& [name, graph] : run.study.regions()) {
    const auto accuracy = compare_with_truth(graph, run.isp());
    ASSERT_TRUE(accuracy.has_value());
    EXPECT_GT(accuracy->edge_precision(), 0.97) << name;
    EXPECT_GT(accuracy->edge_recall(), 0.9) << name;
  }
}

TEST(CablePipelineIntegration, MplsRegionRecoversItsAggregationLayers) {
  // A Charter-style multi-level region with MPLS: the second aggregation
  // layer is invisible to plain traceroutes; only follow-up probing to
  // router interfaces (DPR) plus the §5.1 false-link check recover it.
  SmallCableRun run;
  run.world = std::make_unique<sim::World>(700);
  net::Rng rng{700};
  auto profile = topo::charter_profile();
  profile.regions = {
      {"mplsland", {"oh", "mi"}, 70, {"chicago,il", "columbus,oh"}, {},
       true}};
  auto gen_rng = rng.fork();
  run.world->add_isp(topo::generate_cable(profile, gen_rng));
  auto vp_rng = rng.fork();
  run.vps = vp::add_distributed_vps(*run.world, 16, vp_rng);
  run.world->finalize();
  auto dns_rng = rng.fork();
  run.live = dns::make_rdns(run.world->isp(0), {}, dns_rng);
  run.snapshot = dns::age_snapshot(run.live, 0.01, dns_rng);
  const CablePipeline pipeline{*run.world, 0, {&run.live, &run.snapshot}};
  run.study = pipeline.run(run.vps);

  ASSERT_TRUE(run.study.regions().contains("mplsland"));
  const auto& graph = run.study.regions().at("mplsland");
  EXPECT_GT(run.study.adjacency.stats.co_adj_mpls, 20u);
  EXPECT_GE(graph.agg_cos.size(), 5u);  // sub-layers recovered
  const auto accuracy = compare_with_truth(graph, run.isp());
  ASSERT_TRUE(accuracy.has_value());
  EXPECT_GT(accuracy->edge_precision(), 0.9);
  EXPECT_GT(accuracy->edge_recall(), 0.8);
  EXPECT_EQ(classify_region(graph), AggregationType::kMultiLevel);
}

/// Hop-loss sweep: heavier ICMP rate limiting degrades recall gracefully
/// and never poisons precision.
class HopLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(HopLossSweep, PrecisionHoldsUnderRateLimiting) {
  SmallCableRun run;
  run.world = std::make_unique<sim::World>(800);
  run.world->noise().unresponsive_hop_prob = GetParam();
  net::Rng rng{800};
  auto profile = topo::comcast_profile();
  profile.regions = {
      {"lossy", {"mn"}, 24, {"minneapolis,mn", "chicago,il"}, {}, false}};
  auto gen_rng = rng.fork();
  run.world->add_isp(topo::generate_cable(profile, gen_rng));
  auto vp_rng = rng.fork();
  run.vps = vp::add_distributed_vps(*run.world, 16, vp_rng);
  run.world->finalize();
  auto dns_rng = rng.fork();
  run.live = dns::make_rdns(run.world->isp(0), {}, dns_rng);
  run.snapshot = dns::age_snapshot(run.live, 0.02, dns_rng);
  const CablePipeline pipeline{*run.world, 0, {&run.live, &run.snapshot}};
  run.study = pipeline.run(run.vps);
  ASSERT_TRUE(run.study.regions().contains("lossy"));
  const auto accuracy =
      compare_with_truth(run.study.regions().at("lossy"), run.isp());
  ASSERT_TRUE(accuracy.has_value());
  EXPECT_GT(accuracy->edge_precision(), 0.85) << "loss " << GetParam();
  EXPECT_GT(accuracy->edge_recall(), 0.6) << "loss " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Loss, HopLossSweep,
                         ::testing::Values(0.0, 0.05, 0.15, 0.3));

TEST(Render, AnnotatedTracerouteLooksLikeFig5) {
  const auto run = run_small_cable(0.05, 0.02, 900);
  // Find any reached trace with a mapped hop and render it.
  const RdnsSources rdns{&run.live, &run.snapshot};
  for (const auto& trace : run.study.corpus().traces) {
    if (!trace.reached || trace.hops.size() < 3) continue;
    const auto text = render_trace(trace, rdns, &run.study.mapping.map);
    EXPECT_NE(text.find("traceroute to"), std::string::npos);
    if (text.find("[co:") == std::string::npos) continue;
    EXPECT_NE(text.find("ms"), std::string::npos);
    return;  // found a fully annotated one
  }
  FAIL() << "no annotated trace rendered";
}

TEST(CablePipelineIntegration, OpaqueAccessNetworksYieldNoTopology) {
  // §4's scope limit: where the access provider exposes no rDNS and no
  // ICMP from regional routers (the New Zealand UFB / Australia NBN
  // arrangement), the methodology must degrade to nothing rather than
  // hallucinate structure.
  SmallCableRun run;
  run.world = std::make_unique<sim::World>(910);
  net::Rng rng{910};
  auto profile = topo::comcast_profile();
  profile.regions = {
      {"opaque", {"ks"}, 14, {"wichita,ks", "dallas,tx"}, {}, false}};
  auto gen_rng = rng.fork();
  auto isp = topo::generate_cable(profile, gen_rng);
  for (const auto& router : isp.routers())
    if (router.role != topo::RouterRole::kBackbone)
      isp.router(router.id).icmp_responsive = false;
  run.world->add_isp(std::move(isp));
  auto vp_rng = rng.fork();
  run.vps = vp::add_distributed_vps(*run.world, 12, vp_rng);
  run.world->finalize();
  dns::RdnsNoise mute;
  mute.missing_prob = 1.0;  // no names either
  auto dns_rng = rng.fork();
  run.live = dns::make_rdns(run.world->isp(0), mute, dns_rng);
  run.snapshot = run.live;
  const CablePipeline pipeline{*run.world, 0, {&run.live, &run.snapshot}};
  run.study = pipeline.run(run.vps);
  std::size_t edges = 0;
  for (const auto& [name, graph] : run.study.regions())
    edges += graph.edge_count();
  EXPECT_EQ(edges, 0u);
  EXPECT_EQ(run.study.mapping.map.size(), 0u);
}

// ---------------------------------------------------------------------
// AT&T pipeline integration.
// ---------------------------------------------------------------------

struct SmallTelcoRun {
  std::unique_ptr<sim::World> world;
  dns::RdnsDb live, snapshot;
  AttRegionStudy study;
};

SmallTelcoRun run_small_telco(std::uint64_t seed = 600) {
  SmallTelcoRun run;
  run.world = std::make_unique<sim::World>(seed);
  net::Rng rng{seed};
  auto profile = topo::att_profile();
  profile.regions = {{"san diego", "ca", 18}, {"los angeles", "ca", 20}};
  auto gen_rng = rng.fork();
  run.world->add_isp(topo::generate_telco(profile, gen_rng));
  run.world->finalize();
  auto dns_rng = rng.fork();
  run.live = dns::make_rdns(run.world->isp(0), {}, dns_rng);
  run.snapshot = dns::age_snapshot(run.live, 0.02, dns_rng);

  const AttPipeline pipeline{*run.world, 0, {&run.live, &run.snapshot}};
  std::vector<std::pair<sim::ProbeSource, std::string>> vps;
  auto vp_rng = rng.fork();
  for (const auto& vp :
       vp::pick_internal_vps(*run.world, 0, /*region=*/0, 6, vp_rng))
    vps.emplace_back(run.world->vantage_behind(0, vp.last_mile), vp.name);
  for (const auto& vp :
       vp::pick_internal_vps(*run.world, 0, /*region=*/1, 2, vp_rng))
    vps.emplace_back(run.world->vantage_behind(0, vp.last_mile), vp.name);
  run.study = pipeline.map_region("sndgca", vps);
  return run;
}

TEST(AttPipelineIntegration, RecoversFig13Structure) {
  const auto run = run_small_telco();
  // Alias-resolution incompleteness can split a router into an extra
  // cluster or two; the structure must still be unmistakable.
  EXPECT_GE(run.study.backbone_routers, 2);
  EXPECT_LE(run.study.backbone_routers, 3);
  EXPECT_GE(run.study.agg_routers, 4);
  EXPECT_LE(run.study.agg_routers, 6);
  EXPECT_GE(run.study.backbone_agg_links, 8);
  EXPECT_NEAR(run.study.edge_cos(), 18, 2);
  EXPECT_EQ(run.study.backbone_tag, "sd2ca");
}

TEST(AttPipelineIntegration, EdgeRoutersAreDualHomed) {
  const auto run = run_small_telco();
  int dual = 0;
  for (const auto& [router, links] : run.study.agg_links_per_edge_router)
    dual += links >= 2;
  EXPECT_GE(dual * 10,
            static_cast<int>(run.study.agg_links_per_edge_router.size()) * 8);
}

TEST(AttPipelineIntegration, RouterPrefixesStayRegional) {
  const auto run = run_small_telco();
  EXPECT_GE(run.study.router_slash24s.size(), 1u);
  EXPECT_LE(run.study.router_slash24s.size(), 6u);
  // All discovered prefixes fall inside the first region's /16 pool.
  for (const auto s24 : run.study.router_slash24s)
    EXPECT_EQ(s24 >> 8, 0x4700u) << net::IPv4Address{s24 << 8}.to_string();
}

// §6.2: a (router, lspgw) adjacency counts toward the edge class only
// once it recurs. Recount every adjacency from the corpus and check each
// recorded verdict against the threshold of two observations.
TEST(AttPipelineIntegration, EdgeAdjacencyMustRecurToCount) {
  const auto run = run_small_telco();
  const AttPipeline pipeline{*run.world, 0, {&run.live, &run.snapshot}};
  auto lspgws = pipeline.discover_lspgws().at("sndgca");
  const auto cap =
      static_cast<std::size_t>(AttPipelineConfig{}.max_bootstrap_targets);
  if (lspgws.size() > cap) lspgws.resize(cap);
  const std::set<net::IPv4Address> lspgw_set{lspgws.begin(), lspgws.end()};
  std::map<std::pair<int, net::IPv4Address>, int> counts;
  for (const auto& trace : run.study.traces.traces) {
    const auto& hops = trace.hops;
    for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
      if (!hops[i].responded() || !hops[i + 1].responded()) continue;
      const bool a_lspgw = lspgw_set.contains(hops[i].addr);
      if (a_lspgw == lspgw_set.contains(hops[i + 1].addr)) continue;
      const auto router = a_lspgw ? hops[i + 1].addr : hops[i].addr;
      const auto lspgw = a_lspgw ? hops[i].addr : hops[i + 1].addr;
      if (const auto cluster = run.study.routers.cluster_of(router))
        ++counts[{*cluster, lspgw}];
    }
  }
  int one_offs = 0;
  for (const auto& [key, count] : counts) {
    const auto* edge = run.study.edge_provenance.find(
        "router-" + std::to_string(key.first), key.second.to_string());
    ASSERT_NE(edge, nullptr) << key.first << " " << key.second.to_string();
    ASSERT_FALSE(edge->decisions.empty());
    EXPECT_EQ(edge->decisions.back().rule, "att.edge_adjacency");
    EXPECT_EQ(edge->kept(), count >= 2)
        << "router-" << key.first << " -> " << key.second.to_string()
        << " seen " << count << " time(s)";
    one_offs += count == 1;
  }
  // The world must exercise the rule: some adjacency is seen only once.
  EXPECT_GT(one_offs, 0);
  const auto& rules = run.study.edge_provenance.rule_counts();
  ASSERT_TRUE(rules.contains("att.edge_adjacency"));
  EXPECT_EQ(rules.at("att.edge_adjacency").removed,
            static_cast<std::uint64_t>(one_offs));
}

TEST(AttPipelineIntegration, DiscoversAllRegionsFromSnapshot) {
  const auto run = run_small_telco();
  const AttPipeline pipeline{*run.world, 0, {&run.live, &run.snapshot}};
  const auto regions = pipeline.discover_lspgws();
  EXPECT_EQ(regions.size(), 2u);
  EXPECT_TRUE(regions.contains("sndgca"));
  EXPECT_TRUE(regions.contains("lsanca"));
}

}  // namespace
}  // namespace ran::infer
