// Golden-fixture suite for the cable pipeline, plus thread-count
// invariance checks for the AT&T and mobile pipelines.
//
// The cable oracle is a canonical text dump of one study — every
// region's DOT and JSON export with provenance, every explain()
// transcript in edges() order, the deterministic run manifest, and each
// region's §5.5 hop-difference RTT table as the snapshot carries it —
// compared byte for byte against tests/data/golden/cable_<world>.txt at
// 1, 4 and 8 threads. Two worlds: `base` (no MPLS region; the mpls,
// single, ring and small-agg counters read 0) and `rules` (an MPLS
// region, dense daisy chains and heavy rDNS noise, so every Table 4
// prune rule and the edge-edge, ring and small-agg refine rules fire;
// tests/test_infer_units.cpp covers the thresholds these worlds do not
// reach). On a mismatch the
// test writes the dump it produced to <world>_<threads>t.actual.txt in
// its working directory and names the first differing line.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>

#include "core/att_pipeline.hpp"
#include "core/cable_pipeline.hpp"
#include "core/export.hpp"
#include "core/mobile_pipeline.hpp"
#include "core/snapshot.hpp"
#include "dnssim/rdns.hpp"
#include "netbase/json.hpp"
#include "netbase/strings.hpp"
#include "obs/diff.hpp"
#include "simnet/mobile_core.hpp"
#include "topogen/profiles.hpp"
#include "vantage/ship.hpp"
#include "vantage/vps.hpp"

namespace ran::infer {
namespace {

/// Both manifests pass the CI diff gate against each other: identical
/// deterministic content, volatile movement within tolerance.
void expect_manifests_equivalent(const obs::RunManifest& a,
                                 const obs::RunManifest& b,
                                 const char* label) {
  const auto ja = net::parse_json(a.to_json());
  const auto jb = net::parse_json(b.to_json());
  ASSERT_TRUE(ja.has_value()) << label;
  ASSERT_TRUE(jb.has_value()) << label;
  const auto report = obs::diff_manifests(*ja, *jb);
  EXPECT_TRUE(report.gate_ok()) << label << "\n" << report.text();
}

/// Every --explain transcript matches, edge by edge.
void expect_provenance_identical(const obs::ProvenanceLog& a,
                                 const obs::ProvenanceLog& b,
                                 const char* label) {
  ASSERT_EQ(a.edges().size(), b.edges().size()) << label;
  for (const auto& [key, edge] : a.edges())
    EXPECT_EQ(a.explain(key.first, key.second),
              b.explain(key.first, key.second))
        << label << " edge (" << key.first << ", " << key.second << ")";
}

// ---------------------------------------------------------------------
// Cable pipeline: golden fixtures x thread counts.
// ---------------------------------------------------------------------

/// One synthetic cable world the golden suite pins.
struct CableWorld {
  const char* name;
  std::uint64_t seed;
  int vps;
  bool beta_mpls;     ///< hide beta's sub-AggCOs behind LSPs
  double chain_prob;  ///< EdgeCO daisy-chain probability
  double missing_rdns;
  double stale_rdns;
};

constexpr CableWorld kBaseWorld{"base", 700, 16, false, 0.04, 0.08, 0.04};
constexpr CableWorld kRulesWorld{"rules", 710, 4, true, 0.10, 0.20, 0.06};

CableStudy run_cable(const CableWorld& spec, int threads) {
  sim::World world{spec.seed};
  net::Rng rng{spec.seed};
  auto profile = topo::comcast_profile();
  profile.chain_prob = spec.chain_prob;
  profile.regions = {
      {"alpha", {"co"}, 20, {"denver,co", "dallas,tx"}, {}, false},
      {"beta", {"wa", "or"}, 36, {"seattle,wa", "portland,or"}, {},
       spec.beta_mpls},
  };
  auto gen_rng = rng.fork();
  world.add_isp(topo::generate_cable(profile, gen_rng));
  auto vp_rng = rng.fork();
  const auto vps = vp::add_distributed_vps(world, spec.vps, vp_rng);
  world.finalize();
  dns::RdnsNoise noise;
  noise.missing_prob = spec.missing_rdns;
  noise.stale_prob = spec.stale_rdns;
  auto dns_rng = rng.fork();
  const auto live = dns::make_rdns(world.isp(0), noise, dns_rng);
  const auto snapshot = dns::age_snapshot(live, 0.02, dns_rng);
  CablePipelineConfig config;
  config.campaign.parallelism = threads;
  const CablePipeline pipeline{world, 0, {&live, &snapshot}, config};
  return pipeline.run(vps);
}

void append_block(std::string& out, const std::string& header,
                  const std::string& body) {
  out += "=== " + header + "\n";
  out += body;
  if (body.empty() || body.back() != '\n') out += '\n';
}

/// The canonical dump: exports, explain transcripts, manifest, and the
/// snapshot's per-region CO RTTs ("%.17g", so every bit is pinned).
std::string canonical_dump(const CableStudy& study) {
  std::string out;
  const auto& provenance = study.edge_provenance;
  for (const auto& [name, graph] : study.regions()) {
    append_block(out, "region " + name + " dot", to_dot(graph, &provenance));
    append_block(out, "region " + name + " json",
                 to_json(graph, &provenance));
  }
  for (const auto& [key, edge] : provenance.edges())
    append_block(out, "explain " + key.first + " " + key.second,
                 provenance.explain(key.first, key.second));
  append_block(out, "manifest", study.run_manifest.to_json());
  for (const auto& [name, region] : study.topology->regions()) {
    std::string rtts;
    for (const auto& [co, rtt] : region.co_rtt_ms())
      rtts += net::format("%s %.17g\n", co.c_str(), rtt);
    append_block(out, "region " + name + " co_rtt_ms", rtts);
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// 1-based number of the first line where `a` and `b` differ, with both
/// versions of that line.
std::string first_difference(const std::string& expected,
                             const std::string& actual) {
  std::istringstream ea{expected};
  std::istringstream aa{actual};
  std::string el;
  std::string al;
  for (std::size_t line = 1;; ++line) {
    const bool more_e = static_cast<bool>(std::getline(ea, el));
    const bool more_a = static_cast<bool>(std::getline(aa, al));
    if (!more_e && !more_a) return "no line differs (trailing bytes)";
    if (!more_e || !more_a || el != al)
      return "first difference at line " + std::to_string(line) +
             "\n  golden: " + (more_e ? el : "<end of file>") +
             "\n  actual: " + (more_a ? al : "<end of file>");
  }
}

struct GoldenCase {
  const char* label;
  const CableWorld* world;
  int threads;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.label; }

class CableGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(CableGolden, DumpMatchesCheckedInFixture) {
  const auto& param = GetParam();
  const auto actual =
      canonical_dump(run_cable(*param.world, param.threads));
  const std::string golden_path = std::string{RAN_TEST_DATA_DIR} +
                                  "/golden/cable_" + param.world->name +
                                  ".txt";
  const auto golden = read_file(golden_path);
  if (actual == golden) return;
  const std::string actual_path = std::string{param.label} + ".actual.txt";
  std::ofstream{actual_path, std::ios::binary} << actual;
  ADD_FAILURE() << param.label << " differs from " << golden_path << " ("
                << golden.size() << " golden bytes, " << actual.size()
                << " actual bytes; actual written to " << actual_path
                << ")\n"
                << first_difference(golden, actual);
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, CableGolden,
    ::testing::Values(GoldenCase{"base_1t", &kBaseWorld, 1},
                      GoldenCase{"base_4t", &kBaseWorld, 4},
                      GoldenCase{"base_8t", &kBaseWorld, 8},
                      GoldenCase{"rules_1t", &kRulesWorld, 1},
                      GoldenCase{"rules_4t", &kRulesWorld, 4},
                      GoldenCase{"rules_8t", &kRulesWorld, 8}),
    [](const auto& info) { return std::string{info.param.label}; });

// ---------------------------------------------------------------------
// AT&T pipeline: thread-count invariance.
// ---------------------------------------------------------------------

AttRegionStudy run_telco(int threads) {
  sim::World world{600};
  net::Rng rng{600};
  auto profile = topo::att_profile();
  profile.regions = {{"san diego", "ca", 18}, {"los angeles", "ca", 20}};
  auto gen_rng = rng.fork();
  world.add_isp(topo::generate_telco(profile, gen_rng));
  world.finalize();
  auto dns_rng = rng.fork();
  const auto live = dns::make_rdns(world.isp(0), {}, dns_rng);
  const auto snapshot = dns::age_snapshot(live, 0.02, dns_rng);

  AttPipelineConfig config;
  config.campaign.parallelism = threads;
  const AttPipeline pipeline{world, 0, {&live, &snapshot}, config};
  std::vector<std::pair<sim::ProbeSource, std::string>> vps;
  auto vp_rng = rng.fork();
  for (const auto& vp :
       vp::pick_internal_vps(world, 0, /*region=*/0, 6, vp_rng))
    vps.emplace_back(world.vantage_behind(0, vp.last_mile), vp.name);
  return pipeline.map_region("sndgca", vps);
}

TEST(AttEquivalence, ThreadCountDoesNotChangeOutput) {
  const auto serial = run_telco(1);
  const auto parallel = run_telco(8);
  EXPECT_EQ(serial.backbone_tag, parallel.backbone_tag);
  EXPECT_EQ(serial.router_slash24s, parallel.router_slash24s);
  EXPECT_EQ(serial.routers_per_edge_co, parallel.routers_per_edge_co);
  expect_provenance_identical(serial.edge_provenance,
                              parallel.edge_provenance, "att_1t_vs_8t");
  expect_manifests_equivalent(serial.run_manifest, parallel.run_manifest,
                              "att_1t_vs_8t");
}

// ---------------------------------------------------------------------
// Mobile pipeline: thread-count invariance.
// ---------------------------------------------------------------------

MobileStudy run_mobile(int threads) {
  net::Rng rng{808};
  const auto isp = topo::generate_mobile(topo::att_mobile_profile(), rng);
  sim::MobileCore core{isp, 909};
  vp::ShipConfig ship_config;
  ship_config.signal_quality = 0.89;
  auto ship_rng = rng.fork();
  const auto corpus =
      vp::run_ship_campaign(core, ship_config, {32.72, -117.16}, ship_rng);
  MobileStudyConfig config;
  config.campaign.parallelism = threads;
  return analyze_mobile(corpus, "att-mobile", isp.asn(), config);
}

TEST(MobileEquivalence, ThreadCountDoesNotChangeOutput) {
  const auto serial = run_mobile(1);
  const auto parallel = run_mobile(8);
  ASSERT_EQ(serial.user_fields.size(), parallel.user_fields.size());
  for (std::size_t i = 0; i < serial.user_fields.size(); ++i) {
    EXPECT_EQ(serial.user_fields[i].role, parallel.user_fields[i].role);
    EXPECT_EQ(serial.user_fields[i].first_bit,
              parallel.user_fields[i].first_bit);
    EXPECT_EQ(serial.user_fields[i].width, parallel.user_fields[i].width);
  }
  EXPECT_EQ(serial.regions.size(), parallel.regions.size());
  expect_provenance_identical(serial.edge_provenance,
                              parallel.edge_provenance, "mobile_1t_vs_8t");
  expect_manifests_equivalent(serial.run_manifest, parallel.run_manifest,
                              "mobile_1t_vs_8t");
}

}  // namespace
}  // namespace ran::infer
