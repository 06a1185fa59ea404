// Tests for the mobile packet-core simulator and the §7.2 bit-field
// inference, parameterized over all three carriers.
#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "core/mobile_pipeline.hpp"
#include "simnet/mobile_core.hpp"
#include "topogen/profiles.hpp"
#include "vantage/ship.hpp"

namespace ran::infer {
namespace {

struct CarrierCase {
  const char* name;
  topo::MobileProfile (*profile)();
  double signal;
};

// Names the case in test ids; gtest would otherwise print the struct's
// raw bytes, pointers included, and the ids would change between builds.
void PrintTo(const CarrierCase& cc, std::ostream* os) { *os << cc.name; }

const CarrierCase kCarriers[] = {
    {"att-mobile", topo::att_mobile_profile, 0.89},
    {"verizon", topo::verizon_profile, 0.91},
    {"tmobile", topo::tmobile_profile, 0.82},
};

struct CarrierFixture {
  topo::Isp isp{"", 0, topo::IspKind::kMobile};
  std::unique_ptr<sim::MobileCore> core;
  vp::ShipCampaignResult corpus;
  MobileStudy study;
};

const CarrierFixture& fixture_for(const CarrierCase& cc) {
  static std::map<std::string, std::unique_ptr<CarrierFixture>> cache;
  auto& slot = cache[cc.name];
  if (!slot) {
    slot = std::make_unique<CarrierFixture>();
    net::Rng rng{808};
    slot->isp = topo::generate_mobile(cc.profile(), rng);
    slot->core = std::make_unique<sim::MobileCore>(slot->isp, 909);
    vp::ShipConfig config;
    config.signal_quality = cc.signal;
    auto ship_rng = rng.fork();
    slot->corpus = vp::run_ship_campaign(*slot->core, config,
                                         {32.72, -117.16}, ship_rng);
    slot->study =
        analyze_mobile(slot->corpus, cc.name, slot->isp.asn());
  }
  return *slot;
}

class CarrierTest : public ::testing::TestWithParam<CarrierCase> {};

TEST_P(CarrierTest, AttachIsDeterministicPerCycle) {
  const auto& fx = fixture_for(GetParam());
  const net::GeoPoint chicago{41.88, -87.63};
  const auto a = fx.core->attach(chicago, 42);
  const auto b = fx.core->attach(chicago, 42);
  EXPECT_EQ(a.region_index, b.region_index);
  EXPECT_EQ(a.pgw_index, b.pgw_index);
  EXPECT_EQ(a.user_prefix64, b.user_prefix64);
}

TEST_P(CarrierTest, UserPrefixMatchesThePlan) {
  const auto& fx = fixture_for(GetParam());
  const auto& plan = *fx.isp.ipv6_plan();
  for (std::uint64_t cycle = 1; cycle <= 20; ++cycle) {
    const auto at = fx.core->attach({40.71, -74.01}, cycle);
    EXPECT_TRUE(plan.user_prefix.contains(at.user_prefix64));
  }
}

TEST_P(CarrierTest, AirplaneCyclesRotatePgws) {
  const auto& fx = fixture_for(GetParam());
  std::set<int> pgws;
  for (std::uint64_t cycle = 1; cycle <= 40; ++cycle)
    pgws.insert(fx.core->attach({33.75, -84.39}, cycle).pgw_index);
  EXPECT_GE(pgws.size(), 2u);  // every carrier multi-homes its regions
}

TEST_P(CarrierTest, Trace6StartsInUserSpaceAndExitsViaProvider) {
  const auto& fx = fixture_for(GetParam());
  const auto at = fx.core->attach({29.76, -95.37}, 7);
  const int provider = fx.core->backbone_asn(at);
  const auto dst = sim::provider_router_addr(provider, 0x99);
  const auto trace = fx.core->trace6(at, dst, provider, {32.72, -117.16});
  ASSERT_TRUE(trace.reached);
  ASSERT_GE(trace.hops.size(), 3u);
  EXPECT_TRUE(
      fx.isp.ipv6_plan()->user_prefix.contains(trace.hops.front().addr));
  bool saw_provider = false;
  for (const auto& hop : trace.hops)
    saw_provider |= hop.responded() && hop.asn == provider;
  EXPECT_TRUE(saw_provider);
  EXPECT_EQ(trace.hops.back().addr, dst);
}

TEST_P(CarrierTest, RttGrowsWithDistanceFromServer) {
  const auto& fx = fixture_for(GetParam());
  const net::GeoPoint server{32.72, -117.16};  // San Diego
  const auto near = fx.core->attach({33.8, -117.9}, 3);
  const auto far = fx.core->attach({44.5, -73.2}, 4);  // Vermont
  double near_rtt = 1e18, far_rtt = 1e18;
  for (std::uint64_t p = 0; p < 6; ++p) {
    near_rtt = std::min(near_rtt, fx.core->rtt_sample(near, server, p));
    far_rtt = std::min(far_rtt, fx.core->rtt_sample(far, server, p));
  }
  EXPECT_LT(near_rtt, far_rtt);
  EXPECT_GT(near_rtt, 20.0);  // radio delay floor
}

TEST_P(CarrierTest, InferredUserPrefixContainsEverySample) {
  const auto& fx = fixture_for(GetParam());
  for (const auto& sample : fx.corpus.samples)
    EXPECT_TRUE(fx.study.user_prefix.contains(sample.user_prefix));
}

TEST_P(CarrierTest, EverySampleLandsInARegion) {
  const auto& fx = fixture_for(GetParam());
  ASSERT_EQ(fx.study.region_of_sample.size(), fx.corpus.samples.size());
  for (const auto region : fx.study.region_of_sample) {
    ASSERT_GE(region, 0);
    ASSERT_LT(region, static_cast<int>(fx.study.regions.size()));
  }
}

TEST_P(CarrierTest, PgwValueSetsStayWithinGroundTruthBounds) {
  const auto& fx = fixture_for(GetParam());
  std::size_t max_true_pgws = 0;
  for (const auto& mr : fx.isp.mobile_regions())
    max_true_pgws = std::max(max_true_pgws, mr.pgws.size());
  // When the carrier encodes geography in the address, inferred regions
  // map one-to-one onto true regions; a purely geographic cluster
  // (T-Mobile) may straddle a few adjacent EdgeCOs and union their pools.
  const std::size_t bound = fx.study.user_field("region") != nullptr
                                ? max_true_pgws
                                : 3 * max_true_pgws;
  for (const auto& region : fx.study.regions)
    EXPECT_LE(region.pgw_values.size(), bound) << region.label;
}

INSTANTIATE_TEST_SUITE_P(
    AllCarriers, CarrierTest, ::testing::ValuesIn(kCarriers),
    [](const ::testing::TestParamInfo<CarrierCase>& info) {
      std::string name = info.param.name;
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

// Carrier-specific expectations (the Fig 16 shapes).

TEST(MobileFieldsAtt, RegionFieldOnUserSideOnly) {
  const auto& fx = fixture_for(kCarriers[0]);
  ASSERT_NE(fx.study.user_field("region"), nullptr);
  EXPECT_EQ(fx.study.user_field("pgw"), nullptr);
  EXPECT_EQ(fx.study.user_field("region")->distinct_values, 11);
  ASSERT_NE(fx.study.infra_field("pgw"), nullptr);
  EXPECT_EQ(fx.study.regions.size(), 11u);
}

TEST(MobileFieldsAtt, InfraFieldsSitInsideThePlan) {
  const auto& fx = fixture_for(kCarriers[0]);
  const auto& plan = *fx.isp.ipv6_plan();
  const auto* region = fx.study.infra_field("region");
  ASSERT_NE(region, nullptr);
  EXPECT_GE(region->first_bit, plan.infra_region_bit);
  EXPECT_LE(region->first_bit + region->width,
            plan.infra_region_bit + plan.infra_region_width);
  const auto* pgw = fx.study.infra_field("pgw");
  ASSERT_NE(pgw, nullptr);
  EXPECT_LE(std::abs(pgw->first_bit - plan.infra_pgw_bit), 8);
}

TEST(MobileFieldsVerizon, ThreeUserFieldsMatchingThePlan) {
  const auto& fx = fixture_for(kCarriers[1]);
  const auto& plan = *fx.isp.ipv6_plan();
  const auto* region = fx.study.user_field("region");
  const auto* edgeco = fx.study.user_field("edgeco");
  const auto* pgw = fx.study.user_field("pgw");
  ASSERT_NE(region, nullptr);
  ASSERT_NE(edgeco, nullptr);
  ASSERT_NE(pgw, nullptr);
  EXPECT_EQ(region->first_bit + region->width, plan.user_edgeco_bit);
  EXPECT_EQ(edgeco->first_bit, plan.user_edgeco_bit);
  EXPECT_EQ(pgw->first_bit, plan.user_pgw_bit);
  // §7.2.2: the /32 changed 18 times; ~28 wireless regions overall.
  EXPECT_GE(region->distinct_values, 12);
  EXPECT_NEAR(static_cast<double>(fx.study.regions.size()),
              static_cast<double>(fx.isp.mobile_regions().size()), 2.0);
}

TEST(MobileFieldsTmobile, PgwOnlyUserPlanAndUlaInfra) {
  const auto& fx = fixture_for(kCarriers[2]);
  EXPECT_EQ(fx.study.user_field("region"), nullptr);
  ASSERT_NE(fx.study.user_field("pgw"), nullptr);
  EXPECT_EQ(fx.study.user_field("pgw")->first_bit, 32);
  EXPECT_EQ(fx.study.infra_prefix.network().bits(0, 8), 0xfdu);
}

TEST(MobileFieldsTmobile, RegionsCycleMultipleBackboneProviders) {
  const auto& fx = fixture_for(kCarriers[2]);
  std::size_t multi = 0;
  for (const auto& region : fx.study.regions)
    multi += region.backbone_asns.size() >= 2;
  EXPECT_GE(2 * multi, fx.study.regions.size());
}

TEST(MobileGulfAnomaly, TmobileDevicesAttachFarFromHome) {
  const auto& fx = fixture_for(kCarriers[2]);
  // In the gulf pocket, most attachments land on the South Carolina
  // EdgeCO (Fig 18c's anomaly).
  const net::GeoPoint pensacola{30.4, -87.2};
  int remote = 0;
  const int trials = 40;
  for (std::uint64_t cycle = 1; cycle <= trials; ++cycle) {
    const auto at = fx.core->attach(pensacola, cycle);
    const auto& mr =
        fx.isp.mobile_regions()[static_cast<std::size_t>(at.region_index)];
    remote += mr.name == "CLMB";
  }
  EXPECT_GT(remote, trials / 2);
}

TEST(Validation722, DriveSwitchesEdgeCoBitsWithSpeedtestServer) {
  // The §7.2.2 controlled drive: San Diego -> Irvine while watching which
  // speedtest server serves the device; the user-address EdgeCO bits must
  // change exactly when the serving server does.
  const auto& fx = fixture_for(kCarriers[1]);  // verizon
  const auto* edge_field = fx.study.user_field("edgeco");
  ASSERT_NE(edge_field, nullptr);
  int switches = 0, aligned = 0;
  net::IPv4Address last_server;
  std::uint64_t last_bits = ~0ULL;
  for (int step = 0; step <= 30; ++step) {
    const double f = step / 30.0;
    const net::GeoPoint p{33.20 + (33.68 - 33.20) * f,
                          -117.24 + (-117.83 + 117.24) * f};
    // Fixed cycle: isolate geography from attachment churn.
    const auto at = fx.core->attach(p, 12345);
    const auto server = fx.core->speedtest_addr(at);
    const auto bits = at.user_prefix64.bits(edge_field->first_bit,
                                            edge_field->width);
    if (step > 0) {
      const bool server_changed = server != last_server;
      const bool bits_changed = bits != last_bits;
      switches += server_changed;
      aligned += server_changed == bits_changed;
    }
    last_server = server;
    last_bits = bits;
  }
  EXPECT_GE(switches, 1);  // Vista -> Azusa along the route
  EXPECT_EQ(aligned, 30);  // every change is simultaneous
}

TEST(Validation722, StationaryAttachmentsStableWithinBackboneRegion) {
  // The §7.2.2 stationary experiment: over many airplane cycles at one
  // San Diego location, the EdgeCO bits stay put except for occasional
  // switches to a neighbour behind the SAME BackboneCO.
  const auto& fx = fixture_for(kCarriers[1]);
  const net::GeoPoint home{32.72, -117.16};
  std::map<int, int> regions_seen;
  for (std::uint64_t cycle = 1; cycle <= 200; ++cycle)
    ++regions_seen[fx.core->attach(home, cycle).region_index];
  ASSERT_FALSE(regions_seen.empty());
  int dominant = 0;
  topo::CoId backbone = topo::kInvalidId;
  for (const auto& [region, count] : regions_seen) {
    dominant = std::max(dominant, count);
    const auto co =
        fx.isp.mobile_regions()[static_cast<std::size_t>(region)].backbone_co;
    if (backbone == topo::kInvalidId) backbone = co;
    EXPECT_EQ(co, backbone);  // switches stay within the backbone region
  }
  EXPECT_GE(dominant, 180);  // generally stable
  EXPECT_GE(regions_seen.size(), 2u);  // ...with a few neighbour switches
}

TEST(MobileServer, VerizonSpeedtestHostsExistPerRegion) {
  const auto& fx = fixture_for(kCarriers[1]);
  std::set<std::uint32_t> addrs;
  for (const auto& mr : fx.isp.mobile_regions()) {
    EXPECT_FALSE(mr.speedtest_addr.is_unspecified());
    EXPECT_TRUE(addrs.insert(mr.speedtest_addr.value()).second);
  }
}

}  // namespace
}  // namespace ran::infer
