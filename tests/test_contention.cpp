// Trace-analytics tests: TraceAnalysis known answers on a hand-built
// trace, a round trip of Tracer output, and canonical-report
// byte-stability across campaign thread counts. Runs under the
// -DRAN_SANITIZE=thread build (label obs).
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_analysis.hpp"
#include "probe/campaign.hpp"
#include "simnet/world.hpp"
#include "topogen/profiles.hpp"

namespace ran::obs {
namespace {

// A hand-built trace with known answers: one root thread running
//   outer [0, 1000)
//     inner [100, 400)
// plus counter samples on two threads and an instant elsewhere.
constexpr const char* kHandBuiltTrace = R"({"traceEvents":[
{"ph":"B","name":"outer","cat":"stage","ts":0,"pid":1,"tid":1},
{"ph":"B","name":"inner","cat":"stage","ts":100,"pid":1,"tid":1},
{"ph":"E","name":"inner","cat":"stage","ts":400,"pid":1,"tid":1},
{"ph":"i","name":"mark","cat":"event","ts":500,"pid":1,"tid":2},
{"ph":"C","name":"tasks","cat":"counter","ts":600,"pid":1,"tid":2,"args":{"value":5}},
{"ph":"C","name":"tasks","cat":"counter","ts":900,"pid":1,"tid":1,"args":{"value":7}},
{"ph":"E","name":"outer","cat":"stage","ts":1000,"pid":1,"tid":1}
]})";

TEST(TraceAnalysis, KnownAnswersOnHandBuiltTrace) {
  TraceAnalysis analysis;
  std::string error;
  ASSERT_TRUE(analysis.load_json(kHandBuiltTrace, &error)) << error;
  EXPECT_EQ(analysis.unmatched_ends(), 0u);
  EXPECT_EQ(analysis.unclosed_spans(), 0u);
  EXPECT_EQ(analysis.wall_us(), 1000u);

  // Inclusive vs exclusive: outer spans 1000 us but its self time
  // excludes inner's 300.
  const auto& spans = analysis.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans.at("outer").total_us, 1000u);
  EXPECT_EQ(spans.at("outer").self_us, 700u);
  EXPECT_EQ(spans.at("inner").total_us, 300u);
  EXPECT_EQ(spans.at("inner").self_us, 300u);

  // Critical path: the root thread (tid 1, earliest event) spends
  // [100,400) inside inner and the rest inside outer.
  const auto critical = analysis.critical_path();
  ASSERT_EQ(critical.size(), 2u);
  EXPECT_EQ(critical[0].name, "outer");
  EXPECT_EQ(critical[0].us, 700u);
  EXPECT_EQ(critical[1].name, "inner");
  EXPECT_EQ(critical[1].us, 300u);

  // Counters are cumulative per thread: final = sum of last samples.
  const auto counters = analysis.counters();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters.at("tasks").events, 2u);
  EXPECT_EQ(counters.at("tasks").final, 12u);
  EXPECT_EQ(analysis.instants().at("mark"), 1u);
}

TEST(TraceAnalysis, RoundTripsTracerOutput) {
  Tracer tracer;
  tracer.begin("phase", "stage");
  tracer.counter("done", 3);
  tracer.instant("probe.sample");
  tracer.end("phase");

  TraceAnalysis analysis;
  std::string error;
  ASSERT_TRUE(analysis.load_json(tracer.to_chrome_json(), &error)) << error;
  EXPECT_EQ(analysis.spans().at("phase").count, 1u);
  EXPECT_EQ(analysis.counters().at("done").final, 3u);
  EXPECT_EQ(analysis.instants().at("probe.sample"), 1u);
  EXPECT_EQ(analysis.unclosed_spans(), 0u);
}

TEST(TraceAnalysis, RejectsMalformedInput) {
  TraceAnalysis analysis;
  std::string error;
  EXPECT_FALSE(analysis.load_json("{not json", &error));
  EXPECT_FALSE(analysis.load_json("{\"other\":1}", &error));
  EXPECT_EQ(error, "no traceEvents array");
}

/// The shared campaign workload for the canonical-stability test: a
/// seeded cable world probed from three host VPs (the test_campaign
/// fixture shape).
class ContentionCampaignTest : public ::testing::Test {
 protected:
  static sim::World& world() {
    static sim::World* w = [] {
      auto* world = new sim::World{7101};
      net::Rng rng{31};
      auto profile = topo::comcast_profile();
      profile.regions.resize(3);
      world->add_isp(topo::generate_cable(profile, rng));
      for (int i = 0; i < 3; ++i)
        vps_[static_cast<std::size_t>(i)] = world->add_host(
            "vp" + std::to_string(i), {38.9 + i, -77.0 - i},
            *net::IPv4Address::parse("192.0.2." + std::to_string(i + 1)));
      world->finalize();
      return world;
    }();
    return *w;
  }

  static std::vector<probe::ProbeTask> tasks(std::size_t targets) {
    std::vector<probe::ProbeTask> out;
    const auto& isp = world().isp(0);
    std::vector<net::IPv4Address> dsts;
    for (const auto& router : isp.routers()) {
      if (dsts.size() >= targets) break;
      dsts.push_back(isp.iface(router.ifaces.front()).addr);
    }
    for (int v = 0; v < 3; ++v)
      for (const auto dst : dsts)
        out.push_back({{vps_[static_cast<std::size_t>(v)], 0.05},
                       "vp" + std::to_string(v),
                       dst,
                       0});
    return out;
  }

 private:
  static std::array<sim::NodeId, 3> vps_;
};

std::array<sim::NodeId, 3> ContentionCampaignTest::vps_ = {
    sim::kInvalidNode, sim::kInvalidNode, sim::kInvalidNode};

std::string canonical_at(sim::World& world,
                         std::span<const probe::ProbeTask> tasks,
                         int threads) {
  Registry registry;
  Tracer tracer;
  registry.set_tracer(&tracer);
  probe::CampaignConfig config;
  config.parallelism = threads;
  config.metrics = &registry;
  const probe::CampaignRunner runner{world, config};
  const auto records = runner.run(tasks);
  EXPECT_EQ(records.size(), tasks.size());
  TraceAnalysis analysis;
  std::string error;
  EXPECT_TRUE(analysis.load_json(tracer.to_chrome_json(), &error)) << error;
  return analysis.canonical_json();
}

TEST_F(ContentionCampaignTest, CanonicalReportByteStableAcrossThreadCounts) {
  const auto work = tasks(60);
  ASSERT_GE(work.size(), 100u);
  // The canonical report captures what was traced (shard spans, sampled
  // probe instants, throughput counter events), never when: the same
  // workload must produce identical bytes at 1 and 8 workers.
  const auto serial = canonical_at(world(), work, 1);
  const auto parallel = canonical_at(world(), work, 8);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("\"canonical\": \"ran.trace_analysis.v1\""),
            std::string::npos);
}

}  // namespace
}  // namespace ran::obs
