// Determinism and concurrency tests for the campaign layer: per-probe
// seeding makes every World probe a pure function of its identity, and
// CampaignRunner produces byte-identical corpora at any thread count.
// This binary is the primary target of the -DRAN_SANITIZE=thread build.
#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <thread>
#include <vector>

#include "core/corpus_io.hpp"
#include "core/observations.hpp"
#include "probe/campaign.hpp"
#include "topogen/profiles.hpp"

namespace ran::probe {
namespace {

bool hops_equal(const sim::Hop& a, const sim::Hop& b) {
  return a.ttl == b.ttl && a.addr == b.addr && a.rtt_ms == b.rtt_ms &&
         a.reply_ttl == b.reply_ttl;
}

bool traces_equal(const sim::TraceResult& a, const sim::TraceResult& b) {
  if (a.dst != b.dst || a.reached != b.reached ||
      a.hops.size() != b.hops.size())
    return false;
  for (std::size_t i = 0; i < a.hops.size(); ++i)
    if (!hops_equal(a.hops[i], b.hops[i])) return false;
  return true;
}

class CampaignTest : public ::testing::Test {
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

  static sim::ProbeSource vp(int i) {
    world();
    return {vps_[static_cast<std::size_t>(i)], 0.05};
  }

  /// A mix of responding router interfaces spread over the ISP.
  static std::vector<net::IPv4Address> targets(std::size_t count) {
    std::vector<net::IPv4Address> out;
    const auto& isp = world().isp(0);
    for (const auto& router : isp.routers()) {
      if (out.size() >= count) break;
      out.push_back(isp.iface(router.ifaces.front()).addr);
    }
    return out;
  }

 private:
  static std::array<sim::NodeId, 3> vps_;
};

std::array<sim::NodeId, 3> CampaignTest::vps_ = {
    sim::kInvalidNode, sim::kInvalidNode, sim::kInvalidNode};

TEST_F(CampaignTest, TraceIsPureFunctionOfIdentity) {
  const auto dsts = targets(40);
  ASSERT_GE(dsts.size(), 10u);
  // First pass in one order, second pass interleaved/reversed: every
  // (src, dst, flow, attempt) must reproduce bit-for-bit.
  std::vector<sim::TraceResult> first;
  for (const auto dst : dsts) first.push_back(world().trace(vp(0), dst, 0, 0));
  for (std::size_t i = dsts.size(); i-- > 0;) {
    (void)world().trace(vp(1), dsts[i], 7, 1);  // unrelated interleaved probe
    const auto again = world().trace(vp(0), dsts[i], 0, 0);
    EXPECT_TRUE(traces_equal(first[i], again)) << "dst index " << i;
  }
}

TEST_F(CampaignTest, AttemptReRollsNoiseWithoutMovingThePath) {
  const auto dsts = targets(40);
  bool any_noise_difference = false;
  for (const auto dst : dsts) {
    const auto a = world().trace(vp(0), dst, 0, 0);
    const auto b = world().trace(vp(0), dst, 0, 1);
    ASSERT_EQ(a.hops.size(), b.hops.size());
    for (std::size_t i = 0; i < a.hops.size(); ++i) {
      // Paris flow pins the path: responding hops answer from the same
      // interface on every attempt.
      if (a.hops[i].responded() && b.hops[i].responded()) {
        EXPECT_EQ(a.hops[i].addr, b.hops[i].addr);
      }
      any_noise_difference =
          any_noise_difference || a.hops[i].rtt_ms != b.hops[i].rtt_ms;
    }
  }
  EXPECT_TRUE(any_noise_difference);
}

TEST_F(CampaignTest, ConcurrentTracesMatchSerial) {
  const auto dsts = targets(60);
  std::vector<sim::TraceResult> serial;
  for (const auto dst : dsts) serial.push_back(world().trace(vp(0), dst));

  // Four threads re-run the full target list concurrently — same sources,
  // overlapping route-cache entries — and every result must match.
  std::vector<std::vector<sim::TraceResult>> per_thread(4);
  std::vector<std::thread> pool;
  for (auto& results : per_thread)
    pool.emplace_back([&dsts, &results] {
      for (const auto dst : dsts) results.push_back(world().trace(vp(0), dst));
    });
  for (auto& th : pool) th.join();

  for (const auto& results : per_thread) {
    ASSERT_EQ(results.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      EXPECT_TRUE(traces_equal(serial[i], results[i])) << "dst index " << i;
  }
}

TEST_F(CampaignTest, ParallelForHitsEveryIndexExactlyOnce) {
  std::vector<int> hits(1000, 0);
  parallel_for(hits.size(), 8, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST_F(CampaignTest, RunnerMatchesSerialLoopAtAnyThreadCount) {
  const auto dsts = targets(50);
  const TracerouteEngine engine{world(), {}};

  std::vector<ProbeTask> tasks;
  for (int v = 0; v < 3; ++v)
    for (const auto dst : dsts)
      tasks.push_back({vp(v), "vp" + std::to_string(v), dst, 0});

  // Reference: the plain serial loop the pipelines used to run.
  infer::TraceCorpus reference;
  for (const auto& task : tasks)
    reference.add(engine.run(task.src, task.dst, task.vp, task.flow_id));
  std::ostringstream ref_bytes;
  infer::write_corpus(ref_bytes, reference);

  for (const int threads : {1, 2, 8}) {
    const CampaignRunner runner{world(), {.parallelism = threads}};
    EXPECT_EQ(runner.thread_count(), threads);
    infer::TraceCorpus corpus;
    corpus.traces = runner.run(tasks);
    std::ostringstream bytes;
    infer::write_corpus(bytes, corpus);
    EXPECT_EQ(ref_bytes.str(), bytes.str()) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace ran::probe
