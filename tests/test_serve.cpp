// Serving-layer tests (ctest label `serve`): the flat JSON-lines
// protocol codec, the QueryEngine's five ops and its QueryReason error
// taxonomy, a malformed-request fuzz sweep (the daemon is not crashable
// from the wire), and the TCP server end to end — graceful shutdown,
// size/timeout robustness, concurrent clients racing a republish, and
// byte-identical replies from a snapshot vs its save/load reload.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/query_engine.hpp"
#include "core/snapshot.hpp"
#include "fault_inject.hpp"
#include "netbase/json.hpp"
#include "netbase/protocol.hpp"
#include "netbase/rng.hpp"
#include "obs/exposition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"

namespace ran {
namespace {

using infer::QueryEngine;
using infer::QueryEngineConfig;
using infer::RegionalGraph;
using infer::SnapshotHub;
using infer::TopologySnapshot;

std::map<std::string, RegionalGraph> fixture_regions() {
  std::map<std::string, RegionalGraph> regions;
  RegionalGraph& r = regions["springfield"];
  r.region = "springfield";
  r.add_edge("agg1", "edge1", 12);
  r.add_edge("agg1", "edge2", 9);
  r.add_edge("agg2", "edge2", 4);
  r.add_edge("agg2", "edge3", 7);
  r.agg_cos = {"agg1", "agg2"};
  return regions;
}

std::shared_ptr<const TopologySnapshot> fixture_snapshot(
    std::uint64_t generation = 1, bool with_provenance = true) {
  std::shared_ptr<obs::ProvenanceLog> log;
  if (with_provenance) {
    log = std::make_shared<obs::ProvenanceLog>();
    log->add_support("agg1", "edge1", 12, "(vp1,10.0.0.1)",
                     "(vp7,10.0.9.9)");
    log->record("agg1", "edge1", "adj.transit", true, "12 transits");
  }
  return std::make_shared<const TopologySnapshot>(TopologySnapshot::build(
      "cable", fixture_regions(), std::move(log), generation,
      {{"agg1", 4.0}, {"edge1", 6.5}}));
}

/// Reads one newline-terminated reply.
bool read_reply(net::TcpStream& stream, std::string& buffer,
                std::string& line, int timeout_ms = 5000) {
  for (;;) {
    const auto pos = buffer.find('\n');
    if (pos != std::string::npos) {
      line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      return true;
    }
    char chunk[4096];
    std::size_t n = 0;
    const auto result =
        stream.read_some(chunk, sizeof(chunk), timeout_ms, &n);
    if (result != net::TcpStream::ReadResult::kData) return false;
    buffer.append(chunk, n);
  }
}

// ---------------------------------------------------------------------
// Protocol codec.
// ---------------------------------------------------------------------

TEST(FlatRequest, ParsesFlatStringObjects) {
  net::FlatRequest request;
  ASSERT_TRUE(request.parse(
      R"({"op":"path","region":"springfield","from":"a","to":"b"})",
      nullptr));
  EXPECT_EQ(request.size(), 4u);
  EXPECT_TRUE(request.has("op"));
  EXPECT_EQ(request.get("op"), "path");
  EXPECT_EQ(request.get("region"), "springfield");
  EXPECT_EQ(request.get("absent"), "");
  EXPECT_FALSE(request.has("absent"));
}

TEST(FlatRequest, ToleratesInterTokenWhitespace) {
  net::FlatRequest request;
  ASSERT_TRUE(request.parse("  { \"op\" :\t\"ping\" , \"x\" : \"y\" }  \r",
                            nullptr));
  EXPECT_EQ(request.get("op"), "ping");
  EXPECT_EQ(request.get("x"), "y");
}

TEST(FlatRequest, EscapedStringsTakeTheSlowPathCorrectly) {
  net::FlatRequest request;
  ASSERT_TRUE(request.parse(R"({"op":"ping","note":"a\"b\\c"})", nullptr));
  EXPECT_EQ(request.get("note"), "a\"b\\c");
}

TEST(FlatRequest, RejectsEverythingThatIsNotAFlatStringObject) {
  const char* bad[] = {
      "",
      "ping",
      "[]",
      R"(["op"])",
      R"({"op":42})",
      R"({"op":null})",
      R"({"op":{"x":"y"}})",
      R"({"op":"ping")",
      R"({"op":"ping"} trailing)",
      R"({"op" "ping"})",
      R"({"op":"ping)",
  };
  for (const char* line : bad) {
    net::FlatRequest request;
    std::string error;
    EXPECT_FALSE(request.parse(line, &error)) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

TEST(FlatRequest, BoundsTheFieldCount) {
  std::string line = "{";
  for (int i = 0; i < 9; ++i) {
    if (i > 0) line += ",";
    line += "\"k" + std::to_string(i) + "\":\"v\"";
  }
  line += "}";
  net::FlatRequest request;
  std::string error;
  EXPECT_FALSE(request.parse(line, &error));
  EXPECT_NE(error.find("too many"), std::string::npos);
}

TEST(LineJsonWriter, WritesDeterministicOneLineJson) {
  net::LineJsonWriter w;
  w.begin_object();
  w.key("b").value(true);
  w.key("n").value(std::uint64_t{42});
  w.key("s").value("a\"b");
  w.key("list").begin_array();
  w.value("x");
  w.value(false);
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            R"({"b":true,"n":42,"s":"a\"b","list":["x",false]})");
}

// ---------------------------------------------------------------------
// QueryEngine.
// ---------------------------------------------------------------------

TEST(QueryEngine, PingWorksBeforeAndAfterTheFirstPublish) {
  SnapshotHub hub;
  const QueryEngine engine{hub};
  EXPECT_EQ(engine.answer(R"({"op":"ping"})"),
            R"({"ok":true,"op":"ping","generation":0,"ready":false})");
  hub.publish(fixture_snapshot(7));
  EXPECT_EQ(engine.answer(R"({"op":"ping"})"),
            R"({"ok":true,"op":"ping","generation":7,"ready":true})");
}

TEST(QueryEngine, AnswersAllFiveOps) {
  SnapshotHub hub;
  hub.publish(fixture_snapshot());
  const QueryEngine engine{hub};

  const auto stats = engine.answer(R"({"op":"stats"})");
  EXPECT_NE(stats.find(R"("ok":true)"), std::string::npos);
  EXPECT_NE(stats.find(R"("source":"cable")"), std::string::npos);
  EXPECT_NE(stats.find(R"("springfield":{"agg_cos":2)"),
            std::string::npos);

  const auto path = engine.answer(
      R"({"op":"path","region":"springfield","from":"edge1","to":"edge3"})");
  EXPECT_NE(path.find(R"("path":["edge1","agg1","edge2","agg2","edge3"])"),
            std::string::npos);
  EXPECT_NE(path.find(R"("path_hops":4)"), std::string::npos);
  EXPECT_NE(path.find(R"("reachable":true)"), std::string::npos);
  EXPECT_EQ(path.find("latency_ms"), std::string::npos);

  const auto latency = engine.answer(
      R"({"op":"latency","region":"springfield","from":"agg1","to":"edge1"})");
  EXPECT_NE(latency.find(R"("latency_ms":2.5)"), std::string::npos);

  const auto resilience =
      engine.answer(R"({"op":"resilience","region":"springfield"})");
  EXPECT_NE(resilience.find(R"("op":"resilience")"), std::string::npos);
  EXPECT_NE(resilience.find(R"("region":"springfield")"),
            std::string::npos);
  EXPECT_NE(resilience.find(R"("worst_blast_radius")"), std::string::npos);

  const auto explain = engine.answer(
      R"({"op":"explain","from":"agg1","to":"edge1"})");
  EXPECT_NE(explain.find(R"("op":"explain")"), std::string::npos);
  EXPECT_NE(explain.find("adj.transit"), std::string::npos);
}

TEST(QueryEngine, EveryFailureHasItsSlug) {
  SnapshotHub hub;
  obs::Registry metrics;
  QueryEngineConfig config;
  config.metrics = &metrics;
  config.max_request_bytes = 128;
  const QueryEngine engine{hub, config};

  const auto expect_reason = [&](std::string_view line,
                                 std::string_view slug) {
    const auto reply = engine.answer(line);
    EXPECT_NE(reply.find(R"("ok":false)"), std::string::npos) << line;
    EXPECT_NE(reply.find("\"reason\":\"" + std::string{slug} + "\""),
              std::string::npos)
        << line << " -> " << reply;
  };

  expect_reason(R"({"op":"stats"})", "no_snapshot");
  hub.publish(fixture_snapshot());
  expect_reason("{garbage", "malformed_json");
  expect_reason(std::string(200, 'x'), "too_large");
  expect_reason(R"({"x":"y"})", "missing_field");
  expect_reason(R"({"op":"path","region":"springfield"})", "missing_field");
  expect_reason(R"({"op":"teleport"})", "unknown_op");
  expect_reason(
      R"({"op":"path","region":"nowhere","from":"a","to":"b"})",
      "unknown_region");
  expect_reason(
      R"({"op":"path","region":"springfield","from":"ghost","to":"edge1"})",
      "unknown_co");
  hub.publish(fixture_snapshot(2, /*with_provenance=*/false));
  expect_reason(R"({"op":"explain","from":"a","to":"b"})", "no_provenance");

  // Every failure above also landed in its per-slug volatile counter.
  EXPECT_EQ(metrics.volatile_counter("serve.error.missing_field").value(),
            2u);
  EXPECT_EQ(metrics.volatile_counter("serve.error.unknown_op").value(), 1u);
  EXPECT_EQ(metrics.volatile_counter("serve.ok").value(), 0u);
  EXPECT_EQ(metrics.volatile_counter("serve.requests").value(), 9u);
}

TEST(QueryEngine, FuzzedRequestsAlwaysGetOneStructuredReply) {
  SnapshotHub hub;
  hub.publish(fixture_snapshot());
  const QueryEngine engine{hub};
  net::Rng rng{20260808};
  const char* seeds[] = {
      R"({"op":"ping"})",
      R"({"op":"stats"})",
      R"({"op":"path","region":"springfield","from":"edge1","to":"edge3"})",
      R"({"op":"explain","from":"agg1","to":"edge1"})",
  };
  int fuzzed = 0;
  for (const char* seed : seeds) {
    const fault::RequestFaultInjector injector{seed};
    for (const auto& line : injector.all(rng)) {
      const auto reply = engine.answer(line);
      ++fuzzed;
      ASSERT_FALSE(reply.empty());
      EXPECT_EQ(reply.front(), '{') << line;
      EXPECT_EQ(reply.back(), '}') << line;
      EXPECT_NE(reply.find(R"("ok":)"), std::string::npos) << line;
      EXPECT_EQ(reply.find('\n'), std::string::npos) << line;
    }
  }
  EXPECT_GE(fuzzed, 100);
}

// ---------------------------------------------------------------------
// TCP server.
// ---------------------------------------------------------------------

serve::ServerConfig test_config() {
  serve::ServerConfig config;
  config.worker_threads = 3;
  return config;
}

TEST(Server, StartStopIsGracefulAndIdempotent) {
  SnapshotHub hub;
  hub.publish(fixture_snapshot());
  serve::Server server{hub, test_config()};
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  EXPECT_GT(server.port(), 0);
  EXPECT_TRUE(server.running());
  // A connected idle client must not block shutdown.
  auto idle = net::TcpStream::connect_local(server.port());
  ASSERT_TRUE(idle.valid());
  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
}

TEST(Server, TwoServersCannotShareAPort) {
  SnapshotHub hub;
  hub.publish(fixture_snapshot());
  serve::Server first{hub, test_config()};
  ASSERT_TRUE(first.start());
  auto config = test_config();
  config.port = first.port();
  serve::Server second{hub, config};
  std::string error;
  EXPECT_FALSE(second.start(&error));
  EXPECT_FALSE(error.empty());
  first.stop();
}

TEST(Server, WireRepliesMatchTheEngineByteForByte) {
  SnapshotHub hub;
  hub.publish(fixture_snapshot());
  const QueryEngine engine{hub};
  serve::Server server{hub, test_config()};
  ASSERT_TRUE(server.start());
  auto client = net::TcpStream::connect_local(server.port());
  ASSERT_TRUE(client.valid());
  std::string buffer;
  const char* requests[] = {
      R"({"op":"ping"})",
      R"({"op":"stats"})",
      R"({"op":"path","region":"springfield","from":"edge1","to":"edge3"})",
      R"({"op":"latency","region":"springfield","from":"agg1","to":"edge1"})",
      R"({"op":"resilience","region":"springfield"})",
      R"({"op":"explain","from":"agg1","to":"edge1"})",
      "{malformed",
  };
  for (const char* request : requests) {
    ASSERT_TRUE(client.send_all(std::string{request} + "\n"));
    std::string reply;
    ASSERT_TRUE(read_reply(client, buffer, reply)) << request;
    EXPECT_EQ(reply, engine.answer(request));
  }
  server.stop();
}

TEST(Server, OversizedAndStalledRequestsAreBounced) {
  SnapshotHub hub;
  hub.publish(fixture_snapshot());
  auto config = test_config();
  config.max_request_bytes = 64;
  config.request_timeout_ms = 200;
  serve::Server server{hub, config};
  ASSERT_TRUE(server.start());
  {
    auto client = net::TcpStream::connect_local(server.port());
    ASSERT_TRUE(client.valid());
    ASSERT_TRUE(client.send_all(std::string(5000, 'x') + "\n"));
    std::string buffer;
    std::string reply;
    ASSERT_TRUE(read_reply(client, buffer, reply));
    EXPECT_NE(reply.find(R"("reason":"too_large")"), std::string::npos);
    // ... and the server hangs up after the error. The close may carry
    // an RST (the server drops unread bytes), so either termination
    // result is a correct hang-up — just not more data or a timeout.
    char chunk[64];
    std::size_t n = 0;
    const auto result = client.read_some(chunk, sizeof(chunk), 2000, &n);
    EXPECT_TRUE(result == net::TcpStream::ReadResult::kClosed ||
                result == net::TcpStream::ReadResult::kError);
  }
  {
    // A stalled partial line trips the request deadline.
    auto client = net::TcpStream::connect_local(server.port());
    ASSERT_TRUE(client.valid());
    ASSERT_TRUE(client.send_all(R"({"op":"pi)"));
    std::string buffer;
    std::string reply;
    ASSERT_TRUE(read_reply(client, buffer, reply));
    EXPECT_NE(reply.find(R"("reason":"timeout")"), std::string::npos);
  }
  server.stop();
}

TEST(Server, ConcurrentClientsRacingARepublishSeeConsistentReplies) {
  SnapshotHub hub;
  hub.publish(fixture_snapshot(1));
  // A worker owns its connection for the whole conversation, so give
  // every long-lived client its own worker.
  auto config = test_config();
  config.worker_threads = 6;
  serve::Server server{hub, config};
  ASSERT_TRUE(server.start());

  const QueryEngine engine{hub};
  const std::string path_request =
      R"({"op":"path","region":"springfield","from":"edge1","to":"edge3"})";
  // Path replies carry no generation: they must be byte-identical
  // across every republish of equivalent content.
  const auto expected_path = engine.answer(path_request);

  constexpr std::uint64_t kGenerations = 20;
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 6; ++t)
    clients.emplace_back([&] {
      auto stream = net::TcpStream::connect_local(server.port());
      if (!stream.valid()) {
        bad.fetch_add(1);
        return;
      }
      std::string buffer;
      for (int round = 0; round < 30; ++round) {
        if (!stream.send_all(path_request + "\n" +
                             R"({"op":"ping"})" + "\n")) {
          bad.fetch_add(1);
          return;
        }
        std::string path_reply;
        std::string ping_reply;
        if (!read_reply(stream, buffer, path_reply) ||
            !read_reply(stream, buffer, ping_reply)) {
          bad.fetch_add(1);
          return;
        }
        if (path_reply != expected_path) bad.fetch_add(1);
        if (ping_reply.find(R"("ready":true)") == std::string::npos)
          bad.fetch_add(1);
      }
    });

  for (std::uint64_t generation = 2; generation <= kGenerations;
       ++generation)
    hub.publish(fixture_snapshot(generation));
  for (auto& client : clients) client.join();
  EXPECT_EQ(bad.load(), 0);
  server.stop();
}

TEST(Server, ReloadedSnapshotServesByteIdenticalReplies) {
  // The acceptance check of the snapshot API: answers from a reloaded
  // artifact are indistinguishable from answers from the original.
  const auto original = fixture_snapshot(5);
  std::stringstream stream;
  original->save(stream);
  const auto reloaded = TopologySnapshot::load(stream);
  ASSERT_TRUE(reloaded.has_value());

  SnapshotHub hub;
  const QueryEngine engine{hub};
  const char* requests[] = {
      R"({"op":"stats"})",
      R"({"op":"path","region":"springfield","from":"edge1","to":"edge3"})",
      R"({"op":"latency","region":"springfield","from":"agg1","to":"edge1"})",
      R"({"op":"resilience","region":"springfield"})",
      R"({"op":"explain","from":"agg1","to":"edge1"})",
      R"({"op":"ping"})",
  };
  hub.publish(original);
  std::vector<std::string> before;
  for (const char* request : requests)
    before.push_back(engine.answer(request));
  hub.publish(std::make_shared<const TopologySnapshot>(std::move(*reloaded)));
  for (std::size_t i = 0; i < std::size(requests); ++i)
    EXPECT_EQ(engine.answer(requests[i]), before[i]) << requests[i];
}

TEST(QueryEngineTelemetry, RepliesAreRidStampedOnlyWhenInstrumented) {
  SnapshotHub hub;
  hub.publish(fixture_snapshot());

  // Without telemetry, a reply is a pure function of (request, snapshot)
  // — no rid, no id counter movement.
  const QueryEngine bare{hub};
  EXPECT_EQ(bare.answer(R"({"op":"ping"})").find("\"rid\""),
            std::string::npos);
  EXPECT_EQ(bare.request_ids_issued(), 0u);

  obs::Registry metrics;
  QueryEngineConfig config;
  config.metrics = &metrics;
  const QueryEngine engine{hub, config};
  EXPECT_NE(engine.answer(R"({"op":"ping"})")
                .find(R"("ok":true,"op":"ping","rid":1,)"),
            std::string::npos);
  const auto error = engine.answer(R"({"op":"teleport"})");
  EXPECT_NE(error.find(R"("ok":false)"), std::string::npos);
  EXPECT_NE(error.find(R"("reason":"unknown_op","rid":2)"),
            std::string::npos)
      << error;
  EXPECT_EQ(engine.request_ids_issued(), 2u);
}

TEST(QueryEngineTelemetry, RequestIdsReachLogLinesAndTracerSpans) {
  SnapshotHub hub;
  hub.publish(fixture_snapshot());
  obs::Registry metrics;
  obs::LogConfig log_config;
  log_config.min_level = obs::LogLevel::kDebug;
  log_config.stderr_sink = false;
  log_config.jsonl_path = testing::TempDir() + "serve_rid_log.jsonl";
  obs::Log log{log_config};
  obs::Tracer tracer;
  metrics.set_logger(&log);
  metrics.set_tracer(&tracer);
  QueryEngineConfig config;
  config.metrics = &metrics;
  const QueryEngine engine{hub, config};

  (void)engine.answer(R"({"op":"ping"})");      // rid 1 -> debug serve.request
  (void)engine.answer(R"({"op":"teleport"})");  // rid 2 -> info serve.error
  metrics.set_logger(nullptr);
  metrics.set_tracer(nullptr);
  ASSERT_TRUE(log.flush());

  std::ifstream in{log_config.jsonl_path};
  const std::string lines{std::istreambuf_iterator<char>{in}, {}};
  EXPECT_NE(lines.find("rid=1 op=ping"), std::string::npos) << lines;
  EXPECT_NE(lines.find("rid=2 reason=unknown_op"), std::string::npos)
      << lines;

  // One span per request, named by the same rid (B + E events each).
  const auto spans = tracer.to_chrome_json();
  EXPECT_NE(spans.find("serve.req.1"), std::string::npos);
  EXPECT_NE(spans.find("serve.req.2"), std::string::npos);
  EXPECT_EQ(tracer.event_count(), 4u);
}

TEST(QueryEngineTelemetry, MetricsOpScrapesTheAttachedRegistry) {
  SnapshotHub hub;
  const QueryEngine bare{hub};
  EXPECT_NE(bare.answer(R"({"op":"metrics"})")
                .find(R"("reason":"no_telemetry")"),
            std::string::npos);

  obs::Registry metrics;
  metrics.counter("build.edges").inc(42);
  QueryEngineConfig config;
  config.metrics = &metrics;
  const QueryEngine engine{hub, config};

  // The default format carries a full Prometheus document that must
  // round-trip through the exposition parser.
  const auto reply = engine.answer(R"({"op":"metrics"})");
  std::string error;
  const auto parsed = net::parse_json(reply, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const auto* exposition = parsed->find("exposition");
  ASSERT_NE(exposition, nullptr);
  std::map<std::string, std::string> types;
  const auto samples =
      obs::parse_exposition(exposition->str, &error, &types);
  ASSERT_TRUE(samples.has_value()) << error;
  EXPECT_EQ(samples->at("ran_build_edges"), 42.0);
  EXPECT_EQ(types.at("ran_build_edges"), "counter");
  EXPECT_NE(reply.find(R"("scrape_seq":1)"), std::string::npos);

  // Each metrics request consumes one scrape ordinal; the JSON format
  // carries the same counters without the text rendering.
  const auto second = engine.answer(R"({"op":"metrics","format":"json"})");
  EXPECT_NE(second.find(R"("format":"json")"), std::string::npos);
  EXPECT_NE(second.find(R"("scrape_seq":2)"), std::string::npos);
  EXPECT_NE(second.find(R"("build.edges":42)"), std::string::npos);
}

TEST(QueryEngineTelemetry, HealthReportsWindowAgeAndWorkerSaturation) {
  SnapshotHub hub;
  obs::Registry metrics;
  QueryEngineConfig config;
  config.metrics = &metrics;
  {
    // Before the first publish, and with no ServeHealth source wired,
    // the reply says "not ready" and omits the workers block entirely.
    const QueryEngine engine{hub, config};
    const auto before = engine.answer(R"({"op":"health"})");
    EXPECT_NE(before.find(R"("generation":0,"ready":false)"),
              std::string::npos)
        << before;
    EXPECT_NE(before.find(R"("snapshot_age_s":-1)"), std::string::npos);
    EXPECT_EQ(before.find("workers"), std::string::npos);
  }

  infer::ServeHealth health;
  health.total_workers = 4;
  health.busy_workers.store(1);
  health.queue_depth.store(2);
  config.health = &health;
  const QueryEngine engine{hub, config};
  hub.publish(fixture_snapshot(3));
  (void)engine.answer(R"({"op":"teleport"})");  // one error into the window
  const auto reply = engine.answer(R"({"op":"health"})");
  EXPECT_NE(reply.find(R"("error_window":{"errors":1,"ok":0,"window_s":60})"),
            std::string::npos)
      << reply;
  EXPECT_NE(reply.find(R"("generation":3,"ready":true)"), std::string::npos);
  EXPECT_NE(
      reply.find(
          R"("workers":{"busy":1,"queue":2,"saturation":0.25,"total":4})"),
      std::string::npos)
      << reply;
}

TEST(QueryEngineTelemetry, DumpReturnsCanonicalAndVolatileFlightRecords) {
  SnapshotHub hub;
  hub.publish(fixture_snapshot());
  const QueryEngine bare{hub};
  EXPECT_NE(bare.answer(R"({"op":"dump"})")
                .find(R"("reason":"no_telemetry")"),
            std::string::npos);

  obs::Registry metrics;
  obs::FlightRecorder recorder;
  QueryEngineConfig config;
  config.metrics = &metrics;
  config.recorder = &recorder;
  const QueryEngine engine{hub, config};
  (void)engine.answer(R"({"op":"ping"})");
  (void)engine.answer(R"({"op":"teleport"})");

  // The dump request itself is recorded only after its reply is built,
  // so it never appears in its own record list.
  const auto dump = engine.answer(R"({"op":"dump"})");
  EXPECT_NE(dump.find(R"("recorded_total":2)"), std::string::npos) << dump;
  EXPECT_NE(
      dump.find(
          R"({"op":"ping","reason":"ok","request":"{\"op\":\"ping\"}","rid":1})"),
      std::string::npos)
      << dump;
  EXPECT_NE(dump.find(R"("reason":"unknown_op")"), std::string::npos);
  EXPECT_EQ(dump.find("ts_us"), std::string::npos);

  const auto verbose = engine.answer(R"({"op":"dump","volatile":"1"})");
  EXPECT_NE(verbose.find("\"latency_us\":"), std::string::npos);
  EXPECT_NE(verbose.find("\"tid\":"), std::string::npos);
  EXPECT_NE(verbose.find("\"ts_us\":"), std::string::npos);
}

TEST(QueryEngineTelemetry, PerOpHistogramsPartitionEveryRequest) {
  SnapshotHub hub;  // no snapshot: data ops fail under their own op slot
  obs::Registry metrics;
  QueryEngineConfig config;
  config.metrics = &metrics;
  const QueryEngine engine{hub, config};

  (void)engine.answer(R"({"op":"ping"})");
  (void)engine.answer(R"({"op":"ping"})");
  (void)engine.answer(R"({"op":"stats"})");  // no_snapshot, resolved op: stats
  (void)engine.answer(R"({"op":"path"})");   // no_snapshot, resolved op: path
  (void)engine.answer("{garbage");           // malformed_json -> other
  (void)engine.answer(R"({"op":"teleport"})");  // unknown_op -> other
  (void)engine.answer(R"({"op":"metrics"})");
  // Server-detected failures land in the same partition, under "other".
  const auto timeout = engine.error_reply(infer::QueryReason::kTimeout,
                                          "per-request deadline expired");
  EXPECT_NE(timeout.find(R"("reason":"timeout")"), std::string::npos);

  EXPECT_EQ(metrics.volatile_histogram("serve.latency_us.ping").count(), 2u);
  EXPECT_EQ(metrics.volatile_histogram("serve.latency_us.stats").count(), 1u);
  EXPECT_EQ(metrics.volatile_histogram("serve.latency_us.path").count(), 1u);
  EXPECT_EQ(metrics.volatile_histogram("serve.latency_us.metrics").count(),
            1u);
  EXPECT_EQ(metrics.volatile_histogram("serve.latency_us.other").count(), 3u);

  // The partition is exhaustive: per-op counts sum to serve.requests.
  EXPECT_EQ(metrics.volatile_counter("serve.requests").value(), 8u);
  std::uint64_t total = 0;
  for (const char* op : {"ping", "stats", "path", "latency", "resilience",
                         "explain", "metrics", "health", "dump", "other"})
    total += metrics
                 .volatile_histogram(std::string{"serve.latency_us."} + op)
                 .count();
  EXPECT_EQ(total, 8u);
}

}  // namespace
}  // namespace ran
