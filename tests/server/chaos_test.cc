// Chaos tests: the fault-injection points threaded through the service
// stack, exercised end to end. Each test arms a point, drives a workload
// through QueryService (or the real TCP loop), and asserts the degraded
// behaviour is the designed one — shed, retry, partial estimate — never a
// hang, a poisoned cache entry, or a silent wrong answer.
#include <gtest/gtest.h>

#include <string>

#include "server/client.h"
#include "server/query_service.h"
#include "server/tcp_server.h"
#include "util/fault_injection.h"

namespace pfql {
namespace server {
namespace {

constexpr char kCoinProgram[] = "flip(<K>, V) :- opts(K, V).\n";
constexpr char kCoinData[] =
    "relation opts(k, v) {\n  (0, 0)\n  (0, 1)\n}\n";

Request CoinRequest(RequestKind kind) {
  Request request;
  request.kind = kind;
  request.program_text = kCoinProgram;
  request.data_text = kCoinData;
  request.event = "flip(0, 1)";
  return request;
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultRegistry::Instance().Reset(); }
  void TearDown() override { fault::FaultRegistry::Instance().Reset(); }
};

TEST_F(ChaosTest, ForcedCacheMissRecomputesInsteadOfServingStale) {
  QueryService service;
  const Request request = CoinRequest(RequestKind::kExact);
  ASSERT_TRUE(service.Call(request).status.ok());

  fault::ScopedFault fault(fault::points::kCacheLookup,
                           fault::FaultSpec::Probability(1.0));
  const Response response = service.Call(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_FALSE(response.cached);  // the hit was forced into a miss
  EXPECT_EQ(response.result.Find("probability")->AsString(), "1/2");
  EXPECT_GE(service.StatsJson().Find("cache")->Find("misses")->AsInt(), 2);
}

TEST_F(ChaosTest, CacheEvictionStormEmptiesTheCacheButServiceRecovers) {
  QueryService service;
  const Request request = CoinRequest(RequestKind::kExact);
  ASSERT_TRUE(service.Call(request).status.ok());
  EXPECT_TRUE(service.Call(request).cached);

  {
    // The next insert first evicts everything (a cache wipe mid-flight).
    fault::ScopedFault fault(fault::points::kCacheEvict,
                             fault::FaultSpec::NthHit(1));
    Request other = CoinRequest(RequestKind::kExact);
    other.event = "flip(0, 0)";
    ASSERT_TRUE(service.Call(other).status.ok());
  }

  // The original entry is gone; the service recomputes and re-caches.
  const Response recompute = service.Call(request);
  ASSERT_TRUE(recompute.status.ok());
  EXPECT_FALSE(recompute.cached);
  EXPECT_TRUE(service.Call(request).cached);
  EXPECT_GE(service.StatsJson().Find("cache")->Find("evictions")->AsInt(),
            1);
}

TEST_F(ChaosTest, PoolSubmitFaultShedsAsRetryableOverload) {
  QueryService service;
  {
    fault::ScopedFault fault(fault::points::kPoolSubmit,
                             fault::FaultSpec::Probability(1.0));
    const Response shed = service.Call(CoinRequest(RequestKind::kExact));
    ASSERT_FALSE(shed.status.ok());
    EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
    EXPECT_NE(shed.status.message().find("overloaded"), std::string::npos);
  }
  // Disarmed, the very same request goes through.
  EXPECT_TRUE(service.Call(CoinRequest(RequestKind::kExact)).status.ok());
}

TEST_F(ChaosTest, WorkerDelayFaultOnlyAddsLatency) {
  QueryService service;
  fault::ScopedFault fault(fault::points::kPoolRun,
                           fault::FaultSpec::NthHit(1, /*delay_ms=*/30));
  const Response response = service.Call(CoinRequest(RequestKind::kExact));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.result.Find("probability")->AsString(), "1/2");
  EXPECT_EQ(
      fault::FaultRegistry::Instance().FiredCount(fault::points::kPoolRun),
      1u);
}

TEST_F(ChaosTest, DegradedResponsesAreServedButNeverCached) {
  QueryService service;
  Request request = CoinRequest(RequestKind::kApprox);
  request.epsilon = 0.3;
  request.delta = 0.3;
  // allow_partial defaults to true at the wire layer.

  {
    fault::ScopedFault fault(fault::points::kApproxSample,
                             fault::FaultSpec::NthHit(5));
    const Response degraded = service.Call(request);
    ASSERT_TRUE(degraded.status.ok()) << degraded.status.ToString();
    const Json* flag = degraded.result.Find("degraded");
    ASSERT_NE(flag, nullptr);
    EXPECT_TRUE(flag->AsBool());
    EXPECT_EQ(degraded.result.Find("samples")->AsInt(), 4);
    EXPECT_LT(degraded.result.Find("samples")->AsInt(),
              degraded.result.Find("samples_requested")->AsInt());
    EXPECT_NE(degraded.result.Find("ci_halfwidth"), nullptr);
    EXPECT_FALSE(degraded.cached);
  }

  // The partial estimate was NOT inserted: the same key recomputes fresh
  // (complete this time), and only then becomes a cache hit.
  const Response fresh = service.Call(request);
  ASSERT_TRUE(fresh.status.ok());
  EXPECT_FALSE(fresh.cached);
  EXPECT_FALSE(fresh.result.Find("degraded")->AsBool());
  EXPECT_TRUE(service.Call(request).cached);
}

TEST_F(ChaosTest, DegradedTrajectoryWithOneRunReportsAnUninformativeCi) {
  // One finished run has no spread to estimate: the CI must say "nothing
  // known" (half-width 1) at the stated confidence 1 - delta, not claim a
  // zero-width interval.
  QueryService service;
  Request request = CoinRequest(RequestKind::kTrajectory);
  request.runs = 8;
  request.steps = 200;
  request.backend = "interpreted";
  fault::ScopedFault fault(fault::points::kTrajectoryRun,
                           fault::FaultSpec::NthHit(2));
  const Response response = service.Call(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.result.Find("degraded")->AsBool());
  EXPECT_EQ(response.result.Find("runs")->AsInt(), 1);
  EXPECT_EQ(response.result.Find("ci_halfwidth")->AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(response.result.Find("ci_confidence")->AsDouble(),
                   1.0 - request.delta);
}

TEST_F(ChaosTest, AllowPartialFalseOnTheWireRestoresHardErrors) {
  QueryService service;
  fault::ScopedFault fault(fault::points::kApproxSample,
                           fault::FaultSpec::NthHit(2));
  Request request = CoinRequest(RequestKind::kApprox);
  request.epsilon = 0.3;
  request.delta = 0.3;
  request.allow_partial = false;
  const Response response = service.Call(request);
  ASSERT_FALSE(response.status.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
}

TEST_F(ChaosTest, ExactFallsBackToApproxOnBudgetExhaustion) {
  QueryService service;
  Request request = CoinRequest(RequestKind::kExact);
  request.max_nodes = 1;  // guaranteed kResourceExhausted
  // Without the fallback the budget error surfaces.
  const Response hard = service.Call(request);
  ASSERT_FALSE(hard.status.ok());
  EXPECT_EQ(hard.status.code(), StatusCode::kResourceExhausted);

  request.fallback = "approx";
  request.epsilon = 0.2;
  request.delta = 0.2;
  const Response response = service.Call(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.result.Find("degraded")->AsBool());
  EXPECT_EQ(response.result.Find("fallback_from")->AsString(), "exact");
  EXPECT_EQ(response.result.Find("fallback_reason")->AsString(),
            "ResourceExhausted");
  const double estimate = response.result.Find("estimate")->AsDouble();
  EXPECT_GE(estimate, 0.0);
  EXPECT_LE(estimate, 1.0);
  // Fallback results are degraded, hence never cached.
  EXPECT_FALSE(service.Call(request).cached);
}

TEST_F(ChaosTest, HealthReportsGaugesAndArmedFaults) {
  ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 4;
  QueryService service(options);
  fault::ScopedFault fault(fault::points::kTcpWrite,
                           fault::FaultSpec::NthHit(7));

  Request request;
  request.kind = RequestKind::kHealth;
  const Response response = service.Call(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  const Json& health = response.result;
  EXPECT_EQ(health.Find("status")->AsString(), "ok");
  EXPECT_EQ(health.Find("workers")->AsInt(), 2);
  EXPECT_EQ(health.Find("queue_capacity")->AsInt(), 4);
  EXPECT_EQ(health.Find("queue_depth")->AsInt(), 0);
  EXPECT_EQ(health.Find("in_flight")->AsInt(), 0);
  EXPECT_GE(health.Find("uptime_us")->AsInt(), 0);
  // Streaming-plane gauges (router probes use them as a load score).
  const Json* sched = health.Find("scheduler");
  ASSERT_NE(sched, nullptr);
  EXPECT_EQ(sched->Find("subscriptions")->AsInt(), 0);
  EXPECT_EQ(sched->Find("fused_groups")->AsInt(), 0);
  EXPECT_EQ(sched->Find("queued_quanta")->AsInt(), 0);
  const Json* faults = health.Find("faults");
  ASSERT_NE(faults, nullptr);
  const Json* point = faults->Find(fault::points::kTcpWrite);
  ASSERT_NE(point, nullptr);
  EXPECT_TRUE(point->Find("armed")->AsBool());

  // And over the wire schema, like a load balancer would ask.
  const Response line = service.CallLine("{\"method\":\"health\"}");
  ASSERT_TRUE(line.status.ok());
  EXPECT_EQ(line.result.Find("status")->AsString(), "ok");
}

TEST_F(ChaosTest, ClientRetriesThroughATruncatedResponseWrite) {
  QueryService service;
  TcpServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff = std::chrono::milliseconds(5);
  options.retry.max_backoff = std::chrono::milliseconds(20);
  Client client(options);
  ASSERT_TRUE(client.Connect(server.port()).ok());

  // The first response write is truncated mid-frame and the connection
  // dropped; the retrying client must detect the short read, reconnect,
  // and succeed on the second attempt.
  fault::FaultRegistry::Instance().Arm(fault::points::kTcpWrite,
                                       fault::FaultSpec::NthHit(1));
  Json ping = Json::Object();
  ping.Set("id", 7).Set("method", "ping");
  auto response = client.CallWithRetry(ping);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->Find("ok")->AsBool());
  EXPECT_EQ(response->Find("id")->AsInt(), 7);
  EXPECT_EQ(
      fault::FaultRegistry::Instance().FiredCount(fault::points::kTcpWrite),
      1u);

  // Without retries the same fault is a hard Unavailable.
  fault::FaultRegistry::Instance().Arm(fault::points::kTcpWrite,
                                       fault::FaultSpec::NthHit(1));
  Client bare;
  ASSERT_TRUE(bare.Connect(server.port()).ok());
  auto failed = bare.Call(ping);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  server.Stop();
}

TEST_F(ChaosTest, ClientRetriesDroppedConnectionReads) {
  QueryService service;
  TcpServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff = std::chrono::milliseconds(5);
  Client client(options);
  ASSERT_TRUE(client.Connect(server.port()).ok());

  // The server drops the connection right after reading the request: the
  // client sees a clean close with no response and reconnects.
  fault::FaultRegistry::Instance().Arm(fault::points::kTcpRead,
                                       fault::FaultSpec::NthHit(1));
  Json ping = Json::Object();
  ping.Set("method", "ping");
  auto response = client.CallWithRetry(ping);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->Find("ok")->AsBool());
  server.Stop();
}

// The coverage backstop behind the chaos CI job: every catalogued point is
// reachable by some workload. Armed as 1ms *delay* faults so the workloads
// still succeed — what is asserted is that each point actually fired.
TEST_F(ChaosTest, EveryKnownInjectionPointFires) {
  // router.* points live in the pfqlr front-end process, not in the query
  // service; tests/router/router_chaos_test.cc asserts those fire.
  auto in_process = [](const std::string& point) {
    return point.rfind("router.", 0) != 0;
  };
  auto& registry = fault::FaultRegistry::Instance();
  for (const std::string& point : fault::KnownPoints()) {
    if (!in_process(point)) continue;
    registry.Arm(point, fault::FaultSpec::NthHit(1, /*delay_ms=*/1));
  }

  QueryService service;
  TcpServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  {
    Client client;
    ASSERT_TRUE(client.Connect(server.port()).ok());
    auto ping = client.RoundTrip("{\"method\":\"ping\"}");  // tcp read+write
    ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  }
  server.Stop();

  // One request per sampler, plus a state-space expansion; the exact query
  // passes through pool submit/run and the cache lookup+insert (evict).
  Request exact = CoinRequest(RequestKind::kExact);
  ASSERT_TRUE(service.Call(exact).status.ok());
  ASSERT_TRUE(service.Call(exact).status.ok());  // cache lookup hit path

  Request approx = CoinRequest(RequestKind::kApprox);
  approx.epsilon = 0.4;
  approx.delta = 0.4;
  ASSERT_TRUE(service.Call(approx).status.ok());

  Request mcmc = CoinRequest(RequestKind::kMcmc);
  mcmc.epsilon = 0.4;
  mcmc.delta = 0.4;
  mcmc.burn_in = 2;
  ASSERT_TRUE(service.Call(mcmc).status.ok());

  Request trajectory = CoinRequest(RequestKind::kTrajectory);
  trajectory.steps = 16;
  trajectory.runs = 2;
  ASSERT_TRUE(service.Call(trajectory).status.ok());

  Request forever = CoinRequest(RequestKind::kForever);
  ASSERT_TRUE(service.Call(forever).status.ok());

  for (const std::string& point : fault::KnownPoints()) {
    if (!in_process(point)) continue;
    EXPECT_GE(registry.FiredCount(point), 1u) << "never fired: " << point;
  }
}

}  // namespace
}  // namespace server
}  // namespace pfql
