// End-to-end tests of the pfqlr router over a real pfqld fleet: the
// router spawns actual worker processes (the pfqld binary path is baked
// in via PFQLD_BINARY), and clients speak the docs/SERVER.md protocol to
// the router exactly as they would to a single daemon. Covers routing
// stability (shared result cache), broadcast registration, subscription
// passthrough and pinning, router-only introspection methods, and the
// client-side retry gate for non-idempotent methods.
#include "router/router.h"

#include <gtest/gtest.h>

#include "router/hash_ring.h"

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/query_service.h"
#include "server/tcp_server.h"
#include "util/fault_injection.h"
#include "util/json.h"
#include "../server/transport_checks.h"

namespace pfql {
namespace router {
namespace {

using std::chrono::milliseconds;

constexpr char kCoinProgram[] = "flip(<K>, V) :- opts(K, V).\n";
constexpr char kCoinData[] =
    "relation opts(k, v) {\n  (0, 0)\n  (0, 1)\n}\n";

RouterOptions TestOptions(int workers) {
  RouterOptions options;
  options.num_workers = workers;
  options.pfqld_binary = PFQLD_BINARY;
  options.worker_args = {"--workers", "2", "--queue", "32", "--quiet"};
  options.probe_interval_ms = 50;
  options.probe_timeout_ms = 2000;
  return options;
}

Json ExactCoinRequest(const std::string& event) {
  Json request = Json::Object();
  request.Set("method", "exact")
      .Set("program_text", kCoinProgram)
      .Set("data_text", kCoinData)
      .Set("event", event);
  return request;
}

Json SubscribeCoinRequest(double epsilon, size_t max_samples,
                          uint64_t seed) {
  Json request = Json::Object();
  request.Set("method", "subscribe")
      .Set("target", "approx")
      .Set("program_text", kCoinProgram)
      .Set("data_text", kCoinData)
      .Set("event", "flip(0, 1)")
      .Set("epsilon", epsilon)
      .Set("seed", static_cast<int64_t>(seed))
      .Set("max_samples", static_cast<int64_t>(max_samples));
  return request;
}

bool ReplyOk(const StatusOr<Json>& reply) {
  if (!reply.ok()) return false;
  const Json* ok = reply->Find("ok");
  return ok != nullptr && ok->is_bool() && ok->AsBool();
}

TEST(RouterTest, ServesPingAndReportsTopology) {
  Router router(TestOptions(2));
  ASSERT_TRUE(router.Start().ok());
  server::Client client;
  ASSERT_TRUE(client.Connect(router.port()).ok());

  Json ping = Json::Object();
  ping.Set("method", "ping");
  auto reply = client.Call(ping);
  ASSERT_TRUE(ReplyOk(reply)) << reply.status().ToString();

  Json stats = Json::Object();
  stats.Set("method", "router_stats");
  auto topo = client.Call(stats);
  ASSERT_TRUE(ReplyOk(topo)) << topo.status().ToString();
  const Json* result = topo->Find("result");
  ASSERT_NE(result, nullptr);
  const Json* live = result->Find("live");
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->AsInt(), 2);
  const Json* workers = result->Find("workers");
  ASSERT_NE(workers, nullptr);
  ASSERT_EQ(workers->items().size(), 2u);
  for (const Json& w : workers->items()) {
    EXPECT_EQ(w.Find("state")->AsString(), "up");
    EXPECT_GT(w.Find("pid")->AsInt(), 0);
    EXPECT_GT(w.Find("port")->AsInt(), 0);
  }
  // Every slot is owned by one of the two live workers.
  const Json* slots = result->Find("slots");
  ASSERT_NE(slots, nullptr);
  ASSERT_EQ(slots->items().size(), kNumSlots);
  for (const Json& owner : slots->items()) {
    EXPECT_TRUE(owner.AsInt() == 0 || owner.AsInt() == 1);
  }
  router.Stop();
}

TEST(RouterTest, IdenticalQueriesLandOnOneWarmCache) {
  Router router(TestOptions(3));
  ASSERT_TRUE(router.Start().ok());
  server::Client client;
  ASSERT_TRUE(client.Connect(router.port()).ok());

  // The first evaluation fills exactly one worker's cache; because the
  // router shards by the result-cache fingerprint, the repeat must reach
  // the same worker and come back cached.
  auto first = client.Call(ExactCoinRequest("flip(0, 1)"));
  ASSERT_TRUE(ReplyOk(first)) << first.status().ToString();
  EXPECT_FALSE(first->Find("cached")->AsBool());
  auto second = client.Call(ExactCoinRequest("flip(0, 1)"));
  ASSERT_TRUE(ReplyOk(second)) << second.status().ToString();
  EXPECT_TRUE(second->Find("cached")->AsBool());
  // Same shape holds across a reconnect: routing is keyed on the
  // request, not the connection.
  client.Disconnect();
  server::Client again;
  ASSERT_TRUE(again.Connect(router.port()).ok());
  auto third = again.Call(ExactCoinRequest("flip(0, 1)"));
  ASSERT_TRUE(ReplyOk(third)) << third.status().ToString();
  EXPECT_TRUE(third->Find("cached")->AsBool());
  router.Stop();
}

TEST(RouterTest, MalformedAndUnknownRequestsAnsweredByRouter) {
  Router router(TestOptions(2));
  ASSERT_TRUE(router.Start().ok());
  server::Client client;
  ASSERT_TRUE(client.Connect(router.port()).ok());

  auto raw = client.RoundTrip("{this is not json");
  ASSERT_TRUE(raw.ok());
  auto parsed = Json::Parse(*raw);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->Find("ok")->AsBool());

  Json bad = Json::Object();
  bad.Set("method", "no_such_method");
  auto reply = client.Call(bad);
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply->Find("ok")->AsBool());
  router.Stop();
}

TEST(RouterTest, RegistrationBroadcastsToEveryWorker) {
  Router router(TestOptions(3));
  ASSERT_TRUE(router.Start().ok());
  server::Client client;
  ASSERT_TRUE(client.Connect(router.port()).ok());

  Json reg = Json::Object();
  reg.Set("method", "register_program")
      .Set("name", "coin")
      .Set("program_text", kCoinProgram);
  auto reply = client.Call(reg);
  ASSERT_TRUE(ReplyOk(reply)) << reply.status().ToString();

  // `list` routes least-loaded, i.e. to *some* worker — ask repeatedly so
  // every worker answers at least once with the registered name.
  for (int i = 0; i < 6; ++i) {
    Json list = Json::Object();
    list.Set("method", "list");
    auto listed = client.Call(list);
    ASSERT_TRUE(ReplyOk(listed)) << listed.status().ToString();
    EXPECT_NE(listed->Dump().find("coin"), std::string::npos);
  }
  // Registered-name queries work wherever they land.
  Json query = Json::Object();
  query.Set("method", "exact")
      .Set("program", "coin")
      .Set("data_text", kCoinData)
      .Set("event", "flip(0, 1)");
  auto result = client.Call(query);
  ASSERT_TRUE(ReplyOk(result)) << result.status().ToString();
  router.Stop();
}

TEST(RouterTest, SubscriptionStreamsThroughTheRouterToCompletion) {
  Router router(TestOptions(2));
  ASSERT_TRUE(router.Start().ok());
  server::Client client;
  ASSERT_TRUE(client.Connect(router.port()).ok());

  auto sub = client.Subscribe(SubscribeCoinRequest(0.3, 64, 7));
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  bool saw_terminal = false;
  int updates = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    auto push = client.NextPush(500);
    if (!push.ok()) continue;
    ASSERT_EQ(push->Find("sub")->AsString(), *sub);
    const std::string event = push->Find("event")->AsString();
    if (event == "update") {
      ++updates;
    } else {
      EXPECT_EQ(event, "complete");
      saw_terminal = true;
      break;
    }
  }
  EXPECT_TRUE(saw_terminal) << "stream never completed (updates="
                            << updates << ")";
  router.Stop();
}

TEST(RouterTest, UnsubscribeFollowsTheSubscriptionPin) {
  Router router(TestOptions(3));
  ASSERT_TRUE(router.Start().ok());
  server::Client client;
  ASSERT_TRUE(client.Connect(router.port()).ok());

  // A tight-epsilon, big-budget stream stays alive until told to stop.
  auto sub = client.Subscribe(SubscribeCoinRequest(1e-4, 1 << 28, 11));
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  Json unsub = Json::Object();
  unsub.Set("method", "unsubscribe").Set("sub", *sub);
  auto reply = client.Call(unsub);
  ASSERT_TRUE(ReplyOk(reply)) << reply.status().ToString();
  // The parting push is the "complete" with reason "unsubscribed".
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool completed = false;
  while (std::chrono::steady_clock::now() < deadline && !completed) {
    auto push = client.NextPush(500);
    if (!push.ok()) continue;
    if (push->Find("event")->AsString() == "complete") {
      const Json* reason = push->Find("reason");
      ASSERT_NE(reason, nullptr);
      EXPECT_EQ(reason->AsString(), "unsubscribed");
      completed = true;
    }
  }
  EXPECT_TRUE(completed);
  router.Stop();
}

TEST(RouterTest, RouterMetricsServesBothFormats) {
  Router router(TestOptions(2));
  ASSERT_TRUE(router.Start().ok());
  server::Client client;
  ASSERT_TRUE(client.Connect(router.port()).ok());
  // Drive at least one routed request so per-worker counters exist.
  Json ping = Json::Object();
  ping.Set("method", "ping");
  ASSERT_TRUE(ReplyOk(client.Call(ping)));

  Json prom = Json::Object();
  prom.Set("method", "router_metrics").Set("format", "prometheus");
  auto text = client.Call(prom);
  ASSERT_TRUE(ReplyOk(text)) << text.status().ToString();
  const std::string exposition =
      text->Find("result")->Find("text")->AsString();
  EXPECT_NE(exposition.find("pfql_router_requests_total"),
            std::string::npos);
  EXPECT_NE(exposition.find("pfql_router_worker_up"), std::string::npos);

  Json json_form = Json::Object();
  json_form.Set("method", "router_metrics");
  auto snapshot = client.Call(json_form);
  ASSERT_TRUE(ReplyOk(snapshot));
  EXPECT_NE(snapshot->Find("result")->Find("metrics"), nullptr);
  router.Stop();
}

TEST(RouterTest, RouterMetricsListTheUpdatesDroppedFamily) {
  Router router(TestOptions(1));
  ASSERT_TRUE(router.Start().ok());
  server::Client client;
  ASSERT_TRUE(client.Connect(router.port()).ok());
  Json prom = Json::Object();
  prom.Set("method", "router_metrics").Set("format", "prometheus");
  auto text = client.Call(prom);
  ASSERT_TRUE(ReplyOk(text)) << text.status().ToString();
  EXPECT_NE(text->Find("result")->Find("text")->AsString().find(
                "pfql_router_updates_dropped_total"),
            std::string::npos);
  router.Stop();
}

TEST(RouterTest, OverlongRequestLineIsRejectedAndTheConnectionClosed) {
  Router router(TestOptions(1));
  ASSERT_TRUE(router.Start().ok());
  server::ExpectOverlongLineRejected(router.port());
  router.Stop();
}

TEST(RouterTest, TakenPortIsReportedAsPfqldReportsIt) {
  server::QueryService service((server::ServiceOptions()));
  server::TcpServer tcp(&service);
  ASSERT_TRUE(tcp.Start().ok());
  RouterOptions options = TestOptions(1);
  options.port = tcp.port();
  Router router(options);
  const Status status = router.Start();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
  EXPECT_NE(status.message().find("already in use"), std::string::npos)
      << status.ToString();
  server::TcpServer second(&service, tcp.port());
  EXPECT_EQ(status.message(), second.Start().message());
  tcp.Stop();
}

TEST(RouterTest, HealthProbesDoNotLeakWorkerThreads) {
  // Every probe is a fresh connection to the worker; a worker that never
  // joins finished connection threads maps two more lines per probe.
  RouterOptions options = TestOptions(2);
  options.probe_interval_ms = 5;
  Router router(options);
  ASSERT_TRUE(router.Start().ok());
  const Json stats = router.StatsJson();
  std::vector<std::string> pids;
  for (const Json& w : stats.Find("workers")->items()) {
    pids.push_back(std::to_string(w.Find("pid")->AsInt()));
  }
  std::this_thread::sleep_for(milliseconds(200));
  std::vector<size_t> before;
  for (const std::string& pid : pids) {
    before.push_back(server::MappingCount(pid));
  }
  std::this_thread::sleep_for(std::chrono::seconds(2));
  for (size_t i = 0; i < pids.size(); ++i) {
    EXPECT_LT(server::MappingCount(pids[i]), before[i] + 60)
        << "worker " << i;
  }
  router.Stop();
}

// ---------------------------------------------------------------------
// Satellite regression: the client retry gate for non-idempotent methods.
// Runs against an in-process TcpServer (not the router) because it arms
// an in-process fault point to force a post-send transport failure.

class RetryGateTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultRegistry::Instance().Reset(); }
  void TearDown() override { fault::FaultRegistry::Instance().Reset(); }
};

TEST_F(RetryGateTest, SubscribeIsNotResentAfterPostSendTransportError) {
  server::QueryService service((server::ServiceOptions()));
  server::TcpServer tcp(&service);
  ASSERT_TRUE(tcp.Start().ok());
  // kTcpRead drops the connection after the request line is read but
  // before it is processed: from the client's side the request hit the
  // wire and the reply never came — exactly the ambiguous state where a
  // resend could double-subscribe.
  fault::ScopedFault fault(fault::points::kTcpRead,
                           fault::FaultSpec::NthHit(1));
  server::ClientOptions options;
  options.retry.max_attempts = 4;
  options.retry.initial_backoff = milliseconds(5);
  server::Client client(options);
  ASSERT_TRUE(client.Connect(tcp.port()).ok());
  auto reply = client.CallWithRetry(SubscribeCoinRequest(0.3, 64, 3));
  ASSERT_FALSE(reply.ok());
  EXPECT_NE(reply.status().message().find("not idempotent"),
            std::string::npos)
      << reply.status().ToString();
  EXPECT_NE(reply.status().message().find("subscribe"), std::string::npos);
  tcp.Stop();
}

TEST_F(RetryGateTest, IdempotentMethodIsRetriedThroughTheSameFailure) {
  server::QueryService service((server::ServiceOptions()));
  server::TcpServer tcp(&service);
  ASSERT_TRUE(tcp.Start().ok());
  fault::ScopedFault fault(fault::points::kTcpRead,
                           fault::FaultSpec::NthHit(1));
  server::ClientOptions options;
  options.retry.max_attempts = 4;
  options.retry.initial_backoff = milliseconds(5);
  server::Client client(options);
  ASSERT_TRUE(client.Connect(tcp.port()).ok());
  Json ping = Json::Object();
  ping.Set("method", "ping");
  auto reply = client.CallWithRetry(ping);
  ASSERT_TRUE(ReplyOk(reply)) << reply.status().ToString();
  tcp.Stop();
}

}  // namespace
}  // namespace router
}  // namespace pfql
