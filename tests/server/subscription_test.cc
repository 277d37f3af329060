// Streaming subscription tests across the serving stack: wire-level
// validation of subscribe/unsubscribe, the in-process
// QueryService::CallLineWithSink path (ack shape, fusion, update cadence,
// unsubscribe), the TCP end-to-end path through Client::Subscribe /
// NextPush, the id-routing regression (responses interleaved with pushes),
// a multi-client multi-subscription soak (run under TSan in CI), and the
// subscription chaos sweep: with sampler fault points armed, every stream
// still ends in a complete or a structured error — never silence.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/query_service.h"
#include "server/tcp_server.h"
#include "server/wire.h"
#include "util/fault_injection.h"
#include "util/json.h"

namespace pfql {
namespace server {
namespace {

using std::chrono::milliseconds;

constexpr char kCoinProgram[] = "flip(<K>, V) :- opts(K, V).\n";
constexpr char kCoinData[] =
    "relation opts(k, v) {\n  (0, 0)\n  (0, 1)\n}\n";

// A subscribe request over the coin program. epsilon 0.3 converges within
// the scheduler's min-sample floor; tiny epsilons keep the stream alive
// until budget/unsubscribe.
Json SubscribeJson(const std::string& target, double epsilon,
                   size_t max_samples, uint64_t seed = 42) {
  Json request = Json::Object();
  request.Set("method", "subscribe")
      .Set("target", target)
      .Set("program_text", kCoinProgram)
      .Set("data_text", kCoinData)
      .Set("event", "flip(0, 1)")
      .Set("epsilon", epsilon)
      .Set("seed", static_cast<int64_t>(seed));
  if (max_samples > 0) {
    request.Set("max_samples", static_cast<int64_t>(max_samples));
  }
  return request;
}

// Collects pushed lines from an in-process subscription; declared before
// the QueryService whose scheduler holds its sink.
struct LineStream {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Json> lines;
  bool terminal = false;
  std::string last_event;
  std::string reason;

  sched::UpdateSink Sink() {
    return [this](const std::string& line, bool /*droppable*/) {
      StatusOr<Json> parsed = Json::Parse(line);
      std::lock_guard<std::mutex> lock(mu);
      if (!parsed.ok()) return;
      lines.push_back(*std::move(parsed));
      const Json* event = lines.back().Find("event");
      if (event != nullptr && event->is_string()) {
        last_event = event->AsString();
        if (last_event == "complete" || last_event == "error") {
          const Json* r = lines.back().Find("reason");
          if (r != nullptr && r->is_string()) reason = r->AsString();
          terminal = true;
          cv.notify_all();
        }
      }
    };
  }

  bool WaitTerminal(milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, timeout, [this] { return terminal; });
  }
};

// ---- Wire validation ----------------------------------------------------

TEST(SubscriptionWireTest, SubscribeNeedsSampledTargetAndEvent) {
  // Well-formed subscribe parses and resolves its target kind.
  auto ok = ParseRequestLine(SubscribeJson("approx", 0.1, 0).Dump());
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->kind, RequestKind::kSubscribe);
  auto target = ok->TargetKind();
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(*target, RequestKind::kApprox);

  // Missing target.
  Json no_target = SubscribeJson("approx", 0.1, 0);
  no_target.Set("target", "");
  EXPECT_FALSE(ParseRequestLine(no_target.Dump()).ok());

  // A non-sampled target kind streams nothing incrementally.
  Json exact_target = SubscribeJson("exact", 0.1, 0);
  EXPECT_FALSE(ParseRequestLine(exact_target.Dump()).ok());

  // Missing event.
  Json no_event = SubscribeJson("approx", 0.1, 0);
  no_event.Set("event", "");
  EXPECT_FALSE(ParseRequestLine(no_event.Dump()).ok());

  // 'target' is subscribe-only vocabulary.
  EXPECT_FALSE(
      ParseRequestLine(
          "{\"method\":\"ping\",\"target\":\"approx\"}")
          .ok());

  // unsubscribe needs the subscription id.
  EXPECT_FALSE(ParseRequestLine("{\"method\":\"unsubscribe\"}").ok());
  auto unsub =
      ParseRequestLine("{\"method\":\"unsubscribe\",\"sub\":\"s-1\"}");
  ASSERT_TRUE(unsub.ok()) << unsub.status();
  EXPECT_EQ(unsub->sub, "s-1");
}

TEST(SubscriptionWireTest, SubscribeIsNotIdempotentUnsubscribeIs) {
  // A replayed subscribe opens a second stream; the client retry gate must
  // not resend it. A replayed unsubscribe is a harmless miss.
  EXPECT_FALSE(IsIdempotent(RequestKind::kSubscribe));
  EXPECT_TRUE(IsIdempotent(RequestKind::kUnsubscribe));
}

// ---- In-process QueryService path ---------------------------------------

TEST(SubscriptionServiceTest, CallWithoutSinkRejectsSubscribe) {
  QueryService service;
  auto request = ParseRequestLine(SubscribeJson("approx", 0.1, 0).Dump());
  ASSERT_TRUE(request.ok()) << request.status();
  const Response response = service.Call(*request);
  ASSERT_FALSE(response.status.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition);
}

TEST(SubscriptionServiceTest, SubscribeStreamsUpdatesThenCompletes) {
  ServiceOptions options;
  options.sched.quantum = 64;
  LineStream stream;
  QueryService service(options);

  // epsilon 0.05 is unreachable inside 512 samples (Hoeffding halfwidth
  // ~0.06), so the stream runs its whole budget: several update lines and
  // a degraded budget completion.
  const Response ack = service.CallLineWithSink(
      SubscribeJson("approx", 0.05, 512).Dump(), stream.Sink());
  ASSERT_TRUE(ack.status.ok()) << ack.status.ToString();
  EXPECT_EQ(ack.method, "subscribe");
  const Json* sub = ack.result.Find("sub");
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->AsString().rfind("s-", 0), 0u);
  EXPECT_EQ(ack.result.Find("target")->AsString(), "approx");
  EXPECT_FALSE(ack.result.Find("fused")->AsBool());

  ASSERT_TRUE(stream.WaitTerminal(milliseconds(30000)));
  std::lock_guard<std::mutex> lock(stream.mu);
  EXPECT_EQ(stream.last_event, "complete");
  EXPECT_EQ(stream.reason, "budget");
  // One update line per serviced quantum plus the completion: 512/64
  // quanta gives a stream, not a single shot.
  EXPECT_GE(stream.lines.size(), 2u);
  const Json* result = stream.lines.back().Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->Find("degraded")->AsBool());
  EXPECT_EQ(result->Find("samples")->AsInt(), 512);
  EXPECT_NEAR(result->Find("estimate")->AsDouble(), 0.5, 0.15);
  // Every pushed line names this subscription.
  for (const Json& line : stream.lines) {
    ASSERT_NE(line.Find("sub"), nullptr);
    EXPECT_EQ(line.Find("sub")->AsString(), sub->AsString());
  }
}

TEST(SubscriptionServiceTest, SubscribeRejectsEpsilonAndDeltaOutsideTheirRanges) {
  // Checked before the ack, so no stream starts with a meaningless budget.
  QueryService service;
  LineStream stream;
  const std::pair<double, double> bad[] = {
      {0.0, 0.05}, {1e-300, 0.05}, {0.1, 0.0}, {0.1, 3.0}};
  for (const char* target : {"approx", "mcmc", "trajectory"}) {
    for (const auto& [epsilon, delta] : bad) {
      Json request = SubscribeJson(target, epsilon, 0);
      request.Set("delta", delta);
      const Response ack =
          service.CallLineWithSink(request.Dump(), stream.Sink());
      ASSERT_FALSE(ack.status.ok()) << target << " " << request.Dump();
      EXPECT_EQ(ack.status.code(), StatusCode::kInvalidArgument);
    }
  }
  EXPECT_EQ(service.scheduler().ActiveSubscriptions(), 0u);
  std::lock_guard<std::mutex> lock(stream.mu);
  EXPECT_TRUE(stream.lines.empty());
}

TEST(SubscriptionServiceTest, IdenticalRequestsFuseOntoOneTask) {
  LineStream a;
  LineStream b;
  QueryService service;

  // Long-lived: tiny epsilon, large budget — the first subscription is
  // still live when the identical second one arrives.
  const Json request = SubscribeJson("approx", 1e-4, 1u << 20);
  const Response first =
      service.CallLineWithSink(request.Dump(), a.Sink());
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  const Response second =
      service.CallLineWithSink(request.Dump(), b.Sink());
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_FALSE(first.result.Find("fused")->AsBool());
  EXPECT_TRUE(second.result.Find("fused")->AsBool());
  EXPECT_EQ(service.scheduler().ActiveTasks(), 1u);
  EXPECT_EQ(service.scheduler().ActiveSubscriptions(), 2u);

  // A different seed is a different result stream: no fusion.
  LineStream c;
  const Response third = service.CallLineWithSink(
      SubscribeJson("approx", 1e-4, 1u << 20, /*seed=*/7).Dump(), c.Sink());
  ASSERT_TRUE(third.status.ok());
  EXPECT_FALSE(third.result.Find("fused")->AsBool());
  EXPECT_EQ(service.scheduler().ActiveTasks(), 2u);

  // Unsubscribe each stream; every one completes with "unsubscribed".
  for (const Response* ack : {&first, &second, &third}) {
    Json unsub = Json::Object();
    unsub.Set("method", "unsubscribe")
        .Set("sub", ack->result.Find("sub")->AsString());
    const Response response =
        service.CallLineWithSink(unsub.Dump(), nullptr);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  }
  ASSERT_TRUE(a.WaitTerminal(milliseconds(10000)));
  ASSERT_TRUE(b.WaitTerminal(milliseconds(10000)));
  ASSERT_TRUE(c.WaitTerminal(milliseconds(10000)));
  EXPECT_EQ(a.reason, "unsubscribed");
  EXPECT_EQ(b.reason, "unsubscribed");
  EXPECT_EQ(c.reason, "unsubscribed");
  EXPECT_EQ(service.scheduler().ActiveSubscriptions(), 0u);

  // Unknown id is a NotFound error response, not a crash.
  const Response missing = service.CallLineWithSink(
      "{\"method\":\"unsubscribe\",\"sub\":\"s-424242\"}", nullptr);
  ASSERT_FALSE(missing.status.ok());
  EXPECT_EQ(missing.status.code(), StatusCode::kNotFound);
}

// ---- TCP end-to-end -----------------------------------------------------

class SubscriptionTcpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultRegistry::Instance().Reset();
    ServiceOptions options;
    options.workers = 4;
    options.sched.quantum = 64;
    service_ = std::make_unique<QueryService>(options);
    server_ = std::make_unique<TcpServer>(service_.get());
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override {
    server_->Stop();
    fault::FaultRegistry::Instance().Reset();
  }

  std::unique_ptr<QueryService> service_;
  std::unique_ptr<TcpServer> server_;
};

TEST_F(SubscriptionTcpTest, SubscribeStreamsToCompletionOverTheWire) {
  Client client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());

  auto sub = client.Subscribe(SubscribeJson("approx", 0.05, 512));
  ASSERT_TRUE(sub.ok()) << sub.status();
  EXPECT_EQ(sub->rfind("s-", 0), 0u);

  bool complete = false;
  size_t pushes = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + milliseconds(30000);
  while (!complete && std::chrono::steady_clock::now() < deadline) {
    auto push = client.NextPush(10000);
    ASSERT_TRUE(push.ok()) << push.status();
    ASSERT_NE(push->Find("sub"), nullptr);
    EXPECT_EQ(push->Find("sub")->AsString(), *sub);
    ++pushes;
    const std::string event = push->Find("event")->AsString();
    ASSERT_NE(event, "error") << push->Dump();
    if (event == "complete") {
      complete = true;
      EXPECT_EQ(push->Find("reason")->AsString(), "budget");
      const Json* result = push->Find("result");
      ASSERT_NE(result, nullptr);
      EXPECT_EQ(result->Find("samples")->AsInt(), 512);
    }
  }
  EXPECT_TRUE(complete);
  EXPECT_GE(pushes, 2u);  // incremental updates preceded the completion
}

TEST_F(SubscriptionTcpTest, ResponsesRouteByIdWhilePushesStream) {
  // Regression: before id routing, a pushed update line would be consumed
  // as the response to the next request on the connection.
  Client client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());

  // Long-lived stream pushing updates continuously.
  auto sub = client.Subscribe(SubscribeJson("approx", 1e-4, 1u << 20));
  ASSERT_TRUE(sub.ok()) << sub.status();

  for (int i = 0; i < 20; ++i) {
    Json ping = Json::Object();
    ping.Set("method", "ping");
    auto response = client.Call(ping);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_NE(response->Find("result"), nullptr) << response->Dump();
    EXPECT_TRUE(response->Find("result")->Find("pong")->AsBool())
        << response->Dump();
  }

  Json unsub = Json::Object();
  unsub.Set("method", "unsubscribe").Set("sub", *sub);
  auto response = client.Call(unsub);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->Find("ok")->AsBool()) << response->Dump();

  // The terminal push is never droppable: drain until it arrives.
  bool unsubscribed = false;
  const auto deadline =
      std::chrono::steady_clock::now() + milliseconds(10000);
  while (!unsubscribed && std::chrono::steady_clock::now() < deadline) {
    auto push = client.NextPush(5000);
    ASSERT_TRUE(push.ok()) << push.status();
    if (push->Find("event")->AsString() == "complete") {
      EXPECT_EQ(push->Find("reason")->AsString(), "unsubscribed");
      unsubscribed = true;
    }
  }
  EXPECT_TRUE(unsubscribed);
}

TEST_F(SubscriptionTcpTest, DisconnectReapsServerSideSubscriptions) {
  {
    Client client;
    ASSERT_TRUE(client.Connect(server_->port()).ok());
    auto sub = client.Subscribe(SubscribeJson("approx", 1e-4, 1u << 20));
    ASSERT_TRUE(sub.ok()) << sub.status();
    EXPECT_EQ(service_->scheduler().ActiveSubscriptions(), 1u);
  }  // connection drops with the subscription still live

  const auto deadline =
      std::chrono::steady_clock::now() + milliseconds(10000);
  while (service_->scheduler().ActiveSubscriptions() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  EXPECT_EQ(service_->scheduler().ActiveSubscriptions(), 0u);
}

// Drives one client through `subs` subscriptions and waits until every
// stream ends in complete or error. Returns false on any timeout/transport
// failure (recorded by the caller).
bool RunSubscriptionBatch(uint16_t port, int subs, uint64_t seed_base,
                          milliseconds deadline_budget) {
  Client client;
  if (!client.Connect(port).ok()) return false;
  std::set<std::string> live;
  for (int i = 0; i < subs; ++i) {
    // Distinct seeds defeat fusion so each subscription is its own task;
    // modest budgets keep the TSan soak quick.
    auto sub = client.Subscribe(SubscribeJson(
        "approx", 0.05, 512, seed_base + static_cast<uint64_t>(i)));
    if (!sub.ok()) return false;
    live.insert(*sub);
  }
  const auto deadline = std::chrono::steady_clock::now() + deadline_budget;
  while (!live.empty() && std::chrono::steady_clock::now() < deadline) {
    auto push = client.NextPush(10000);
    if (!push.ok()) return false;
    const Json* event = push->Find("event");
    const Json* sub = push->Find("sub");
    if (event == nullptr || sub == nullptr) return false;
    if (event->AsString() == "complete" || event->AsString() == "error") {
      live.erase(sub->AsString());
    }
  }
  return live.empty();
}

TEST_F(SubscriptionTcpTest, EightClientsWithEightSubscriptionsEach) {
  constexpr int kClients = 8;
  constexpr int kSubsPerClient = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &failures] {
      if (!RunSubscriptionBatch(server_->port(), kSubsPerClient,
                                /*seed_base=*/1000u * (c + 1),
                                milliseconds(60000))) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service_->scheduler().ActiveSubscriptions(), 0u);
}

TEST_F(SubscriptionTcpTest, ChaosEveryStreamEndsInCompleteOrError) {
  // Sampler fault points armed while many subscriptions stream: faults may
  // turn individual streams into structured errors, but no stream may end
  // in silence — the driving invariant of the streaming plane.
  fault::ScopedFault approx_fault(fault::points::kApproxSample,
                                  fault::FaultSpec::Probability(0.10));
  fault::ScopedFault mcmc_fault(fault::points::kMcmcSample,
                                fault::FaultSpec::Probability(0.10));
  fault::ScopedFault trajectory_fault(fault::points::kTrajectoryRun,
                                      fault::FaultSpec::Probability(0.10));

  constexpr int kSubs = 16;
  const char* kTargets[] = {"approx", "mcmc", "trajectory"};
  Client client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());

  std::set<std::string> live;
  for (int i = 0; i < kSubs; ++i) {
    Json request = SubscribeJson(kTargets[i % 3], 0.05, 1024,
                                 /*seed=*/100u + static_cast<uint64_t>(i));
    auto sub = client.Subscribe(request);
    ASSERT_TRUE(sub.ok()) << sub.status();
    ASSERT_TRUE(live.insert(*sub).second);
  }

  int completed = 0;
  int errored = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + milliseconds(120000);
  while (!live.empty() && std::chrono::steady_clock::now() < deadline) {
    auto push = client.NextPush(30000);
    ASSERT_TRUE(push.ok()) << push.status() << " with " << live.size()
                           << " stream(s) still open";
    const std::string event = push->Find("event")->AsString();
    const std::string sub = push->Find("sub")->AsString();
    if (event == "complete") {
      live.erase(sub);
      ++completed;
    } else if (event == "error") {
      // Structured error: code and message, tied to the subscription.
      const Json* error = push->Find("error");
      ASSERT_NE(error, nullptr) << push->Dump();
      EXPECT_NE(error->Find("code"), nullptr);
      EXPECT_NE(error->Find("message"), nullptr);
      live.erase(sub);
      ++errored;
    }
  }
  EXPECT_TRUE(live.empty())
      << live.size() << " stream(s) went silent under fault injection";
  EXPECT_EQ(completed + errored, kSubs);
  EXPECT_EQ(service_->scheduler().ActiveSubscriptions(), 0u);
}

}  // namespace
}  // namespace server
}  // namespace pfql
