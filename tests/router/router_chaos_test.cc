// Crash-tolerance invariants of the pfqlr router, driven against a real
// pfqld fleet with real SIGKILLs:
//
//   * kill -9 of any single worker mid-load never surfaces a
//     non-retryable failure to a retrying client — in-flight requests
//     come back as clean Unavailable and CallWithRetry recovers;
//   * a subscription never goes silent: after the kill every stream
//     either keeps pushing updates (survivor worker) or receives one
//     terminal error push (orphaned on the dead worker);
//   * the supervisor restarts the dead worker within its backoff budget
//     and the fleet returns to full strength;
//   * a wedged (alive but unresponsive) worker is drained and restarted;
//   * a crash-looping worker trips the circuit breaker while the rest of
//     the fleet keeps serving.
#include <gtest/gtest.h>
#include <signal.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "router/router.h"
#include "server/client.h"
#include "util/fault_injection.h"
#include "util/json.h"
#include "util/metrics.h"

namespace pfql {
namespace router {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

constexpr char kCoinProgram[] = "flip(<K>, V) :- opts(K, V).\n";
constexpr char kCoinData[] =
    "relation opts(k, v) {\n  (0, 0)\n  (0, 1)\n}\n";

RouterOptions ChaosOptions(int workers) {
  RouterOptions options;
  options.num_workers = workers;
  options.pfqld_binary = PFQLD_BINARY;
  options.worker_args = {"--workers", "2", "--queue", "64", "--quiet"};
  options.probe_interval_ms = 50;
  options.probe_timeout_ms = 2000;
  return options;
}

Json ApproxRequest(uint64_t seed) {
  Json request = Json::Object();
  request.Set("method", "approx")
      .Set("program_text", kCoinProgram)
      .Set("data_text", kCoinData)
      .Set("event", "flip(0, 1)")
      .Set("epsilon", 0.2)
      .Set("delta", 0.2)
      .Set("seed", static_cast<int64_t>(seed))
      .Set("max_samples", static_cast<int64_t>(256));
  return request;
}

Json SubscribeRequest(uint64_t seed) {
  Json request = Json::Object();
  request.Set("method", "subscribe")
      .Set("target", "approx")
      .Set("program_text", kCoinProgram)
      .Set("data_text", kCoinData)
      .Set("event", "flip(0, 1)")
      // Tight enough that the stream outlives the kill window, but with a
      // hard sample cap so four streams cannot monopolize a small machine.
      .Set("epsilon", 1e-3)
      .Set("seed", static_cast<int64_t>(seed))
      .Set("max_samples", static_cast<int64_t>(200000));
  return request;
}

bool ReplyOk(const StatusOr<Json>& reply) {
  if (!reply.ok()) return false;
  const Json* ok = reply->Find("ok");
  return ok != nullptr && ok->is_bool() && ok->AsBool();
}

/// router_stats snapshot via a throwaway connection.
Json RouterStats(uint16_t port) {
  server::Client client;
  if (!client.Connect(port).ok()) return Json();
  Json request = Json::Object();
  request.Set("method", "router_stats");
  auto reply = client.Call(request);
  if (!ReplyOk(reply)) return Json();
  return *reply->Find("result");
}

int LiveCount(const Json& stats) {
  const Json* live = stats.Find("live");
  return (live != nullptr && live->is_number())
             ? static_cast<int>(live->AsInt())
             : -1;
}

/// Sum of per-worker restart counters; -1 when the snapshot is missing
/// (a router_stats call can transiently fail under load).
int64_t SumRestarts(const Json& stats) {
  const Json* workers = stats.is_object() ? stats.Find("workers") : nullptr;
  if (workers == nullptr || !workers->is_array()) return -1;
  int64_t total = 0;
  for (const Json& w : workers->items()) {
    const Json* restarts = w.Find("restarts");
    if (restarts == nullptr || !restarts->is_number()) return -1;
    total += restarts->AsInt();
  }
  return total;
}

/// Waits until the fleet reports `want` live workers.
bool WaitForLive(uint16_t port, int want, milliseconds timeout) {
  const auto deadline = steady_clock::now() + timeout;
  while (steady_clock::now() < deadline) {
    if (LiveCount(RouterStats(port)) == want) return true;
    std::this_thread::sleep_for(milliseconds(50));
  }
  return false;
}

TEST(RouterChaosTest, KillNineMidLoadIsInvisibleToRetryingClients) {
  Router router(ChaosOptions(3));
  ASSERT_TRUE(router.Start().ok());
  const uint16_t port = router.port();

  // Four live subscription streams, seeded apart so they spread over the
  // slot space (and usually over multiple workers).
  std::vector<std::unique_ptr<server::Client>> sub_clients;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    auto client = std::make_unique<server::Client>();
    ASSERT_TRUE(client->Connect(port).ok());
    auto sub = client->Subscribe(SubscribeRequest(seed));
    ASSERT_TRUE(sub.ok()) << sub.status().ToString();
    sub_clients.push_back(std::move(client));
  }

  // Eight retrying clients hammer sampled queries while the kill lands.
  std::atomic<int> failures{0};
  std::atomic<int> completed{0};
  std::vector<std::thread> load;
  for (int t = 0; t < 8; ++t) {
    load.emplace_back([&, t] {
      server::ClientOptions options;
      options.retry.max_attempts = 10;
      options.retry.initial_backoff = milliseconds(25);
      options.retry.max_backoff = milliseconds(500);
      server::Client client(options);
      if (!client.Connect(port).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < 25; ++i) {
        auto reply = client.CallWithRetry(
            ApproxRequest(static_cast<uint64_t>(t) * 1000 + i));
        if (!ReplyOk(reply)) failures.fetch_add(1);
        completed.fetch_add(1);
      }
    });
  }

  // Let load build, then kill -9 one live worker out from under it.
  std::this_thread::sleep_for(milliseconds(200));
  int64_t victim_pid = 0;
  for (int attempt = 0; attempt < 20 && victim_pid == 0; ++attempt) {
    Json stats = RouterStats(port);
    const Json* workers =
        stats.is_object() ? stats.Find("workers") : nullptr;
    if (workers == nullptr) {
      std::this_thread::sleep_for(milliseconds(50));
      continue;
    }
    for (const Json& w : workers->items()) {
      if (w.Find("state")->AsString() == "up") {
        victim_pid = w.Find("pid")->AsInt();
        break;
      }
    }
  }
  ASSERT_GT(victim_pid, 0);
  ASSERT_EQ(::kill(static_cast<pid_t>(victim_pid), SIGKILL), 0);

  for (auto& t : load) t.join();
  EXPECT_EQ(completed.load(), 8 * 25);
  // THE invariant: with retries on, a single kill -9 is invisible.
  EXPECT_EQ(failures.load(), 0);

  // No subscription goes silent: each stream yields an update (survivor)
  // or a terminal error/complete push (orphaned on the dead worker).
  for (size_t i = 0; i < sub_clients.size(); ++i) {
    bool active_or_terminated = false;
    const auto deadline = steady_clock::now() + std::chrono::seconds(10);
    while (steady_clock::now() < deadline) {
      auto push = sub_clients[i]->NextPush(250);
      if (!push.ok()) continue;
      const Json* event = push->Find("event");
      if (event != nullptr && event->is_string()) {
        active_or_terminated = true;
        break;
      }
    }
    EXPECT_TRUE(active_or_terminated) << "subscription " << i
                                      << " went silent after the kill";
  }

  // The supervisor restarts the dead worker within its backoff budget.
  // Right after the kill the router may still count the dead worker as
  // up, so wait for the restart and the full fleet under one deadline.
  const auto deadline = steady_clock::now() + std::chrono::seconds(15);
  Json stats = RouterStats(port);
  while (steady_clock::now() < deadline &&
         !(SumRestarts(stats) >= 1 && LiveCount(stats) == 3)) {
    std::this_thread::sleep_for(milliseconds(50));
    stats = RouterStats(port);
  }
  EXPECT_EQ(LiveCount(stats), 3);
  EXPECT_GE(SumRestarts(stats), 1);
  router.Stop();
}

TEST(RouterChaosTest, WedgedWorkerIsDrainedAndRestarted) {
  RouterOptions options = ChaosOptions(2);
  options.wedged_probe_failures = 2;
  Router router(options);
  ASSERT_TRUE(router.Start().ok());
  const uint16_t port = router.port();

  const int64_t restarts_before = SumRestarts(RouterStats(port));
  ASSERT_GE(restarts_before, 0);

  {
    // Every probe fails while armed: both workers are "wedged" (alive,
    // unresponsive as far as the supervisor can tell) and get the planned
    // drain -> SIGTERM -> restart treatment.
    fault::ScopedFault wedge(fault::points::kRouterProbe,
                             fault::FaultSpec::Probability(1.0));
    const auto deadline = steady_clock::now() + std::chrono::seconds(15);
    bool restarted = false;
    while (steady_clock::now() < deadline && !restarted) {
      const int64_t restarts = SumRestarts(RouterStats(port));
      restarted = restarts > restarts_before;
      std::this_thread::sleep_for(milliseconds(100));
    }
    EXPECT_TRUE(restarted) << "no wedged restart within the deadline";
  }

  // Faults disarmed: the fleet settles back to fully live and serves.
  ASSERT_TRUE(WaitForLive(port, 2, std::chrono::seconds(15)));
  server::ClientOptions copts;
  copts.retry.max_attempts = 10;
  copts.retry.initial_backoff = milliseconds(25);
  server::Client client(copts);
  ASSERT_TRUE(client.Connect(port).ok());
  Json ping = Json::Object();
  ping.Set("method", "ping");
  auto reply = client.CallWithRetry(ping);
  EXPECT_TRUE(ReplyOk(reply)) << reply.status().ToString();
  router.Stop();
}

TEST(RouterChaosTest, CrashLoopTripsTheBreakerWhileFleetKeepsServing) {
  RouterOptions options = ChaosOptions(2);
  options.max_restarts_in_window = 2;
  options.restart_window_ms = 60000;
  options.breaker_cooldown_ms = 60000;  // stays open for the whole test
  Router router(options);
  ASSERT_TRUE(router.Start().ok());
  const uint16_t port = router.port();

  // Keep murdering seat 0 every time it comes back until the breaker
  // declares it structurally broken.
  const auto deadline = steady_clock::now() + std::chrono::seconds(30);
  bool broken = false;
  while (steady_clock::now() < deadline && !broken) {
    Json stats = RouterStats(port);
    const Json* workers = stats.is_object() ? stats.Find("workers") : nullptr;
    if (workers != nullptr && !workers->items().empty()) {
      const Json& seat0 = workers->items()[0];
      const std::string state = seat0.Find("state")->AsString();
      if (state == "broken") {
        broken = true;
        break;
      }
      if (state == "up") {
        ::kill(static_cast<pid_t>(seat0.Find("pid")->AsInt()), SIGKILL);
      }
    }
    std::this_thread::sleep_for(milliseconds(50));
  }
  EXPECT_TRUE(broken) << "breaker never opened";

  // Seat 1 carries the whole slot table; requests still succeed.
  server::ClientOptions copts;
  copts.retry.max_attempts = 10;
  copts.retry.initial_backoff = milliseconds(25);
  server::Client client(copts);
  ASSERT_TRUE(client.Connect(port).ok());
  auto reply = client.CallWithRetry(ApproxRequest(99));
  EXPECT_TRUE(ReplyOk(reply)) << reply.status().ToString();
  EXPECT_EQ(LiveCount(RouterStats(port)), 1);
  router.Stop();
}

}  // namespace
}  // namespace router
}  // namespace pfql
