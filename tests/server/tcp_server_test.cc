#include "server/tcp_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "transport_checks.h"

namespace pfql {
namespace server {
namespace {

constexpr char kCoinRequest[] =
    "{\"method\":\"exact\",\"program_text\":"
    "\"flip(<K>, V) :- opts(K, V).\",\"data_text\":"
    "\"relation opts(k, v) {\\n  (0, 0)\\n  (0, 1)\\n}\","
    "\"event\":\"flip(0, 1)\"}";

class TcpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServiceOptions options;
    options.workers = 4;
    options.queue_capacity = 64;
    service_ = std::make_unique<QueryService>(options);
    server_ = std::make_unique<TcpServer>(service_.get());
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override { server_->Stop(); }

  std::unique_ptr<QueryService> service_;
  std::unique_ptr<TcpServer> server_;
};

TEST_F(TcpServerTest, BindsEphemeralPortAndStopsIdempotently) {
  const uint16_t port = server_->port();
  EXPECT_GT(port, 0);
  server_->Stop();
  server_->Stop();  // idempotent
}

TEST_F(TcpServerTest, PingRoundTrip) {
  Client client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  Json ping = Json::Object();
  ping.Set("id", 1).Set("method", "ping");
  auto response = client.Call(ping);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->Find("ok")->AsBool());
  EXPECT_EQ(response->Find("id")->AsInt(), 1);
  EXPECT_TRUE(response->Find("result")->Find("pong")->AsBool());
}

TEST_F(TcpServerTest, ExactQueryOverWireThenCacheHit) {
  Client client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());

  auto first = client.RoundTrip(kCoinRequest);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto first_json = Json::Parse(*first);
  ASSERT_TRUE(first_json.ok());
  EXPECT_TRUE(first_json->Find("ok")->AsBool());
  EXPECT_FALSE(first_json->Find("cached")->AsBool());
  EXPECT_EQ(
      first_json->Find("result")->Find("probability")->AsString(), "1/2");

  auto second = client.RoundTrip(kCoinRequest);
  ASSERT_TRUE(second.ok());
  auto second_json = Json::Parse(*second);
  ASSERT_TRUE(second_json.ok());
  EXPECT_TRUE(second_json->Find("cached")->AsBool());

  // stats over the same wire confirms the counters moved.
  auto stats = client.RoundTrip("{\"method\":\"stats\"}");
  ASSERT_TRUE(stats.ok());
  auto stats_json = Json::Parse(*stats);
  ASSERT_TRUE(stats_json.ok());
  EXPECT_GE(stats_json->Find("result")
                ->Find("cache")
                ->Find("hits")
                ->AsInt(),
            1);
}

TEST_F(TcpServerTest, MultipleRequestsPerConnectionStayInOrder) {
  Client client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  for (int i = 0; i < 5; ++i) {
    Json ping = Json::Object();
    ping.Set("id", i).Set("method", "ping");
    auto response = client.Call(ping);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->Find("id")->AsInt(), i);
  }
}

TEST_F(TcpServerTest, MalformedLineGetsErrorResponseAndConnectionSurvives) {
  Client client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  auto bad = client.RoundTrip("this is not json");
  ASSERT_TRUE(bad.ok());
  auto bad_json = Json::Parse(*bad);
  ASSERT_TRUE(bad_json.ok());
  EXPECT_FALSE(bad_json->Find("ok")->AsBool());
  ASSERT_NE(bad_json->Find("error"), nullptr);

  // The framing error was per-line; the connection still serves requests.
  auto ping = client.RoundTrip("{\"method\":\"ping\"}");
  ASSERT_TRUE(ping.ok());
  EXPECT_TRUE(Json::Parse(*ping)->Find("ok")->AsBool());
}

TEST_F(TcpServerTest, EightConcurrentClients) {
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &failures] {
      Client client;
      if (!client.Connect(server_->port()).ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kRequestsPerClient; ++i) {
        // Mix control and query traffic; distinct seeds keep the sampled
        // queries from collapsing into one cache entry.
        Json request = Json::Object();
        request.Set("id", c * 100 + i);
        if (i % 2 == 0) {
          request.Set("method", "ping");
        } else {
          request.Set("method", "approx");
          request.Set("program_text",
                      "flip(<K>, V) :- opts(K, V).");
          request.Set("data_text",
                      "relation opts(k, v) {\n  (0, 0)\n  (0, 1)\n}");
          request.Set("event", "flip(0, 1)");
          request.Set("epsilon", 0.4);
          request.Set("delta", 0.4);
          request.Set("seed", c * 100 + i);
        }
        auto response = client.Call(request);
        if (!response.ok() || !response->Find("ok")->AsBool() ||
            response->Find("id")->AsInt() != c * 100 + i) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server_->connections_accepted(), 8u);
}

TEST_F(TcpServerTest, StopUnblocksConnectedClients) {
  Client client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  server_->Stop();
  // The read either errors or returns a short/closed result — it must not
  // hang once the server shut the connection down.
  auto response = client.RoundTrip("{\"method\":\"ping\"}");
  EXPECT_FALSE(response.ok());
}

TEST_F(TcpServerTest, OverlongRequestLineIsRejectedAndTheConnectionClosed) {
  ExpectOverlongLineRejected(server_->port());
}

TEST_F(TcpServerTest, ClosedConnectionsReleaseTheirThreads) {
  // Each connection runs on its own thread; one never joined keeps its
  // stack mapped, two mappings per closed connection.
  auto cycle = [this] {
    Client client;
    ASSERT_TRUE(client.Connect(server_->port()).ok());
    ASSERT_TRUE(client.RoundTrip("{\"method\":\"ping\"}").ok());
  };
  for (int i = 0; i < 20; ++i) cycle();
  const size_t before = MappingCount("self");
  for (int i = 0; i < 300; ++i) cycle();
  EXPECT_LT(MappingCount("self"), before + 60);
}

TEST(TcpServerLifecycleTest, TwoServersOnDistinctEphemeralPorts) {
  QueryService service;
  TcpServer a(&service);
  TcpServer b(&service);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  EXPECT_NE(a.port(), b.port());
  a.Stop();
  b.Stop();
}

}  // namespace
}  // namespace server
}  // namespace pfql
