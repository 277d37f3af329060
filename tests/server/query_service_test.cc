#include "server/query_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "relational/text_io.h"

namespace pfql {
namespace server {
namespace {

// The Example 3.9 coin: repair-key picks one of two options per key, so
// Pr[flip(0, 1)] = 1/2 under every semantics the service exposes.
constexpr char kCoinProgram[] = "flip(<K>, V) :- opts(K, V).\n";
constexpr char kCoinData[] =
    "relation opts(k, v) {\n  (0, 0)\n  (0, 1)\n}\n";
// A chain whose state space is exponential in |idx| (every step re-draws
// one bit per index), for deadline and budget tests: slow to explore in
// full, quick to abort.
constexpr char kBitsProgram[] = "bits(<I>, B) :- idx(I), b(B).\n";

std::string BitsData(int indices) {
  std::string out = "relation idx(i) {\n";
  for (int i = 0; i < indices; ++i) {
    out += "  (" + std::to_string(i) + ")\n";
  }
  out += "}\nrelation b(v) {\n  (0)\n  (1)\n}\n";
  return out;
}

std::string ReadTestData(const std::string& name) {
  std::ifstream in(std::string(PFQL_REPO_DIR) + "/tests/data/" + name);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_FALSE(text.str().empty()) << name;
  return text.str();
}

Request CoinRequest(RequestKind kind) {
  Request request;
  request.kind = kind;
  request.program_text = kCoinProgram;
  request.data_text = kCoinData;
  request.event = "flip(0, 1)";
  return request;
}

TEST(QueryServiceTest, ExactInlineProgram) {
  QueryService service;
  const Response response = service.Call(CoinRequest(RequestKind::kExact));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.method, "exact");
  EXPECT_FALSE(response.cached);
  EXPECT_EQ(response.result.Find("probability")->AsString(), "1/2");
  EXPECT_DOUBLE_EQ(response.result.Find("probability_double")->AsDouble(),
                   0.5);
}

TEST(QueryServiceTest, RepeatedExactServedFromCache) {
  QueryService service;
  const Request request = CoinRequest(RequestKind::kExact);
  const Response first = service.Call(request);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.cached);

  const Response second = service.Call(request);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.result, first.result);

  // The stats counters witness the hit (the acceptance criterion).
  const Json stats = service.StatsJson();
  EXPECT_EQ(stats.Find("cache")->Find("hits")->AsInt(), 1);
  EXPECT_EQ(stats.Find("cache")->Find("misses")->AsInt(), 1);
  const Json* exact = stats.Find("kinds")->Find("exact");
  ASSERT_NE(exact, nullptr);
  EXPECT_EQ(exact->Find("count")->AsInt(), 2);
  EXPECT_EQ(exact->Find("cache_hits")->AsInt(), 1);
  EXPECT_EQ(exact->Find("errors")->AsInt(), 0);
}

TEST(QueryServiceTest, NoCacheBypassesLookupAndInsert) {
  QueryService service;
  Request request = CoinRequest(RequestKind::kExact);
  request.no_cache = true;
  EXPECT_FALSE(service.Call(request).cached);
  EXPECT_FALSE(service.Call(request).cached);
  const Json stats = service.StatsJson();
  EXPECT_EQ(stats.Find("cache")->Find("entries")->AsInt(), 0);
}

TEST(QueryServiceTest, SeedDoesNotFragmentExactCache) {
  QueryService service;
  Request request = CoinRequest(RequestKind::kExact);
  request.seed = 1;
  service.Call(request);
  request.seed = 2;
  // Exact evaluation is deterministic, so the seed is not in the key.
  EXPECT_TRUE(service.Call(request).cached);
}

TEST(QueryServiceTest, SeedKeysSampledKinds) {
  QueryService service;
  Request request = CoinRequest(RequestKind::kApprox);
  request.epsilon = 0.3;
  request.delta = 0.3;
  request.seed = 1;
  ASSERT_TRUE(service.Call(request).status.ok());
  request.seed = 2;
  EXPECT_FALSE(service.Call(request).cached);
  request.seed = 1;
  EXPECT_TRUE(service.Call(request).cached);
}

TEST(QueryServiceTest, CacheIsStructuralAcrossRegistrationAndInline) {
  QueryService service;
  ASSERT_TRUE(service.RegisterProgram("coin", kCoinProgram).ok());
  auto instance = ParseInstanceText(kCoinData);
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(service.RegisterInstance("db", *std::move(instance)).ok());

  Request named;
  named.kind = RequestKind::kExact;
  named.program = "coin";
  named.data = "db";
  named.event = "flip(0, 1)";
  ASSERT_TRUE(service.Call(named).status.ok());

  // Inline text with the same canonical program and structurally equal
  // instance lands on the same cache entry.
  const Response inline_hit = service.Call(CoinRequest(RequestKind::kExact));
  EXPECT_TRUE(inline_hit.cached);
}

TEST(QueryServiceTest, ReRegisteringInstanceInvalidatesByHash) {
  QueryService service;
  ASSERT_TRUE(service.RegisterProgram("coin", kCoinProgram).ok());
  auto fair = ParseInstanceText(kCoinData);
  ASSERT_TRUE(fair.ok());
  ASSERT_TRUE(service.RegisterInstance("db", *std::move(fair)).ok());

  Request request;
  request.kind = RequestKind::kExact;
  request.program = "coin";
  request.data = "db";
  request.event = "flip(0, 1)";
  const Response before = service.Call(request);
  ASSERT_TRUE(before.status.ok());
  EXPECT_EQ(before.result.Find("probability")->AsString(), "1/2");

  // Replace "db" with a single-option instance: same name, different
  // structural hash, so the stale entry cannot be served.
  auto rigged = ParseInstanceText("relation opts(k, v) {\n  (0, 1)\n}\n");
  ASSERT_TRUE(rigged.ok());
  ASSERT_TRUE(service.RegisterInstance("db", *std::move(rigged)).ok());
  const Response after = service.Call(request);
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.cached);
  EXPECT_EQ(after.result.Find("probability")->AsString(), "1");
}

TEST(QueryServiceTest, ForeverWithShortDeadlineReturnsStructuredTimeout) {
  QueryService service;
  Request request;
  request.kind = RequestKind::kForever;
  request.program_text = kBitsProgram;
  request.data_text = BitsData(12);  // 2^12 reachable states
  request.event = "bits(0, 1)";
  request.max_states = 1 << 15;
  request.timeout_ms = 1;
  const Response response = service.Call(request);
  EXPECT_FALSE(response.status.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  // The pool is free again: a normal query still succeeds.
  EXPECT_TRUE(service.Call(CoinRequest(RequestKind::kExact)).status.ok());
}

TEST(QueryServiceTest, ForeverDeadlineInterruptsTheExactSolve) {
  // 146 states explore in milliseconds; the exact Thm 5.5 solve over them
  // takes seconds, so the deadline has to fire inside the elimination.
  QueryService service;
  Request request;
  request.kind = RequestKind::kForever;
  request.program_text = ReadTestData("walk.dl");
  request.data_text = ReadTestData("ring12.db");
  request.event = "cur(1)";
  request.timeout_ms = 300;
  const auto started = std::chrono::steady_clock::now();
  const Response response = service.Call(request);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded)
      << response.status.ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(2));
}

TEST(QueryServiceTest, McmcAutoBurnInMeasuresFromATransientStart) {
  // The translated coin chain starts in a transient state; "auto" measures
  // the TV mixing time to the walk's long-run distribution.
  QueryService service;
  Request request;
  request.kind = RequestKind::kMcmc;
  request.program_text = ReadTestData("coin.dl");
  request.data_text = ReadTestData("coin.db");
  request.event = "flip(0, 1)";
  const Response response = service.Call(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.result.Find("burn_in_measured")->AsBool());
  EXPECT_NEAR(response.result.Find("estimate")->AsDouble(), 0.5,
              request.epsilon);
}

TEST(QueryServiceTest, FailedRequestsAreNotCached) {
  QueryService service;
  Request request;
  request.kind = RequestKind::kForever;
  request.program_text = kBitsProgram;
  request.data_text = BitsData(12);
  request.event = "bits(0, 1)";
  request.max_states = 1 << 15;
  request.timeout_ms = 1;
  ASSERT_FALSE(service.Call(request).status.ok());
  // Without the deadline the same key must be recomputed, not served from
  // a poisoned cache entry... but 2^12 states is slow, so just check the
  // cache stayed empty.
  EXPECT_EQ(service.StatsJson().Find("cache")->Find("entries")->AsInt(), 0);
}

TEST(QueryServiceTest, SampledKindsRejectEpsilonAndDeltaOutsideTheirRanges) {
  // Checked before any sampling; for mcmc also before the auto burn-in
  // measurement, which reads epsilon too.
  QueryService service;
  std::vector<Request> requests;
  Request approx = CoinRequest(RequestKind::kApprox);
  approx.epsilon = 0.0;
  requests.push_back(approx);
  Request mcmc = CoinRequest(RequestKind::kMcmc);
  mcmc.epsilon = 0.0;
  requests.push_back(mcmc);  // auto burn-in
  mcmc.burn_in = 4;
  requests.push_back(mcmc);
  Request trajectory = CoinRequest(RequestKind::kTrajectory);
  trajectory.delta = 0.0;
  requests.push_back(trajectory);
  for (const Request& request : requests) {
    const Response response = service.Call(request);
    ASSERT_FALSE(response.status.ok()) << RequestKindToString(request.kind);
    EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument)
        << response.status.ToString();
  }
}

// Evaluation starts from the program's own predicates, so an event on any
// other relation, or with another arity, could never hold: every kind
// refuses it instead of answering 0.
TEST(QueryServiceTest, EventsTheProgramCanNeverHoldAreRefused) {
  QueryService service;
  const std::pair<const char*, const char*> events[] = {
      {"zz(1)", "'zz' is not a predicate of the program"},
      {"flip(0)", "'flip' has arity 2 in the program"},
      {"opts(0)", "'opts' has arity 2 in the program"}};
  for (RequestKind kind :
       {RequestKind::kExact, RequestKind::kApprox, RequestKind::kForever,
        RequestKind::kMcmc, RequestKind::kPartition, RequestKind::kTrajectory,
        RequestKind::kPlan}) {
    for (const auto& [event, message] : events) {
      Request request = CoinRequest(kind);
      request.event = event;
      const Response response = service.Call(request);
      EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument)
          << RequestKindToString(kind) << " " << event;
      EXPECT_NE(response.status.message().find(message), std::string::npos)
          << response.status.ToString();
    }
  }
  // An event on an input relation the program reads is answered.
  Request on_input = CoinRequest(RequestKind::kExact);
  on_input.event = "opts(0, 1)";
  const Response answered = service.Call(on_input);
  ASSERT_TRUE(answered.status.ok()) << answered.status.ToString();
  EXPECT_EQ(answered.result.Find("probability")->AsString(), "1");
}

TEST(QueryServiceTest, StateSpaceBudgetErrorReportsExploredStates) {
  QueryService service;
  Request request;
  request.kind = RequestKind::kForever;
  request.program_text = kBitsProgram;
  request.data_text = BitsData(6);
  request.event = "bits(0, 1)";
  request.max_states = 4;
  const Response response = service.Call(request);
  ASSERT_FALSE(response.status.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(response.status.message().find("explored"), std::string::npos)
      << response.status.message();
  EXPECT_NE(response.status.message().find("max_states"), std::string::npos);
}

TEST(QueryServiceTest, OverloadShedsWithStructuredError) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  QueryService service(options);

  // Each request burns ~200ms in burn-in steps before its deadline fires,
  // so with one worker and one queue slot most of the 8 concurrent calls
  // must be shed at admission.
  auto slow = [] {
    Request request = CoinRequest(RequestKind::kMcmc);
    request.burn_in = 1u << 30;
    request.timeout_ms = 200;
    return request;
  };

  std::atomic<int> overloaded{0};
  std::atomic<int> other{0};
  std::vector<std::thread> clients;
  clients.reserve(8);
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&service, &slow, &overloaded, &other] {
      const Response response = service.Call(slow());
      if (response.status.code() == StatusCode::kUnavailable) {
        EXPECT_NE(response.status.message().find("overloaded"),
                  std::string::npos);
        ++overloaded;
      } else {
        ++other;
      }
    });
  }
  for (auto& c : clients) c.join();

  EXPECT_GE(overloaded.load(), 1);
  EXPECT_EQ(overloaded.load() + other.load(), 8);
  const Json stats = service.StatsJson();
  EXPECT_GE(stats.Find("pool")->Find("rejected")->AsInt(), 1);
  EXPECT_EQ(stats.Find("pool")->Find("rejected")->AsInt() +
                stats.Find("pool")->Find("accepted")->AsInt(),
            8);
}

TEST(QueryServiceTest, ResolveErrorsAreStructured) {
  QueryService service;
  Request missing;
  missing.kind = RequestKind::kExact;
  missing.program = "nonexistent";
  missing.event = "p(0)";
  EXPECT_EQ(service.Call(missing).status.code(), StatusCode::kNotFound);

  Request broken = CoinRequest(RequestKind::kExact);
  broken.program_text = "flip( :- nope";
  EXPECT_FALSE(service.Call(broken).status.ok());
}

TEST(QueryServiceTest, RegisterProgramRejectsInvalidSource) {
  QueryService service;
  EXPECT_FALSE(service.RegisterProgram("bad", "p( :-").ok());
  EXPECT_FALSE(service.RegisterProgram("", kCoinProgram).ok());
  Request list;
  list.kind = RequestKind::kList;
  const Response listing = service.Call(list);
  ASSERT_TRUE(listing.status.ok());
  EXPECT_TRUE(listing.result.Find("programs")->items().empty());
}

TEST(QueryServiceTest, ControlPlaneInline) {
  QueryService service;
  Request ping;
  ping.kind = RequestKind::kPing;
  const Response pong = service.Call(ping);
  ASSERT_TRUE(pong.status.ok());
  EXPECT_TRUE(pong.result.Find("pong")->AsBool());

  ASSERT_TRUE(service.RegisterProgram("coin", kCoinProgram).ok());
  Request list;
  list.kind = RequestKind::kList;
  const Response listing = service.Call(list);
  ASSERT_TRUE(listing.status.ok());
  const Json* programs = listing.result.Find("programs");
  ASSERT_NE(programs, nullptr);
  ASSERT_EQ(programs->items().size(), 1u);
  EXPECT_EQ(programs->items()[0].Find("name")->AsString(), "coin");
}

TEST(QueryServiceTest, CallLineSpeaksTheWireSchema) {
  QueryService service;
  const Response ok = service.CallLine(
      "{\"id\":1,\"method\":\"exact\",\"program_text\":"
      "\"flip(<K>, V) :- opts(K, V).\",\"data_text\":"
      "\"relation opts(k, v) {\\n  (0, 0)\\n  (0, 1)\\n}\","
      "\"event\":\"flip(0, 1)\"}");
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_EQ(ok.result.Find("probability")->AsString(), "1/2");

  // Parse failures become error responses, never dropped lines.
  const Response bad = service.CallLine("this is not json");
  EXPECT_FALSE(bad.status.ok());
  const Response unknown = service.CallLine("{\"method\":\"warp\"}");
  EXPECT_FALSE(unknown.status.ok());
}

// An integer literal beyond int64, in the program or in the event, is a
// ParseError response, and the service goes on answering.
TEST(QueryServiceTest, OversizedNumericLiteralsAreParseErrors) {
  QueryService service;
  const Response in_program = service.CallLine(
      "{\"method\":\"exact\",\"program_text\":"
      "\"p(99999999999999999999).\",\"data_text\":\"\","
      "\"event\":\"p(1)\"}");
  EXPECT_EQ(in_program.status.code(), StatusCode::kParseError)
      << in_program.status.ToString();
  const Response in_event = service.CallLine(
      "{\"method\":\"exact\",\"program_text\":"
      "\"flip(<K>, V) :- opts(K, V).\",\"data_text\":"
      "\"relation opts(k, v) {\\n  (0, 0)\\n  (0, 1)\\n}\","
      "\"event\":\"flip(0, 99999999999999999999)\"}");
  EXPECT_EQ(in_event.status.code(), StatusCode::kParseError)
      << in_event.status.ToString();

  const Response after = service.Call(CoinRequest(RequestKind::kExact));
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_EQ(after.result.Find("probability")->AsString(), "1/2");
}

TEST(QueryServiceTest, RegistrationViaWire) {
  QueryService service;
  const Response reg_program = service.CallLine(
      "{\"method\":\"register_program\",\"name\":\"coin\","
      "\"program_text\":\"flip(<K>, V) :- opts(K, V).\"}");
  ASSERT_TRUE(reg_program.status.ok()) << reg_program.status.ToString();
  const Response reg_data = service.CallLine(
      "{\"method\":\"register_instance\",\"name\":\"db\",\"data_text\":"
      "\"relation opts(k, v) {\\n  (0, 0)\\n  (0, 1)\\n}\"}");
  ASSERT_TRUE(reg_data.status.ok()) << reg_data.status.ToString();
  EXPECT_EQ(reg_data.result.Find("tuples")->AsInt(), 2);

  const Response query = service.CallLine(
      "{\"method\":\"exact\",\"program\":\"coin\",\"data\":\"db\","
      "\"event\":\"flip(0, 1)\"}");
  ASSERT_TRUE(query.status.ok()) << query.status.ToString();
  EXPECT_EQ(query.result.Find("probability")->AsString(), "1/2");
}

// The result cache keys on the program's printed text, which must keep
// every digit of a double constant: 0.5000001 and 0.5000002 both printed as
// 0.5 once, and the second bound was answered from the first's entry.
TEST(QueryServiceTest, ResultCacheKeepsEveryDigitOfADoubleConstant) {
  QueryService service;
  auto exact = [&](const std::string& bound, bool no_cache) {
    return service.CallLine(
        "{\"method\":\"exact\",\"program_text\":"
        "\"ok(X) :- e(X, W), W < " + bound + ".\",\"data_text\":"
        "\"relation e(i, w) {\\n  (0, 0.50000015)\\n}\","
        "\"event\":\"ok(0)\"" + (no_cache ? ",\"no_cache\":true" : "") +
        "}");
  };
  const Response below = exact("0.5000001", false);
  ASSERT_TRUE(below.status.ok()) << below.status.ToString();
  EXPECT_EQ(below.result.Find("probability")->AsString(), "0");

  const Response above = exact("0.5000002", false);
  ASSERT_TRUE(above.status.ok()) << above.status.ToString();
  EXPECT_FALSE(above.cached);
  EXPECT_EQ(above.result.Find("probability")->AsString(), "1");

  const Response fresh = exact("0.5000002", true);
  ASSERT_TRUE(fresh.status.ok()) << fresh.status.ToString();
  EXPECT_EQ(fresh.result.Find("probability")->AsString(), "1");
  EXPECT_TRUE(exact("0.5000002", false).cached);
}

}  // namespace
}  // namespace server
}  // namespace pfql
