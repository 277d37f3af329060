// End-to-end coverage for the "plan" wire method and the executor's
// analyzer-driven gates: upfront PFQL-E070 rejection of over-budget exact
// requests, kAuto compile skipping, and forced-compiled rejection.
#include <gtest/gtest.h>

#include <string>

#include "server/query_service.h"
#include "server/wire.h"
#include "util/metrics.h"

namespace pfql {
namespace server {
namespace {

constexpr char kCoinProgram[] = "flip(<K>, V) :- opts(K, V).\n";
constexpr char kCoinData[] =
    "relation opts(k, v) {\n  (0, 0)\n  (0, 1)\n}\n";

// 12 keys x 2 values: exactly 2^12 + 1 = 4097 reachable states, all of
// them certified by the lower bound (single qualifying choice rule).
std::string BigChoiceData(int keys) {
  std::string out = "relation opts(k, v) {\n";
  for (int k = 0; k < keys; ++k) {
    out += "  (" + std::to_string(k) + ", 0)\n";
    out += "  (" + std::to_string(k) + ", 1)\n";
  }
  return out + "}\n";
}

Request PlanRequest() {
  Request request;
  request.kind = RequestKind::kPlan;
  request.program_text = kCoinProgram;
  request.data_text = kCoinData;
  return request;
}

uint64_t CounterValue(const char* name, const std::string& labels = "") {
  return metrics::MetricRegistry::Instance()
      .GetCounter(name, labels)
      ->Value();
}

TEST(PlanMethodTest, WireParsesPlanWithoutEvent) {
  auto request = ParseRequestLine(
      "{\"method\": \"plan\", \"program_text\": \"flip(<K>, V) :- "
      "opts(K, V).\", \"data_text\": \"\"}");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->kind, RequestKind::kPlan);
  EXPECT_TRUE(IsQueryKind(request->kind));
}

TEST(PlanMethodTest, WireAcceptsBackendForPlan) {
  auto request = ParseRequestLine(
      "{\"method\": \"plan\", \"program_text\": \"x(1).\", "
      "\"backend\": \"compiled\"}");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->backend, "compiled");

  auto bad = ParseRequestLine(
      "{\"method\": \"exact\", \"program_text\": \"x(1).\", "
      "\"event\": \"x(1)\", \"backend\": \"compiled\"}");
  EXPECT_FALSE(bad.ok());
}

TEST(PlanMethodTest, PayloadCarriesReportBudgetsAndDiagnostics) {
  QueryService service;
  Request request = PlanRequest();
  request.max_states = 1000;
  const Response response = service.Call(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.method, "plan");

  const Json& result = response.result;
  ASSERT_NE(result.Find("states"), nullptr);
  EXPECT_EQ(result.Find("states")->Find("lo")->AsInt(), 3);
  EXPECT_EQ(result.Find("states")->Find("hi")->AsInt(), 3);
  ASSERT_NE(result.Find("structure"), nullptr);
  EXPECT_EQ(result.Find("backend_verdict")->AsString(), "compiled");
  EXPECT_EQ(result.Find("recommended_sampler")->AsString(), "exact");
  ASSERT_NE(result.Find("budgets"), nullptr);
  EXPECT_EQ(result.Find("budgets")->Find("max_states")->AsInt(), 1000);
  EXPECT_FALSE(result.Find("would_reject_exact")->AsBool());
  ASSERT_NE(result.Find("diagnostics"), nullptr);
}

TEST(PlanMethodTest, PlanValidatesOptionalEvent) {
  QueryService service;
  Request request = PlanRequest();
  request.event = "flip(0, 1)";
  const Response ok = service.Call(request);
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_NE(ok.result.Find("event"), nullptr);

  request.event = "not a ground atom((";
  request.no_cache = true;
  const Response bad = service.Call(request);
  EXPECT_FALSE(bad.status.ok());
}

TEST(PlanMethodTest, PlanFlagsOverBudgetExact) {
  QueryService service;
  Request request = PlanRequest();
  request.data_text = BigChoiceData(12);
  request.max_states = 64;
  const Response response = service.Call(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.result.Find("would_reject_exact")->AsBool());
}

TEST(ExecutorPlanGateTest, ForeverRejectedUpfrontWithE070) {
  const uint64_t rejected_before =
      CounterValue("pfql_plan_rejected_total", "kind=\"forever\"");
  QueryService service;
  Request request;
  request.kind = RequestKind::kForever;
  request.program_text = kCoinProgram;
  request.data_text = BigChoiceData(12);
  request.event = "flip(0, 1)";
  request.max_states = 64;  // lower bound 4097 >> 64: provably doomed
  const Response response = service.Call(request);
  ASSERT_FALSE(response.status.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(response.status.message().find("PFQL-E070"), std::string::npos)
      << response.status.ToString();
  EXPECT_EQ(CounterValue("pfql_plan_rejected_total", "kind=\"forever\""),
            rejected_before + 1);
}

TEST(ExecutorPlanGateTest, AutoBackendSkipsDoomedCompile) {
  const uint64_t skipped_before =
      CounterValue("pfql_plan_skipped_compiles_total", "kind=\"mcmc\"");
  QueryService service;
  Request request;
  request.kind = RequestKind::kMcmc;
  request.program_text = kCoinProgram;
  request.data_text = BigChoiceData(12);
  request.event = "flip(0, 1)";
  request.burn_in = 4;
  request.epsilon = 0.4;
  request.delta = 0.4;
  request.compile_max_states = 64;  // chain needs 4097: compile is doomed
  const Response response = service.Call(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(CounterValue("pfql_plan_skipped_compiles_total",
                         "kind=\"mcmc\""),
            skipped_before + 1);
}

TEST(ExecutorPlanGateTest, ForcedCompiledBackendRejectedUpfront) {
  QueryService service;
  Request request;
  request.kind = RequestKind::kMcmc;
  request.program_text = kCoinProgram;
  request.data_text = BigChoiceData(12);
  request.event = "flip(0, 1)";
  request.burn_in = 4;
  request.backend = "compiled";
  request.compile_max_states = 64;
  const Response response = service.Call(request);
  ASSERT_FALSE(response.status.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(response.status.message().find("PFQL-E070"), std::string::npos);
}

TEST(ExecutorPlanGateTest, AccuracyGaugesRecordForeverRuns) {
  QueryService service;
  Request request;
  request.kind = RequestKind::kForever;
  request.program_text = kCoinProgram;
  request.data_text = kCoinData;
  request.event = "flip(0, 1)";
  request.no_cache = true;
  const Response response = service.Call(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  auto& registry = metrics::MetricRegistry::Instance();
  EXPECT_EQ(registry.GetGauge("pfql_plan_actual_states", "kind=\"forever\"")
                ->Value(),
            3);
  EXPECT_EQ(registry
                .GetGauge("pfql_plan_predicted_states_lo",
                          "kind=\"forever\"")
                ->Value(),
            3);
}

// k weighted binary choices, 2^k + 1 states, which split into k classes of
// 3 states; and a weighted walk on an n-ring, n * n + 2 states in one class.
constexpr char kChoiceProgram[] = "pick(<K>, V) @W :- opt(K, V, W).\n";
constexpr char kWalkProgram[] =
    "cur(0).\n"
    "mv(<K>, Y) @P :- one(K), cur(X), e(X, Y, P).\n"
    "cur(Y) :- mv(K, Y).\n";

std::string ChoiceData(int k) {
  std::string out = "relation opt(k, v, w) {\n";
  for (int i = 0; i < k; ++i) {
    for (int v = 0; v < 2; ++v) {
      out += "  (" + std::to_string(i) + ", " + std::to_string(v) + ", " +
             std::to_string(1 + (i + 2 * v) % 4) + ")\n";
    }
  }
  return out + "}\n";
}

std::string WalkData(int n) {
  std::string out = "relation one(k) {\n  (0)\n}\nrelation e(i, j, p) {\n";
  for (int i = 0; i < n; ++i) {
    for (int j : {(i + 1) % n, (i + n - 1) % n}) {
      out += "  (" + std::to_string(i) + ", " + std::to_string(j) + ", " +
             std::to_string(1 + i % 3) + ")\n";
    }
  }
  return out + "}\n";
}

// The planner predicts the whole input's chain. A split input answers on
// one class's smaller chain, so only a one-class input is held against the
// prediction; neither may count a bound violation.
TEST(ExecutorPlanGateTest, ClassPathCountsNoBoundViolation) {
  struct Case {
    const char* program;
    std::string data;
    const char* event;
    int64_t classes;
    int64_t states;
  };
  const Case cases[] = {{kChoiceProgram, ChoiceData(4), "pick(1, 0)", 4, 3},
                        {kChoiceProgram, ChoiceData(8), "pick(2, 1)", 8, 3},
                        {kWalkProgram, WalkData(4), "cur(1)", 1, 18}};
  QueryService service;
  auto& registry = metrics::MetricRegistry::Instance();
  for (RequestKind kind : {RequestKind::kForever, RequestKind::kPartition}) {
    const std::string labels =
        std::string("kind=\"") + RequestKindToString(kind) + '"';
    const uint64_t violations_before =
        CounterValue("pfql_plan_bound_violations_total", labels);
    for (const Case& c : cases) {
      SCOPED_TRACE(labels + " " + c.event);
      Request request;
      request.kind = kind;
      request.program_text = c.program;
      request.data_text = c.data;
      request.event = c.event;
      request.no_cache = true;
      const Response response = service.Call(request);
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_EQ(response.result.Find("classes")->AsInt(), c.classes);
      EXPECT_EQ(response.result.Find("states")->AsInt(), c.states);
    }
    // The walk ran last: its count lies in its certified interval.
    const int64_t actual =
        registry.GetGauge("pfql_plan_actual_states", labels)->Value();
    EXPECT_EQ(actual, 18);
    EXPECT_LE(
        registry.GetGauge("pfql_plan_predicted_states_lo", labels)->Value(),
        actual);
    EXPECT_GE(
        registry.GetGauge("pfql_plan_predicted_states_hi", labels)->Value(),
        actual);
    EXPECT_EQ(CounterValue("pfql_plan_bound_violations_total", labels),
              violations_before);
  }
}

}  // namespace
}  // namespace server
}  // namespace pfql
