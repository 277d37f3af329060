#include "server/wire.h"

#include <gtest/gtest.h>

namespace pfql {
namespace server {
namespace {

TEST(WireTest, KindStringsRoundTrip) {
  for (RequestKind kind :
       {RequestKind::kPing, RequestKind::kStats, RequestKind::kList,
        RequestKind::kHealth, RequestKind::kRegisterProgram,
        RequestKind::kRegisterInstance,
        RequestKind::kRun, RequestKind::kExact, RequestKind::kApprox,
        RequestKind::kForever, RequestKind::kMcmc, RequestKind::kPartition,
        RequestKind::kTrajectory}) {
    auto parsed = RequestKindFromString(RequestKindToString(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(RequestKindFromString("nope").ok());
}

TEST(WireTest, QueryKindClassification) {
  EXPECT_TRUE(IsQueryKind(RequestKind::kExact));
  EXPECT_TRUE(IsQueryKind(RequestKind::kRun));
  EXPECT_FALSE(IsQueryKind(RequestKind::kPing));
  EXPECT_FALSE(IsQueryKind(RequestKind::kHealth));
  EXPECT_FALSE(IsQueryKind(RequestKind::kRegisterProgram));
}

TEST(WireTest, EveryKindIsCurrentlyIdempotent) {
  // The retry gate: queries are pure, registrations replace by name. If a
  // mutating kind is ever added it must return false here and this test
  // must enumerate it.
  for (RequestKind kind :
       {RequestKind::kPing, RequestKind::kStats, RequestKind::kList,
        RequestKind::kHealth, RequestKind::kRegisterProgram,
        RequestKind::kRegisterInstance, RequestKind::kRun,
        RequestKind::kExact, RequestKind::kApprox, RequestKind::kForever,
        RequestKind::kMcmc, RequestKind::kPartition,
        RequestKind::kTrajectory}) {
    EXPECT_TRUE(IsIdempotent(kind)) << RequestKindToString(kind);
  }
}

TEST(WireTest, ParsesHealth) {
  auto request = ParseRequestLine("{\"method\":\"health\"}");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->kind, RequestKind::kHealth);
}

TEST(WireTest, ParsesMinimalPing) {
  auto request = ParseRequestLine("{\"method\":\"ping\"}");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->kind, RequestKind::kPing);
  EXPECT_TRUE(request->id.is_null());
}

TEST(WireTest, ParsesQueryWithDefaults) {
  auto request = ParseRequestLine(
      "{\"id\":7,\"method\":\"exact\",\"program_text\":\"p(0).\","
      "\"event\":\"p(0)\"}");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->kind, RequestKind::kExact);
  EXPECT_EQ(request->id.AsInt(), 7);
  EXPECT_EQ(request->program_text, "p(0).");
  EXPECT_EQ(request->event, "p(0)");
  EXPECT_DOUBLE_EQ(request->epsilon, 0.05);
  EXPECT_DOUBLE_EQ(request->delta, 0.05);
  EXPECT_EQ(request->seed, 42u);
  EXPECT_EQ(request->threads, 1u);
  EXPECT_EQ(request->timeout_ms, 0);
  EXPECT_FALSE(request->no_cache);
  EXPECT_FALSE(request->burn_in.has_value());
  EXPECT_EQ(request->max_samples, 0u);
  EXPECT_TRUE(request->allow_partial);  // wire default: partial over error
  EXPECT_TRUE(request->fallback.empty());
}

TEST(WireTest, ParsesDegradationControls) {
  auto request = ParseRequestLine(
      "{\"method\":\"approx\",\"program_text\":\"p(0).\","
      "\"event\":\"p(0)\",\"max_samples\":500,\"allow_partial\":false}");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->max_samples, 500u);
  EXPECT_FALSE(request->allow_partial);

  auto fallback = ParseRequestLine(
      "{\"method\":\"exact\",\"program_text\":\"p(0).\","
      "\"event\":\"p(0)\",\"fallback\":\"approx\"}");
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ(fallback->fallback, "approx");

  // fallback is exact-only and must name a known strategy.
  EXPECT_FALSE(ParseRequestLine(
                   "{\"method\":\"approx\",\"program_text\":\"p(0).\","
                   "\"event\":\"p(0)\",\"fallback\":\"approx\"}")
                   .ok());
  EXPECT_FALSE(ParseRequestLine(
                   "{\"method\":\"exact\",\"program_text\":\"p(0).\","
                   "\"event\":\"p(0)\",\"fallback\":\"guess\"}")
                   .ok());
  EXPECT_FALSE(ParseRequestLine(
                   "{\"method\":\"approx\",\"program_text\":\"p(0).\","
                   "\"event\":\"p(0)\",\"max_samples\":-3}")
                   .ok());
}

TEST(WireTest, BurnInAcceptsNumberAndAuto) {
  auto numeric = ParseRequestLine(
      "{\"method\":\"mcmc\",\"program_text\":\"p.\",\"event\":\"p(0)\","
      "\"burn_in\":16}");
  ASSERT_TRUE(numeric.ok());
  ASSERT_TRUE(numeric->burn_in.has_value());
  EXPECT_EQ(*numeric->burn_in, 16u);

  auto auto_burn = ParseRequestLine(
      "{\"method\":\"mcmc\",\"program_text\":\"p.\",\"event\":\"p(0)\","
      "\"burn_in\":\"auto\"}");
  ASSERT_TRUE(auto_burn.ok());
  EXPECT_FALSE(auto_burn->burn_in.has_value());

  EXPECT_FALSE(ParseRequestLine(
                   "{\"method\":\"mcmc\",\"program_text\":\"p.\","
                   "\"event\":\"p(0)\",\"burn_in\":-1}")
                   .ok());
}

TEST(WireTest, RejectsMalformedRequests) {
  EXPECT_FALSE(ParseRequestLine("not json").ok());
  EXPECT_FALSE(ParseRequestLine("[1,2]").ok());
  EXPECT_FALSE(ParseRequestLine("{}").ok());
  EXPECT_FALSE(ParseRequestLine("{\"method\":\"warp\"}").ok());
  // Query kinds need exactly one program source.
  EXPECT_FALSE(
      ParseRequestLine("{\"method\":\"exact\",\"event\":\"p(0)\"}").ok());
  EXPECT_FALSE(ParseRequestLine(
                   "{\"method\":\"exact\",\"program\":\"a\","
                   "\"program_text\":\"p.\",\"event\":\"p(0)\"}")
                   .ok());
  // data and data_text are mutually exclusive.
  EXPECT_FALSE(ParseRequestLine(
                   "{\"method\":\"exact\",\"program\":\"a\",\"data\":\"d\","
                   "\"data_text\":\"x\",\"event\":\"p(0)\"}")
                   .ok());
  // Non-run query kinds need an event.
  EXPECT_FALSE(
      ParseRequestLine("{\"method\":\"exact\",\"program\":\"a\"}").ok());
  // run does not.
  EXPECT_TRUE(
      ParseRequestLine("{\"method\":\"run\",\"program\":\"a\"}").ok());
  // Budgets must be positive, timeouts non-negative.
  EXPECT_FALSE(ParseRequestLine(
                   "{\"method\":\"exact\",\"program\":\"a\","
                   "\"event\":\"p(0)\",\"max_nodes\":0}")
                   .ok());
  EXPECT_FALSE(ParseRequestLine(
                   "{\"method\":\"exact\",\"program\":\"a\","
                   "\"event\":\"p(0)\",\"timeout_ms\":-5}")
                   .ok());
  // Registrations need their payloads.
  EXPECT_FALSE(ParseRequestLine("{\"method\":\"register_program\"}").ok());
  EXPECT_FALSE(ParseRequestLine(
                   "{\"method\":\"register_instance\",\"name\":\"d\"}")
                   .ok());
}

// Every kind that starts threads per request (approx and mcmc sampler
// shards, forever's BFS wave workers, subscribe's chains) is capped at one
// named bound, checked on the parsed request before anything runs.
TEST(WireTest, ThreadsCappedAtNamedBound) {
  const std::string max = std::to_string(kMaxRequestThreads);
  const std::string over = std::to_string(kMaxRequestThreads + 1);
  for (const char* shape :
       {"\"method\":\"approx\",\"program\":\"a\",\"event\":\"p(0)\"",
        "\"method\":\"mcmc\",\"program\":\"a\",\"event\":\"p(0)\"",
        "\"method\":\"forever\",\"program\":\"a\",\"event\":\"p(0)\"",
        "\"method\":\"subscribe\",\"target\":\"mcmc\",\"program\":\"a\","
        "\"event\":\"p(0)\""}) {
    auto at_max = ParseRequestLine("{" + std::string(shape) +
                                   ",\"threads\":" + max + "}");
    ASSERT_TRUE(at_max.ok()) << shape << ": " << at_max.status().ToString();
    EXPECT_EQ(at_max->threads, kMaxRequestThreads);

    auto above = ParseRequestLine("{" + std::string(shape) +
                                  ",\"threads\":" + over + "}");
    ASSERT_FALSE(above.ok()) << shape;
    EXPECT_EQ(above.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(above.status().message().find("field 'threads'"),
              std::string::npos)
        << above.status().message();

    auto huge = ParseRequestLine("{" + std::string(shape) +
                                 ",\"threads\":9223372036854775807}");
    ASSERT_FALSE(huge.ok()) << shape;
    EXPECT_EQ(huge.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(kMaxRequestThreads, 64u);
}

Request QueryRequest(RequestKind kind) {
  Request request;
  request.kind = kind;
  request.event = "p(0)";
  return request;
}

TEST(WireTest, CacheParamsIgnoresSeedForExactKinds) {
  Request a = QueryRequest(RequestKind::kExact);
  Request b = QueryRequest(RequestKind::kExact);
  b.seed = 99;
  EXPECT_EQ(a.CacheParams(), b.CacheParams());

  Request c = QueryRequest(RequestKind::kForever);
  Request d = QueryRequest(RequestKind::kForever);
  d.seed = 99;
  EXPECT_EQ(c.CacheParams(), d.CacheParams());
}

TEST(WireTest, CacheParamsKeysSeedForSampledKinds) {
  for (RequestKind kind : {RequestKind::kRun, RequestKind::kApprox,
                           RequestKind::kMcmc, RequestKind::kTrajectory}) {
    Request a = QueryRequest(kind);
    Request b = QueryRequest(kind);
    b.seed = 99;
    EXPECT_NE(a.CacheParams(), b.CacheParams())
        << RequestKindToString(kind);
  }
}

TEST(WireTest, CacheParamsKeysValueAffectingBudgets) {
  Request a = QueryRequest(RequestKind::kForever);
  Request b = QueryRequest(RequestKind::kForever);
  b.max_states = a.max_states * 2;
  EXPECT_NE(a.CacheParams(), b.CacheParams());

  Request c = QueryRequest(RequestKind::kExact);
  Request d = QueryRequest(RequestKind::kExact);
  d.threads = 8;
  EXPECT_NE(c.CacheParams(), d.CacheParams());
}

TEST(WireTest, CacheParamsKeysSampleBudgetForSampledKinds) {
  for (RequestKind kind : {RequestKind::kApprox, RequestKind::kMcmc}) {
    Request a = QueryRequest(kind);
    Request b = QueryRequest(kind);
    b.max_samples = 100;
    EXPECT_NE(a.CacheParams(), b.CacheParams())
        << RequestKindToString(kind);
  }
}

// ε and δ keep every digit in the key: with six decimals, ε = 0.0100004
// was answered from ε = 0.01's entry, with ε = 0.01's sample count.
TEST(WireTest, CacheParamsKeysEveryDigitOfEpsilonAndDelta) {
  for (RequestKind kind : {RequestKind::kApprox, RequestKind::kMcmc}) {
    Request a = QueryRequest(kind);
    Request b = QueryRequest(kind);
    a.epsilon = 0.01;
    b.epsilon = 0.0100004;
    EXPECT_NE(a.CacheParams(), b.CacheParams())
        << RequestKindToString(kind);
    Request c = QueryRequest(kind);
    Request d = QueryRequest(kind);
    c.delta = 0.05;
    d.delta = 0.0500001;
    EXPECT_NE(c.CacheParams(), d.CacheParams())
        << RequestKindToString(kind);
  }
}

TEST(WireTest, CacheParamsKeysBackendForSampledWalkKinds) {
  // The compiled tier quantizes probabilities, so its estimates must not
  // alias cached interpreted payloads (and vice versa) under one key.
  for (RequestKind kind : {RequestKind::kMcmc, RequestKind::kTrajectory}) {
    Request a = QueryRequest(kind);
    Request b = QueryRequest(kind);
    b.backend = "compiled";
    EXPECT_NE(a.CacheParams(), b.CacheParams())
        << RequestKindToString(kind);

    Request c = QueryRequest(kind);
    c.backend = b.backend;
    c.compile_max_states = b.compile_max_states * 2;
    EXPECT_NE(b.CacheParams(), c.CacheParams())
        << RequestKindToString(kind);
  }
  // Kinds that never touch the compiled tier ignore both knobs.
  for (RequestKind kind : {RequestKind::kExact, RequestKind::kForever,
                           RequestKind::kApprox, RequestKind::kRun}) {
    Request a = QueryRequest(kind);
    Request b = QueryRequest(kind);
    b.backend = "compiled";
    b.compile_max_states = 99;
    EXPECT_EQ(a.CacheParams(), b.CacheParams())
        << RequestKindToString(kind);
  }
}

TEST(WireTest, ParseRequestValidatesBackend) {
  auto ok = ParseRequestLine(
      "{\"method\":\"mcmc\",\"program_text\":\"p(0).\",\"event\":\"p(0)\","
      "\"backend\":\"compiled\",\"compile_max_states\":64}");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->backend, "compiled");
  EXPECT_EQ(ok->compile_max_states, 64u);
  // Unknown tier name.
  EXPECT_FALSE(ParseRequestLine(
                   "{\"method\":\"mcmc\",\"program_text\":\"p(0).\","
                   "\"event\":\"p(0)\",\"backend\":\"jit\"}")
                   .ok());
  // Tier selection is meaningless outside mcmc/trajectory.
  EXPECT_FALSE(ParseRequestLine(
                   "{\"method\":\"exact\",\"program_text\":\"p(0).\","
                   "\"event\":\"p(0)\",\"backend\":\"compiled\"}")
                   .ok());
  // Budget must be positive.
  EXPECT_FALSE(ParseRequestLine(
                   "{\"method\":\"mcmc\",\"program_text\":\"p(0).\","
                   "\"event\":\"p(0)\",\"compile_max_states\":0}")
                   .ok());
}

TEST(WireTest, CacheParamsIgnoresDeadline) {
  Request a = QueryRequest(RequestKind::kExact);
  Request b = QueryRequest(RequestKind::kExact);
  b.timeout_ms = 5000;
  b.no_cache = false;
  EXPECT_EQ(a.CacheParams(), b.CacheParams());
}

TEST(WireTest, OkResponseSerialization) {
  Response response;
  response.id = 3;
  response.method = "exact";
  Json result = Json::Object();
  result.Set("probability", "1/2");
  response.result = std::move(result);
  response.cached = true;
  response.elapsed_us = 1234;

  auto parsed = Json::Parse(SerializeResponse(response));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("id")->AsInt(), 3);
  EXPECT_TRUE(parsed->Find("ok")->AsBool());
  EXPECT_EQ(parsed->Find("method")->AsString(), "exact");
  EXPECT_TRUE(parsed->Find("cached")->AsBool());
  EXPECT_EQ(parsed->Find("elapsed_us")->AsInt(), 1234);
  EXPECT_EQ(parsed->Find("result")->Find("probability")->AsString(), "1/2");
}

TEST(WireTest, ErrorResponseSerialization) {
  Response response = ErrorResponse(
      Json("req-9"), "forever", Status::DeadlineExceeded("too slow"));
  auto parsed = Json::Parse(SerializeResponse(response));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("id")->AsString(), "req-9");
  EXPECT_FALSE(parsed->Find("ok")->AsBool());
  const Json* error = parsed->Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->Find("code")->AsString(), "DeadlineExceeded");
  EXPECT_EQ(error->Find("message")->AsString(), "too slow");
  EXPECT_EQ(parsed->Find("result"), nullptr);
}

TEST(WireTest, ResponsesAreSingleLine) {
  Response response;
  response.method = "stats";
  Json result = Json::Object();
  result.Set("text", "line1\nline2");
  response.result = std::move(result);
  const std::string wire = SerializeResponse(response);
  EXPECT_EQ(wire.find('\n'), std::string::npos);
}

}  // namespace
}  // namespace server
}  // namespace pfql
