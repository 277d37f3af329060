// pfql: command-line driver for probabilistic fixpoint queries.
//
//   pfql parse      --program prog.dl
//   pfql run        --program prog.dl --data db.txt [--seed N]
//   pfql exact      --program prog.dl --data db.txt --event 'cur(3)'
//   pfql approx     --program prog.dl --data db.txt --event 'cur(3)'
//                   [--epsilon E] [--delta D] [--seed N]
//   pfql forever    --program prog.dl --data db.txt --event 'cur(3)'
//                   [--max-states N]           (noninflationary exact)
//   pfql mcmc       --program prog.dl --data db.txt --event 'cur(3)'
//                   [--burn-in N | auto] [--epsilon E] [--delta D] [--seed N]
//   pfql partition  --program prog.dl --data db.txt --event 'cur(3)'
//   pfql trajectory --program prog.dl --data db.txt --event 'cur(3)'
//                   [--steps N] [--runs N] [--seed N]
//   pfql plan       --program prog.dl [--data db.txt] [--event 'cur(3)']
//                   [--max-states N] [--compile-max-states N]
//                   (cost & chain-structure analysis; executes nothing)
//   pfql serve      [pfqld flags]     (run the query daemon in-process)
//   pfql client     --port N [--request '<json>']   (NDJSON client; with
//                   no --request, reads request lines from stdin)
//   pfql client metrics --port N [--prom]   (scrape the daemon's metric
//                   registry; --prom prints Prometheus text exposition)
//   pfql client subscribe --port N --target approx|mcmc|trajectory
//                   --program FILE --data FILE --event 'cur(3)' [...]
//                   (stream update lines until the subscription completes)
//
// approx/mcmc/trajectory also accept --watch: instead of one blocking
// evaluation, the query runs as an in-process streaming subscription and
// every incremental update line ({estimate, ci_halfwidth, samples, ...})
// prints as it lands, until the estimate converges or the budget runs out.
//
// Query subcommands also accept [--threads N] [--timeout-ms N] [--json].
// --json prints the wire-format response object of docs/SERVER.md (the
// same serializer the pfqld daemon uses). Every Status error prints its
// message on stderr and exits non-zero.
//
// Programs use the datalog syntax of datalog/ast.h; data files use the
// relational/text_io.h instance format; events are ground atoms.
#include <charconv>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "datalog/program.h"
#include "relational/text_io.h"
#include "server/client.h"
#include "server/daemon.h"
#include "server/executor.h"
#include "server/query_service.h"
#include "server/wire.h"
#include "util/cancellation.h"
#include "util/json.h"
#include "util/string_util.h"

using namespace pfql;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: pfql "
      "<parse|run|exact|approx|forever|mcmc|partition|trajectory|plan|"
      "serve|client>\n"
      "            --program FILE [--data FILE] [--event 'rel(v, ...)']\n"
      "            [--epsilon E] [--delta D] [--seed N] [--threads N]\n"
      "            [--max-states N] [--max-nodes N] [--burn-in N|auto]\n"
      "            [--steps N] [--runs N] [--timeout-ms N] [--json]\n"
      "            [--max-samples N] [--fallback approx]\n"
      "            [--backend auto|interpreted|compiled]\n"
      "            [--compile-max-states N]\n"
      "       pfql client --port N [--request '<json>'] [--retries N]\n"
      "            [--max-backoff-ms N] [--attempt-timeout-ms N]\n"
      "       pfql client metrics --port N [--prom]\n"
      "       pfql client subscribe --port N --target "
      "approx|mcmc|trajectory\n"
      "            --program FILE --data FILE --event 'rel(v, ...)'\n"
      "       pfql approx|mcmc|trajectory ... --watch\n");
  return 2;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct Args {
  std::string mode;
  /// Bare words after the mode ("metrics" in `pfql client metrics`).
  std::vector<std::string> positionals;
  std::map<std::string, std::string> options;
  bool json = false;
  bool prom = false;
  bool watch = false;

  bool Has(const std::string& key) const { return options.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
};

StatusOr<Args> ParseArgs(int argc, char** argv) {
  if (argc < 2) return Status::InvalidArgument("missing mode");
  Args args;
  args.mode = argv[1];
  if (args.mode == "--serve") args.mode = "serve";
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--json") {
      args.json = true;
      continue;
    }
    if (key == "--prom") {
      args.prom = true;
      continue;
    }
    if (key == "--watch") {
      args.watch = true;
      continue;
    }
    if (key.rfind("--", 0) != 0) {
      // Bare words are subcommands of the mode (`client metrics`), not
      // option values — those are always consumed with their flag below.
      args.positionals.push_back(std::move(key));
      continue;
    }
    key = key.substr(2);
    if (i + 1 >= argc) {
      return Status::InvalidArgument("missing value for --" + key);
    }
    args.options[key] = argv[++i];
  }
  return args;
}

// Prints the error on stderr (always) and, under --json, the wire-format
// error response on stdout; exits non-zero either way.
int Fail(const Status& status, const Args& args,
         const std::string& method = "") {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  if (args.json) {
    std::printf("%s\n",
                server::SerializeResponse(
                    server::ErrorResponse(Json(), method, status))
                    .c_str());
  }
  return 1;
}

// Payload accessors for the human-readable renderers; the executor always
// sets the fields a kind renders, so missing fields indicate a bug.
int64_t GetInt(const Json& payload, const char* key) {
  const Json* v = payload.Find(key);
  return v != nullptr && v->is_number() ? v->AsInt() : 0;
}
double GetDouble(const Json& payload, const char* key) {
  const Json* v = payload.Find(key);
  return v != nullptr && v->is_number() ? v->AsDouble() : 0.0;
}
std::string GetString(const Json& payload, const char* key) {
  const Json* v = payload.Find(key);
  return v != nullptr && v->is_string() ? v->AsString() : std::string();
}
bool GetBool(const Json& payload, const char* key) {
  const Json* v = payload.Find(key);
  return v != nullptr && v->is_bool() && v->AsBool();
}

// Degraded responses (docs/SERVER.md): the estimate covers only the work
// completed before the deadline/fault; say so loudly in human output.
void PrintDegradedNote(const Json& payload) {
  if (!GetBool(payload, "degraded")) return;
  const std::string from = GetString(payload, "fallback_from");
  if (!from.empty()) {
    std::printf("%% DEGRADED: fell back from %s (%s) to sampling\n",
                from.c_str(), GetString(payload, "fallback_reason").c_str());
  }
  const std::string why = GetString(payload, "interrupted_by");
  if (!why.empty()) {
    std::printf(
        "%% DEGRADED: interrupted by %s; partial estimate "
        "(+/- %.4f at %.0f%% confidence)\n",
        why.c_str(), GetDouble(payload, "ci_halfwidth"),
        100.0 * GetDouble(payload, "ci_confidence"));
  }
}

// mcmc/trajectory with the compiled tier: say which engine produced the
// estimate and how big the frozen chain was (docs/INTERNALS.md section 7).
void PrintCompiledNote(const Json& payload) {
  if (GetString(payload, "backend") != "compiled") return;
  std::printf("%% COMPILED: chain frozen to %lld states / %lld edges "
              "(alias sampling)\n",
              static_cast<long long>(GetInt(payload, "compiled_states")),
              static_cast<long long>(GetInt(payload, "compiled_edges")));
}

// plan: the CostReport of docs/SERVER.md §plan, rendered as a few summary
// lines (intervals print as [lo, hi] with "inf" for unbounded).
void PrintPlanResult(const Json& payload) {
  auto interval = [&payload](const char* key) -> std::string {
    const Json* v = payload.Find(key);
    if (v == nullptr) return "[?, ?]";
    const Json* lo = v->Find("lo");
    const Json* hi = v->Find("hi");
    std::string out = "[";
    out += lo != nullptr && lo->is_number() ? std::to_string(lo->AsInt())
                                            : std::string("?");
    out += ", ";
    out += hi != nullptr && hi->is_number() ? std::to_string(hi->AsInt())
                                            : std::string("inf");
    return out + "]";
  };
  std::printf("%% plan: states %s, edges %s\n", interval("states").c_str(),
              interval("edges").c_str());
  const Json* structure = payload.Find("structure");
  if (structure != nullptr) {
    std::printf(
        "%% chain: %lld deterministic / %lld probabilistic rules%s%s%s%s\n",
        static_cast<long long>(GetInt(*structure, "deterministic_rules")),
        static_cast<long long>(GetInt(*structure, "probabilistic_rules")),
        GetBool(*structure, "memoryless") ? ", memoryless" : "",
        GetBool(*structure, "state_independent_choices")
            ? ", state-independent choices"
            : "",
        GetBool(*structure, "reducibility_risk") ? ", reducibility risk"
                                                 : "",
        GetBool(*structure, "periodicity_risk") ? ", periodicity risk" : "");
  }
  std::printf("%% backend verdict: %s, recommended sampler: %s\n",
              GetString(payload, "backend_verdict").c_str(),
              GetString(payload, "recommended_sampler").c_str());
  if (GetBool(payload, "would_reject_exact")) {
    std::printf(
        "%% NOTE: exact evaluation would be rejected upfront (PFQL-E070)\n");
  }
  const Json* diags = payload.Find("diagnostics");
  if (diags != nullptr && diags->is_array()) {
    for (const Json& d : diags->items()) {
      std::printf("%% %s[%s]: %s\n", GetString(d, "severity").c_str(),
                  GetString(d, "code").c_str(),
                  GetString(d, "message").c_str());
    }
  }
}

void PrintHumanResult(server::RequestKind kind, const Json& payload) {
  if (kind == server::RequestKind::kPlan) {
    PrintPlanResult(payload);
    return;
  }
  const std::string event = GetString(payload, "event");
  if (kind == server::RequestKind::kExact &&
      !GetString(payload, "fallback_from").empty()) {
    // exact --fallback approx produced a sampling payload, not an exact one.
    PrintDegradedNote(payload);
    std::printf("Pr[%s] ~= %.6f  (%lld samples)\n", event.c_str(),
                GetDouble(payload, "estimate"),
                static_cast<long long>(GetInt(payload, "samples")));
    return;
  }
  PrintDegradedNote(payload);
  PrintCompiledNote(payload);
  switch (kind) {
    case server::RequestKind::kRun:
      std::printf("%% fixpoint after %lld steps\n%s",
                  static_cast<long long>(GetInt(payload, "steps")),
                  GetString(payload, "fixpoint").c_str());
      break;
    case server::RequestKind::kExact:
      std::printf("Pr[%s] = %s (%.6f)\n", event.c_str(),
                  GetString(payload, "probability").c_str(),
                  GetDouble(payload, "probability_double"));
      break;
    case server::RequestKind::kApprox:
      std::printf("Pr[%s] ~= %.6f  (%lld samples, eps=%g, delta=%g)\n",
                  event.c_str(), GetDouble(payload, "estimate"),
                  static_cast<long long>(GetInt(payload, "samples")),
                  GetDouble(payload, "epsilon"),
                  GetDouble(payload, "delta"));
      break;
    case server::RequestKind::kForever:
      std::printf(
          "Pr[%s] = %s (%.6f)\n%% %lld states, %lld SCCs (%lld bottom), "
          "%s, %s\n",
          event.c_str(), GetString(payload, "probability").c_str(),
          GetDouble(payload, "probability_double"),
          static_cast<long long>(GetInt(payload, "states")),
          static_cast<long long>(GetInt(payload, "components")),
          static_cast<long long>(GetInt(payload, "bottom_components")),
          GetBool(payload, "irreducible") ? "irreducible" : "reducible",
          GetBool(payload, "aperiodic") ? "aperiodic" : "periodic");
      break;
    case server::RequestKind::kMcmc:
      if (GetBool(payload, "burn_in_measured")) {
        std::printf("%% measured TV mixing time: %lld steps\n",
                    static_cast<long long>(GetInt(payload, "burn_in")));
      }
      std::printf("Pr[%s] ~= %.6f  (%lld samples, burn-in %lld)\n",
                  event.c_str(), GetDouble(payload, "estimate"),
                  static_cast<long long>(GetInt(payload, "samples")),
                  static_cast<long long>(GetInt(payload, "burn_in")));
      break;
    case server::RequestKind::kPartition:
      std::printf("Pr[%s] = %s (%.6f)\n%% %lld classes, %lld total states\n",
                  event.c_str(), GetString(payload, "probability").c_str(),
                  GetDouble(payload, "probability_double"),
                  static_cast<long long>(GetInt(payload, "classes")),
                  static_cast<long long>(GetInt(payload, "states")));
      break;
    case server::RequestKind::kTrajectory:
      std::printf("Pr[%s] ~= %.6f  (%lld runs x %lld steps)\n",
                  event.c_str(), GetDouble(payload, "estimate"),
                  static_cast<long long>(GetInt(payload, "runs")),
                  static_cast<long long>(GetInt(payload, "steps_per_run")));
      break;
    default:
      break;
  }
}

int RunParse(const Args& args, const std::string& program_text) {
  auto program = datalog::ParseProgram(program_text);
  if (!program.ok()) return Fail(program.status(), args, "parse");
  if (args.json) {
    Json result = Json::Object();
    result.Set("program", program->ToString());
    Json edb = Json::Array();
    for (const auto& p : program->edb_predicates()) edb.Append(p);
    Json idb = Json::Array();
    for (const auto& p : program->idb_predicates()) idb.Append(p);
    result.Set("edb", std::move(edb));
    result.Set("idb", std::move(idb));
    result.Set("linear", program->IsLinear());
    result.Set("probabilistic", program->HasProbabilisticRules());
    server::Response response;
    response.method = "parse";
    response.result = std::move(result);
    std::printf("%s\n", server::SerializeResponse(response).c_str());
    return 0;
  }
  std::printf("%s", program->ToString().c_str());
  std::printf("%% EDB:");
  for (const auto& p : program->edb_predicates()) {
    std::printf(" %s/%zu", p.c_str(), program->arities().at(p));
  }
  std::printf("\n%% IDB:");
  for (const auto& p : program->idb_predicates()) {
    std::printf(" %s/%zu", p.c_str(), program->arities().at(p));
  }
  std::printf("\n%% linear: %s, probabilistic rules: %s\n",
              program->IsLinear() ? "yes" : "no",
              program->HasProbabilisticRules() ? "yes" : "no");
  return 0;
}

// The flags that set wire request fields (docs/SERVER.md). Every query
// path — local, --watch and `client subscribe` — maps its flags through
// this one table into one JSON request and parses it with ParseRequest, so
// the defaults and range checks are the wire's.
struct FlagField {
  enum Type { kString, kInt, kDouble, kIntOrAuto };
  const char* flag;
  const char* field;
  Type type;
};
constexpr FlagField kFlagFields[] = {
    {"event", "event", FlagField::kString},
    {"epsilon", "epsilon", FlagField::kDouble},
    {"delta", "delta", FlagField::kDouble},
    {"seed", "seed", FlagField::kInt},
    {"max-states", "max_states", FlagField::kInt},
    {"max-nodes", "max_nodes", FlagField::kInt},
    {"burn-in", "burn_in", FlagField::kIntOrAuto},
    {"steps", "steps", FlagField::kInt},
    {"runs", "runs", FlagField::kInt},
    {"threads", "threads", FlagField::kInt},
    {"timeout-ms", "timeout_ms", FlagField::kInt},
    {"max-samples", "max_samples", FlagField::kInt},
    {"backend", "backend", FlagField::kString},
    {"compile-max-states", "compile_max_states", FlagField::kInt},
    {"fallback", "fallback", FlagField::kString},
    {"target", "target", FlagField::kString},
};

// The JSON value of one flag: the whole text must be the number its field
// takes (a 64-bit integer or a double), so "-1" stays -1 for ParseRequest
// to reject rather than wrapping to 2^64 - 1.
StatusOr<Json> FlagValue(const FlagField& field, const std::string& text) {
  if (field.type == FlagField::kString ||
      (field.type == FlagField::kIntOrAuto && text == "auto")) {
    return Json(text);
  }
  const char* const end = text.data() + text.size();
  if (field.type == FlagField::kDouble) {
    double d = 0;
    auto [ptr, ec] = std::from_chars(text.data(), end, d);
    if (ec == std::errc() && ptr == end && !text.empty()) return Json(d);
  } else {
    int64_t i = 0;
    auto [ptr, ec] = std::from_chars(text.data(), end, i);
    if (ec == std::errc() && ptr == end && !text.empty()) return Json(i);
  }
  return Status::InvalidArgument("malformed numeric value '" + text +
                                 "' for --" + field.flag);
}

// The wire request `method` that the flags describe: --program and --data
// files go inline as program_text and data_text.
StatusOr<Json> RequestFromFlags(const Args& args, const std::string& method) {
  Json request = Json::Object();
  request.Set("method", method);
  PFQL_ASSIGN_OR_RETURN(std::string program_text,
                        ReadFile(args.Get("program", "")));
  request.Set("program_text", program_text);
  if (args.Has("data")) {
    PFQL_ASSIGN_OR_RETURN(std::string data_text,
                          ReadFile(args.Get("data", "")));
    request.Set("data_text", data_text);
  }
  for (const FlagField& field : kFlagFields) {
    if (!args.Has(field.flag)) continue;
    PFQL_ASSIGN_OR_RETURN(Json value,
                          FlagValue(field, args.Get(field.flag, "")));
    request.Set(field.field, std::move(value));
  }
  return request;
}

// The subscribe request of `pfql client subscribe`, checked by ParseRequest
// before it is sent (an explicit --request goes verbatim).
StatusOr<Json> BuildSubscribeRequest(const Args& args) {
  if (args.Has("request")) return Json::Parse(args.Get("request", ""));
  if (!args.Has("target") || !args.Has("program") || !args.Has("event")) {
    return Status::InvalidArgument(
        "client subscribe needs --target, --program, and --event "
        "(or a full --request)");
  }
  PFQL_ASSIGN_OR_RETURN(Json request, RequestFromFlags(args, "subscribe"));
  PFQL_RETURN_NOT_OK(server::ParseRequest(request).status());
  return request;
}

// `pfql client subscribe`: opens one subscription and prints every pushed
// line until its complete/error event arrives. Exit 0 on a clean complete,
// 1 on a stream error.
int RunClientSubscribe(server::Client& client, const Args& args) {
  auto request = BuildSubscribeRequest(args);
  if (!request.ok()) return Fail(request.status(), args, "subscribe");
  auto sub = client.Subscribe(*request);
  if (!sub.ok()) return Fail(sub.status(), args, "subscribe");
  for (;;) {
    auto push = client.NextPush(-1);
    if (!push.ok()) return Fail(push.status(), args, "subscribe");
    std::printf("%s\n", push->Dump().c_str());
    std::fflush(stdout);
    const Json* event = push->Find("event");
    const Json* push_sub = push->Find("sub");
    if (event == nullptr || !event->is_string() || push_sub == nullptr ||
        !push_sub->is_string() || push_sub->AsString() != *sub) {
      continue;
    }
    if (event->AsString() == "complete") return 0;
    if (event->AsString() == "error") return 1;
  }
}

// The most retries `pfql client --retries` takes.
constexpr uint64_t kMaxClientRetries = 100;

int RunClient(const Args& args) {
  if (!args.Has("port")) return Usage();
  // Every numeric flag is read whole and bounded before anything connects.
  auto flag = [&args](const char* name, const char* fallback, uint64_t lo,
                      uint64_t hi) {
    return ParseFlagValue(name, args.Get(name, fallback), lo, hi);
  };
  const StatusOr<uint64_t> port = flag("port", "", 1, server::kMaxPort);
  const StatusOr<uint64_t> retries =
      flag("retries", "0", 0, kMaxClientRetries);
  const StatusOr<uint64_t> max_backoff_ms =
      flag("max-backoff-ms", "2000", 0, server::kMaxTimeoutMs);
  const StatusOr<uint64_t> attempt_timeout_ms =
      flag("attempt-timeout-ms", "0", 0, server::kMaxTimeoutMs);
  for (const auto* value :
       {&port, &retries, &max_backoff_ms, &attempt_timeout_ms}) {
    if (!value->ok()) return Fail(value->status(), args, "client");
  }
  server::ClientOptions options;
  options.retry.max_attempts = static_cast<int>(*retries) + 1;
  options.retry.max_backoff = std::chrono::milliseconds(*max_backoff_ms);
  options.retry.attempt_timeout =
      std::chrono::milliseconds(*attempt_timeout_ms);
  server::Client client(options);
  Status status = client.Connect(static_cast<uint16_t>(*port));
  if (!status.ok()) return Fail(status, args, "client");

  if (!args.positionals.empty() && args.positionals[0] == "subscribe") {
    return RunClientSubscribe(client, args);
  }

  // `pfql client metrics [--prom]`: one metrics request; --prom prints the
  // raw Prometheus text exposition (scrape-ready), default prints the JSON
  // snapshot payload.
  if (!args.positionals.empty() && args.positionals[0] == "metrics") {
    Json request = Json::Object();
    request.Set("method", std::string("metrics"));
    request.Set("format", std::string(args.prom ? "prometheus" : "json"));
    auto response = client.CallWithRetry(request);
    if (!response.ok()) return Fail(response.status(), args, "metrics");
    const Json* ok = response->Find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->AsBool()) {
      std::printf("%s\n", response->Dump().c_str());
      return 1;
    }
    const Json* result = response->Find("result");
    if (result == nullptr) {
      return Fail(Status::Internal("metrics response has no result"), args,
                  "metrics");
    }
    if (args.prom) {
      const Json* text = result->Find("text");
      if (text == nullptr || !text->is_string()) {
        return Fail(Status::Internal("metrics response has no text field"),
                    args, "metrics");
      }
      std::fputs(text->AsString().c_str(), stdout);
    } else if (args.json) {
      std::printf("%s\n", response->Dump().c_str());
    } else {
      std::printf("%s\n", result->DumpPretty().c_str());
    }
    return 0;
  }

  int exit_code = 0;
  auto round_trip = [&](const std::string& line) {
    // With --retries, parsed requests go through the retrying path
    // (reconnect + backoff on Unavailable); anything unparseable is sent
    // raw, once, so the server's parse error still comes back verbatim.
    if (*retries > 0) {
      if (auto request = Json::Parse(line); request.ok()) {
        auto response = client.CallWithRetry(*request);
        if (!response.ok()) {
          exit_code = Fail(response.status(), args, "client");
          return false;
        }
        std::printf("%s\n", response->Dump().c_str());
        const Json* ok = response->Find("ok");
        if (ok != nullptr && ok->is_bool() && !ok->AsBool()) exit_code = 1;
        return true;
      }
    }
    auto response = client.RoundTrip(line);
    if (!response.ok()) {
      exit_code = Fail(response.status(), args, "client");
      return false;
    }
    std::printf("%s\n", response->c_str());
    auto parsed = Json::Parse(*response);
    if (parsed.ok()) {
      const Json* ok = parsed->Find("ok");
      if (ok != nullptr && ok->is_bool() && !ok->AsBool()) exit_code = 1;
    }
    return true;
  };

  if (args.Has("request")) {
    round_trip(args.Get("request", ""));
    return exit_code;
  }
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (!round_trip(line)) break;
  }
  return exit_code;
}

// --watch: run the query as an in-process streaming subscription. Each
// scheduler quantum pushes one NDJSON update line; the loop ends when the
// estimate converges, the budget runs out, or the sampler errors.
int RunWatch(const Args& args, const server::Request& request) {
  server::ServiceOptions options;
  server::QueryService service(options);

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool errored = false;
  auto sink = [&](const std::string& line, bool /*droppable*/) {
    std::lock_guard<std::mutex> lock(mu);
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    if (auto parsed = Json::Parse(line); parsed.ok()) {
      const Json* event = parsed->Find("event");
      if (event != nullptr && event->is_string()) {
        if (event->AsString() == "complete") done = true;
        if (event->AsString() == "error") done = errored = true;
      }
    }
    cv.notify_all();
  };

  server::Response ack = service.Subscribe(request, sink);
  if (!ack.status.ok()) return Fail(ack.status, args, "subscribe");
  std::printf("%s\n", server::SerializeResponse(ack).c_str());
  std::fflush(stdout);

  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  return errored ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  // serve mode forwards its flags verbatim to the daemon driver.
  if (argc >= 2 && (std::strcmp(argv[1], "serve") == 0 ||
                    std::strcmp(argv[1], "--serve") == 0)) {
    auto options = server::ParseDaemonArgs(argc - 2, argv + 2);
    if (!options.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   options.status().ToString().c_str());
      return 2;
    }
    return server::RunDaemon(*options);
  }

  auto args_or = ParseArgs(argc, argv);
  if (!args_or.ok()) return Usage();
  const Args& args = *args_or;

  if (args.mode == "client") return RunClient(args);

  if (!args.Has("program")) return Usage();
  if (args.mode == "parse") {
    auto program_text = ReadFile(args.Get("program", ""));
    if (!program_text.ok()) return Fail(program_text.status(), args);
    return RunParse(args, *program_text);
  }

  auto kind = server::RequestKindFromString(args.mode);
  if (!kind.ok() || !server::IsQueryKind(*kind)) return Usage();

  // run samples without an event; plan analyzes statically, so both its
  // data (catalog statistics) and event (validated echo) are optional.
  if (args.mode != "run" && args.mode != "plan" &&
      (!args.Has("data") || !args.Has("event"))) {
    return Usage();
  }

  if (args.watch && *kind != server::RequestKind::kApprox &&
      *kind != server::RequestKind::kMcmc &&
      *kind != server::RequestKind::kTrajectory) {
    return Fail(Status::InvalidArgument("--watch requires a sampled kind "
                                        "(approx, mcmc, or trajectory)"),
                args, args.mode);
  }

  // Build the request the daemon would parse off the wire, parse it the
  // same way, resolve it locally, and execute through the shared executor.
  // --watch streams the same query as a subscription.
  auto json = RequestFromFlags(args, args.watch ? "subscribe" : args.mode);
  if (!json.ok()) return Fail(json.status(), args, args.mode);
  if (args.watch) json->Set("target", args.mode);
  auto request_or = server::ParseRequest(*json);
  if (!request_or.ok()) return Fail(request_or.status(), args, args.mode);
  const server::Request& request = *request_or;
  if (args.watch) return RunWatch(args, request);

  auto program = datalog::ParseProgram(request.program_text);
  if (!program.ok()) return Fail(program.status(), args, args.mode);
  Instance edb;
  if (!request.data_text.empty()) {
    auto parsed = ParseInstanceText(request.data_text);
    if (!parsed.ok()) return Fail(parsed.status(), args, args.mode);
    edb = *std::move(parsed);
  }

  std::optional<CancellationToken> token;
  if (request.timeout_ms > 0) {
    token.emplace(std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(request.timeout_ms));
  }
  auto payload = server::ExecuteQuery(request, *program, edb,
                                      token.has_value() ? &*token : nullptr);
  if (!payload.ok()) return Fail(payload.status(), args, args.mode);

  if (args.json) {
    server::Response response;
    response.method = args.mode;
    response.result = *payload;
    std::printf("%s\n", server::SerializeResponse(response).c_str());
  } else {
    PrintHumanResult(request.kind, *payload);
  }
  return 0;
}
