#include "server/wire.h"

#include "relational/value.h"

namespace pfql {
namespace server {

const char* RequestKindToString(RequestKind kind) {
  switch (kind) {
    case RequestKind::kPing:
      return "ping";
    case RequestKind::kStats:
      return "stats";
    case RequestKind::kList:
      return "list";
    case RequestKind::kHealth:
      return "health";
    case RequestKind::kMetrics:
      return "metrics";
    case RequestKind::kRegisterProgram:
      return "register_program";
    case RequestKind::kRegisterInstance:
      return "register_instance";
    case RequestKind::kRun:
      return "run";
    case RequestKind::kExact:
      return "exact";
    case RequestKind::kApprox:
      return "approx";
    case RequestKind::kForever:
      return "forever";
    case RequestKind::kMcmc:
      return "mcmc";
    case RequestKind::kPartition:
      return "partition";
    case RequestKind::kTrajectory:
      return "trajectory";
    case RequestKind::kPlan:
      return "plan";
    case RequestKind::kSubscribe:
      return "subscribe";
    case RequestKind::kUnsubscribe:
      return "unsubscribe";
  }
  return "unknown";
}

StatusOr<RequestKind> RequestKindFromString(std::string_view name) {
  static constexpr RequestKind kAll[] = {
      RequestKind::kPing,    RequestKind::kStats,
      RequestKind::kList,    RequestKind::kHealth,
      RequestKind::kMetrics,
      RequestKind::kRegisterProgram,
      RequestKind::kRegisterInstance,
      RequestKind::kRun,     RequestKind::kExact,
      RequestKind::kApprox,  RequestKind::kForever,
      RequestKind::kMcmc,    RequestKind::kPartition,
      RequestKind::kTrajectory,
      RequestKind::kPlan,   RequestKind::kSubscribe,
      RequestKind::kUnsubscribe};
  for (RequestKind kind : kAll) {
    if (name == RequestKindToString(kind)) return kind;
  }
  return Status::InvalidArgument("unknown method '" + std::string(name) +
                                 "'");
}

bool IsQueryKind(RequestKind kind) {
  switch (kind) {
    case RequestKind::kRun:
    case RequestKind::kExact:
    case RequestKind::kApprox:
    case RequestKind::kForever:
    case RequestKind::kMcmc:
    case RequestKind::kPartition:
    case RequestKind::kTrajectory:
    case RequestKind::kPlan:
      return true;
    default:
      return false;
  }
}

bool IsIdempotent(RequestKind kind) {
  // Queries are pure, register_* replaces by name (last write wins), and
  // control reads carry no state. subscribe is the exception: resending it
  // after a transport error would open a second live subscription, so the
  // client retry gate must not replay it. (unsubscribe is safe — a replay
  // finds the id already gone and reports NotFound.)
  return kind != RequestKind::kSubscribe;
}

namespace {

bool NeedsEvent(RequestKind kind) {
  // plan analyzes the program as a whole; an event is optional context.
  return IsQueryKind(kind) && kind != RequestKind::kRun &&
         kind != RequestKind::kPlan;
}

}  // namespace

std::string Request::CacheParams() const {
  // The fingerprint is part of the cache key; every value-affecting knob
  // for this kind must appear, and nothing else (notably not timeout_ms).
  std::string out = "event=" + event + ";threads=" + std::to_string(threads);
  switch (kind) {
    case RequestKind::kRun:
      out += ";seed=" + std::to_string(seed);
      break;
    case RequestKind::kExact:
      out += ";max_nodes=" + std::to_string(max_nodes);
      break;
    case RequestKind::kApprox:
      out += ";eps=" + Value(epsilon).ToString() +
             ";delta=" + Value(delta).ToString() +
             ";seed=" + std::to_string(seed) +
             ";max_samples=" + std::to_string(max_samples);
      break;
    case RequestKind::kForever:
    case RequestKind::kPartition:
      out += ";max_states=" + std::to_string(max_states);
      break;
    case RequestKind::kMcmc:
      // backend + compile_max_states are value-affecting: the compiled
      // tier quantizes probabilities, so its estimates must never alias a
      // cached interpreted payload (or a differently-budgeted compiled
      // one) under the same key.
      out += ";eps=" + Value(epsilon).ToString() +
             ";delta=" + Value(delta).ToString() +
             ";seed=" + std::to_string(seed) + ";burn_in=" +
             (burn_in.has_value() ? std::to_string(*burn_in) : "auto") +
             ";max_states=" + std::to_string(max_states) +
             ";max_samples=" + std::to_string(max_samples) +
             ";backend=" + backend +
             ";compile_max_states=" + std::to_string(compile_max_states);
      break;
    case RequestKind::kTrajectory:
      out += ";steps=" + std::to_string(steps) +
             ";runs=" + std::to_string(runs) +
             ";seed=" + std::to_string(seed) +
             ";backend=" + backend +
             ";compile_max_states=" + std::to_string(compile_max_states);
      break;
    case RequestKind::kPlan:
      // Deterministic analysis: the bounds depend on the budgets being
      // judged against, not on seeds or sampling parameters.
      out += ";max_states=" + std::to_string(max_states) +
             ";backend=" + backend +
             ";compile_max_states=" + std::to_string(compile_max_states);
      break;
    default:
      break;
  }
  return out;
}

StatusOr<RequestKind> Request::TargetKind() const {
  PFQL_ASSIGN_OR_RETURN(RequestKind inner, RequestKindFromString(target));
  if (inner != RequestKind::kApprox && inner != RequestKind::kMcmc &&
      inner != RequestKind::kTrajectory) {
    return Status::InvalidArgument(
        "field 'target' must be a sampled kind "
        "(\"approx\", \"mcmc\", or \"trajectory\")");
  }
  return inner;
}

StatusOr<Request> ParseRequest(const Json& json) {
  if (!json.is_object()) {
    return Status::TypeError("request must be a JSON object");
  }
  Request request;
  if (const Json* id = json.Find("id")) request.id = *id;

  PFQL_ASSIGN_OR_RETURN(std::string method, json.GetString("method", ""));
  if (method.empty()) {
    return Status::InvalidArgument("request is missing 'method'");
  }
  PFQL_ASSIGN_OR_RETURN(request.kind, RequestKindFromString(method));

  PFQL_ASSIGN_OR_RETURN(request.program, json.GetString("program", ""));
  PFQL_ASSIGN_OR_RETURN(request.program_text,
                        json.GetString("program_text", ""));
  PFQL_ASSIGN_OR_RETURN(request.data, json.GetString("data", ""));
  PFQL_ASSIGN_OR_RETURN(request.data_text, json.GetString("data_text", ""));
  PFQL_ASSIGN_OR_RETURN(request.event, json.GetString("event", ""));
  PFQL_ASSIGN_OR_RETURN(request.name, json.GetString("name", ""));

  PFQL_ASSIGN_OR_RETURN(request.epsilon, json.GetDouble("epsilon", 0.05));
  PFQL_ASSIGN_OR_RETURN(request.delta, json.GetDouble("delta", 0.05));
  PFQL_ASSIGN_OR_RETURN(int64_t seed, json.GetInt("seed", 42));
  request.seed = static_cast<uint64_t>(seed);

  auto positive_size = [&json](std::string_view key, size_t fallback,
                               size_t* out) -> Status {
    PFQL_ASSIGN_OR_RETURN(
        int64_t v, json.GetInt(key, static_cast<int64_t>(fallback)));
    if (v <= 0) {
      return Status::InvalidArgument("field '" + std::string(key) +
                                     "' must be positive");
    }
    *out = static_cast<size_t>(v);
    return Status::OK();
  };
  PFQL_RETURN_NOT_OK(
      positive_size("max_states", request.max_states, &request.max_states));
  PFQL_RETURN_NOT_OK(
      positive_size("max_nodes", request.max_nodes, &request.max_nodes));
  PFQL_RETURN_NOT_OK(positive_size("steps", request.steps, &request.steps));
  PFQL_RETURN_NOT_OK(positive_size("runs", request.runs, &request.runs));
  PFQL_RETURN_NOT_OK(
      positive_size("threads", request.threads, &request.threads));
  if (request.threads > kMaxRequestThreads) {
    return Status::InvalidArgument("field 'threads' must be at most " +
                                   std::to_string(kMaxRequestThreads));
  }

  if (const Json* burn = json.Find("burn_in")) {
    if (burn->is_string() && burn->AsString() == "auto") {
      request.burn_in = std::nullopt;
    } else if (burn->is_number() && burn->AsInt() >= 0) {
      request.burn_in = static_cast<size_t>(burn->AsInt());
    } else {
      return Status::InvalidArgument(
          "field 'burn_in' must be a non-negative number or \"auto\"");
    }
  }

  PFQL_ASSIGN_OR_RETURN(request.timeout_ms, json.GetInt("timeout_ms", 0));
  if (request.timeout_ms < 0) {
    return Status::InvalidArgument("field 'timeout_ms' must be >= 0");
  }
  PFQL_ASSIGN_OR_RETURN(request.no_cache, json.GetBool("no_cache", false));

  PFQL_ASSIGN_OR_RETURN(int64_t max_samples, json.GetInt("max_samples", 0));
  if (max_samples < 0) {
    return Status::InvalidArgument("field 'max_samples' must be >= 0");
  }
  request.max_samples = static_cast<size_t>(max_samples);
  PFQL_ASSIGN_OR_RETURN(request.allow_partial,
                        json.GetBool("allow_partial", true));
  PFQL_ASSIGN_OR_RETURN(request.trace, json.GetBool("trace", false));
  PFQL_ASSIGN_OR_RETURN(request.format, json.GetString("format", ""));
  if (!request.format.empty()) {
    if (request.kind != RequestKind::kMetrics) {
      return Status::InvalidArgument(
          "'format' only applies to method 'metrics'");
    }
    if (request.format != "json" && request.format != "prometheus") {
      return Status::InvalidArgument(
          "field 'format' must be \"json\" or \"prometheus\"");
    }
  }
  PFQL_ASSIGN_OR_RETURN(request.backend, json.GetString("backend", "auto"));
  if (request.backend != "auto" && request.backend != "interpreted" &&
      request.backend != "compiled") {
    return Status::InvalidArgument(
        "field 'backend' must be \"auto\", \"interpreted\", or \"compiled\"");
  }
  if (request.backend != "auto" && request.kind != RequestKind::kMcmc &&
      request.kind != RequestKind::kTrajectory &&
      request.kind != RequestKind::kPlan &&
      request.kind != RequestKind::kSubscribe) {
    return Status::InvalidArgument(
        "'backend' only applies to methods 'mcmc', 'trajectory', 'plan', "
        "and 'subscribe'");
  }
  PFQL_RETURN_NOT_OK(positive_size("compile_max_states",
                                   request.compile_max_states,
                                   &request.compile_max_states));
  PFQL_ASSIGN_OR_RETURN(request.fallback, json.GetString("fallback", ""));
  if (!request.fallback.empty()) {
    if (request.fallback != "approx") {
      return Status::InvalidArgument(
          "field 'fallback' must be \"approx\" (or omitted)");
    }
    if (request.kind != RequestKind::kExact) {
      return Status::InvalidArgument(
          "'fallback' only applies to method 'exact'");
    }
  }

  // Kind-specific shape checks, so mistakes fail fast at the front door
  // rather than deep inside an evaluator.
  if (IsQueryKind(request.kind)) {
    if (request.program.empty() == request.program_text.empty()) {
      return Status::InvalidArgument(
          "query requests need exactly one of 'program' (registered name) "
          "or 'program_text' (inline source)");
    }
    if (!request.data.empty() && !request.data_text.empty()) {
      return Status::InvalidArgument(
          "'data' and 'data_text' are mutually exclusive");
    }
    if (NeedsEvent(request.kind) && request.event.empty()) {
      return Status::InvalidArgument(
          std::string("method '") + RequestKindToString(request.kind) +
          "' needs an 'event' ground atom");
    }
  }
  if (request.kind == RequestKind::kRegisterProgram) {
    if (request.name.empty() || request.program_text.empty()) {
      return Status::InvalidArgument(
          "register_program needs 'name' and 'program_text'");
    }
  }
  if (request.kind == RequestKind::kRegisterInstance) {
    if (request.name.empty() || request.data_text.empty()) {
      return Status::InvalidArgument(
          "register_instance needs 'name' and 'data_text'");
    }
  }
  PFQL_ASSIGN_OR_RETURN(request.target, json.GetString("target", ""));
  PFQL_ASSIGN_OR_RETURN(request.sub, json.GetString("sub", ""));
  if (!request.target.empty() && request.kind != RequestKind::kSubscribe) {
    return Status::InvalidArgument(
        "'target' only applies to method 'subscribe'");
  }
  if (request.kind == RequestKind::kSubscribe) {
    if (request.target.empty()) {
      return Status::InvalidArgument(
          "subscribe needs a 'target' sampled kind");
    }
    PFQL_RETURN_NOT_OK(request.TargetKind().status());
    // Same shape rules as the target query kind: the subscription resolves
    // a program, an instance, and an event before any sampling starts.
    if (request.program.empty() == request.program_text.empty()) {
      return Status::InvalidArgument(
          "subscribe needs exactly one of 'program' (registered name) or "
          "'program_text' (inline source)");
    }
    if (!request.data.empty() && !request.data_text.empty()) {
      return Status::InvalidArgument(
          "'data' and 'data_text' are mutually exclusive");
    }
    if (request.event.empty()) {
      return Status::InvalidArgument(
          "subscribe needs an 'event' ground atom");
    }
  }
  if (request.kind == RequestKind::kUnsubscribe && request.sub.empty()) {
    return Status::InvalidArgument(
        "unsubscribe needs a 'sub' subscription id");
  }
  return request;
}

StatusOr<Request> ParseRequestLine(std::string_view line) {
  PFQL_ASSIGN_OR_RETURN(Json json, Json::Parse(line));
  return ParseRequest(json);
}

Json ResponseToJson(const Response& response) {
  Json out = Json::Object();
  out.Set("id", response.id);
  out.Set("ok", response.status.ok());
  if (!response.method.empty()) out.Set("method", response.method);
  if (response.status.ok()) {
    out.Set("cached", response.cached);
    out.Set("elapsed_us", response.elapsed_us);
    out.Set("result", response.result);
    if (!response.trace.is_null()) out.Set("trace", response.trace);
  } else {
    Json error = Json::Object();
    error.Set("code", StatusCodeToString(response.status.code()));
    error.Set("message", response.status.message());
    out.Set("error", std::move(error));
  }
  return out;
}

std::string SerializeResponse(const Response& response) {
  return ResponseToJson(response).Dump();
}

Response ErrorResponse(Json id, std::string method, Status status) {
  Response response;
  response.id = std::move(id);
  response.method = std::move(method);
  response.status = std::move(status);
  return response;
}

}  // namespace server
}  // namespace pfql
