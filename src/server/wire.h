// Wire protocol of the pfql query service: newline-delimited JSON request
// and response objects. One request per line, one response line per
// request, in order. The same structs and serializers back the pfqld TCP
// daemon, the in-process QueryService API, and `pfql --json` CLI output,
// so every surface speaks an identical schema (documented in
// docs/SERVER.md).
#ifndef PFQL_SERVER_WIRE_H_
#define PFQL_SERVER_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/json.h"
#include "util/status.h"

namespace pfql {
namespace server {

/// Everything a client can ask for. Query kinds run on the worker pool and
/// are subject to admission control; control kinds are served inline.
enum class RequestKind {
  // Control plane.
  kPing,
  kStats,
  kList,
  kHealth,  ///< overload / queue-depth / fault snapshot (load balancers)
  kMetrics, ///< metric registry snapshot (JSON or Prometheus exposition)
  kRegisterProgram,
  kRegisterInstance,
  // Query plane (the paper's algorithm suite).
  kRun,        ///< one sampled fixpoint computation (Sec 3.3 engine)
  kExact,      ///< exact inflationary probability (Prop 4.4)
  kApprox,     ///< Monte Carlo inflationary estimate (Thm 4.3)
  kForever,    ///< exact noninflationary / long-run probability (Thm 5.5)
  kMcmc,       ///< MCMC noninflationary estimate (Thm 5.6)
  kPartition,  ///< partitioned exact forever evaluation (Sec 5.1)
  kTrajectory, ///< Def 3.2 time-average estimate (assumption-free sampler)
  kPlan,       ///< cost & chain-structure analysis only; executes nothing
  // Streaming plane (src/sched/): long-lived subscriptions that push
  // incremental update lines outside the request/response pairing.
  kSubscribe,   ///< open a streaming subscription on a sampled target kind
  kUnsubscribe, ///< detach a subscription by id
};
/// The number of RequestKind values; kUnsubscribe must stay the last.
inline constexpr size_t kRequestKindCount =
    static_cast<size_t>(RequestKind::kUnsubscribe) + 1;

const char* RequestKindToString(RequestKind kind);
StatusOr<RequestKind> RequestKindFromString(std::string_view name);
/// True for the kinds executed on the worker pool (kRun..kPlan).
bool IsQueryKind(RequestKind kind);
/// True when retrying the request cannot change server state — the gate the
/// client-side retry loop checks before resending after a transport error.
/// Every current kind qualifies: queries are pure, registrations replace by
/// name (last write wins), control reads are stateless.
bool IsIdempotent(RequestKind kind);

/// The largest `threads` a request may ask for. One evaluation starts up to
/// that many std::threads (sampler shards, BFS wave workers, mcmc chains),
/// and a thread that fails to start ends the process, so the wire bounds
/// the count; 64 is ample for the core counts pfqld serves on.
inline constexpr size_t kMaxRequestThreads = 64;

/// A parsed request. Field applicability by kind is documented in
/// docs/SERVER.md; ParseRequest validates the combination.
struct Request {
  /// Echoed verbatim into the response (any JSON value; null if absent).
  Json id;
  RequestKind kind = RequestKind::kPing;

  /// Program: a registered name xor inline source text.
  std::string program;
  std::string program_text;
  /// Input instance: a registered name xor inline text-format data.
  std::string data;
  std::string data_text;
  /// Query event, as a ground atom such as "cur(3)".
  std::string event;
  /// Registration name (register_program / register_instance).
  std::string name;

  // Evaluation parameters (defaults mirror the pfql CLI).
  double epsilon = 0.05;
  double delta = 0.05;
  uint64_t seed = 42;
  size_t max_states = 1 << 14;
  size_t max_nodes = 1 << 22;
  /// MCMC burn-in; nullopt = measure the TV mixing time ("auto").
  std::optional<size_t> burn_in;
  /// Trajectory sampler shape.
  size_t steps = 1000;
  size_t runs = 16;
  /// Worker threads inside one evaluation (part of the cache key: the
  /// sample-to-stream assignment of sampled kinds depends on it).
  size_t threads = 1;
  /// Per-request deadline in milliseconds; 0 = none (service default).
  int64_t timeout_ms = 0;
  /// Bypass the result cache for this request.
  bool no_cache = false;
  /// Sampled kinds: overrides the Hoeffding sample budget when > 0.
  size_t max_samples = 0;
  /// Sampled kinds: return a degraded partial estimate instead of an error
  /// when the deadline fires mid-sampling. On by default at the wire layer
  /// (a server client prefers a partial answer over a timeout).
  bool allow_partial = true;
  /// mcmc/trajectory: evaluation tier — "auto" (compiled when the chain
  /// fits compile_max_states, else interpreted), "interpreted", or
  /// "compiled" (error when the chain exceeds the budget). The server
  /// defaults to "auto": wire clients get the compiled fast path whenever
  /// the chain is enumerable.
  std::string backend = "auto";
  /// mcmc/trajectory: state budget of the compiled tier.
  size_t compile_max_states = 1 << 12;
  /// "exact" only: "approx" re-dispatches to Thm 4.3 sampling with the
  /// remaining deadline when exact evaluation exhausts its budget. Empty =
  /// no fallback.
  std::string fallback;
  /// Attach the request's span tree to the response ("trace" object).
  /// Not part of the cache key: tracing never changes the result value.
  bool trace = false;
  /// "metrics" only: "json" (default) or "prometheus" exposition text.
  std::string format;
  /// "subscribe" only: the sampled kind to stream ("approx", "mcmc", or
  /// "trajectory").
  std::string target;
  /// "unsubscribe" only: the subscription id from the subscribe ack.
  std::string sub;

  /// Canonical parameter fingerprint for the result cache: every field
  /// that affects the result value for this kind (event, budgets, seed for
  /// sampled kinds, ...) — and nothing that does not (deadline, id).
  std::string CacheParams() const;

  /// "subscribe" only: the target kind parsed from `target`.
  StatusOr<RequestKind> TargetKind() const;
};

/// Parses one request object; TypeError/InvalidArgument on a malformed or
/// inconsistent request (unknown method, missing event, ...).
StatusOr<Request> ParseRequest(const Json& json);
/// Parses one NDJSON line.
StatusOr<Request> ParseRequestLine(std::string_view line);

/// A response: either an error status or a result payload object.
struct Response {
  Json id;
  /// Echoed request method name (empty when the request never parsed).
  std::string method;
  Status status;
  /// Result object; meaningful iff status.ok().
  Json result;
  bool cached = false;
  int64_t elapsed_us = 0;
  /// Span tree (Trace::ToJson()) when the request asked for trace:true;
  /// null otherwise (and omitted from the serialized response).
  Json trace;
};

/// Builds the response object:
///   {"id":..., "ok":true,  "method":..., "cached":..., "elapsed_us":...,
///    "result":{...}}
///   {"id":..., "ok":false, "method":..., "error":{"code":..., "message":...}}
Json ResponseToJson(const Response& response);
/// One-line serialization (no trailing newline).
std::string SerializeResponse(const Response& response);

/// Error-response convenience.
Response ErrorResponse(Json id, std::string method, Status status);

}  // namespace server
}  // namespace pfql

#endif  // PFQL_SERVER_WIRE_H_
