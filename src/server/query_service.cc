#include "server/query_service.h"

#include <functional>
#include <future>
#include <utility>

#include "analysis/analyzer.h"
#include "relational/text_io.h"
#include "server/executor.h"
#include "util/fault_injection.h"
#include "util/metrics.h"

namespace pfql {
namespace server {

namespace {

int64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

uint64_t HashProgramText(const datalog::Program& program) {
  // Hash the canonical (parsed, re-serialized) form, so formatting and
  // comments do not fragment the cache.
  return std::hash<std::string>{}(program.ToString());
}

std::string MethodLabel(const Request& request) {
  return std::string("method=\"") + RequestKindToString(request.kind) + '"';
}

}  // namespace

QueryService::QueryService(const ServiceOptions& options)
    : options_(options),
      cache_(options.cache_entries),
      scheduler_(options.sched),
      pool_(options.workers, options.queue_capacity) {}

QueryService::~QueryService() = default;

Status QueryService::RegisterProgram(const std::string& name,
                                     std::string_view source) {
  if (name.empty()) return Status::InvalidArgument("empty program name");
  analysis::DiagnosticSink sink;
  std::optional<datalog::Program> program =
      datalog::ParseProgram(source, &sink);
  if (!program.has_value()) return sink.ToStatus();
  // Pre-lint: warnings are recorded (and visible in `list`), not fatal.
  analysis::AnalyzerOptions lint;
  lint.emit_notes = false;
  analysis::AnalyzeProgram(*program, lint, &sink);

  ProgramEntry entry;
  entry.hash = HashProgramText(*program);
  entry.lint_warnings = sink.Count(analysis::Severity::kWarning);
  entry.program =
      std::make_shared<const datalog::Program>(*std::move(program));
  UpdateRegistries([&](Registries* r) { r->programs[name] = std::move(entry); });
  return Status::OK();
}

Status QueryService::RegisterInstance(const std::string& name,
                                      Instance instance) {
  if (name.empty()) return Status::InvalidArgument("empty instance name");
  InstanceEntry entry;
  entry.hash = instance.Hash();  // pre-warm the structural hash
  entry.instance = std::make_shared<const Instance>(std::move(instance));
  UpdateRegistries(
      [&](Registries* r) { r->instances[name] = std::move(entry); });
  return Status::OK();
}

StatusOr<QueryService::ProgramEntry> QueryService::ResolveProgram(
    const Request& request) const {
  if (!request.program.empty()) {
    const auto snapshot = RegistrySnapshot();
    auto it = snapshot->programs.find(request.program);
    if (it == snapshot->programs.end()) {
      return Status::NotFound("no registered program named '" +
                              request.program + "'");
    }
    return it->second;
  }
  PFQL_ASSIGN_OR_RETURN(datalog::Program program,
                        datalog::ParseProgram(request.program_text));
  ProgramEntry entry;
  entry.hash = HashProgramText(program);
  entry.program =
      std::make_shared<const datalog::Program>(std::move(program));
  return entry;
}

StatusOr<QueryService::InstanceEntry> QueryService::ResolveInstance(
    const Request& request) const {
  if (!request.data.empty()) {
    const auto snapshot = RegistrySnapshot();
    auto it = snapshot->instances.find(request.data);
    if (it == snapshot->instances.end()) {
      return Status::NotFound("no registered instance named '" +
                              request.data + "'");
    }
    return it->second;
  }
  // Inline data, or (when absent) the empty instance — programs whose EDB
  // predicates all resolve empty are still meaningful.
  Instance instance;
  if (!request.data_text.empty()) {
    PFQL_ASSIGN_OR_RETURN(instance, ParseInstanceText(request.data_text));
  }
  InstanceEntry entry;
  entry.hash = instance.Hash();
  entry.instance = std::make_shared<const Instance>(std::move(instance));
  return entry;
}

Response QueryService::Call(const Request& request) {
  if (request.kind == RequestKind::kSubscribe) {
    // A subscription pushes lines outside the request/response pairing, so
    // it only makes sense on a connection that handed us a push channel.
    Response response = ErrorResponse(
        request.id, RequestKindToString(request.kind),
        Status::FailedPrecondition(
            "subscribe requires a streaming connection"));
    FinishRequest(request, &response, nullptr);
    return response;
  }
  if (request.kind == RequestKind::kUnsubscribe) return Unsubscribe(request);
  if (!IsQueryKind(request.kind)) {
    Response response = HandleControl(request);
    FinishRequest(request, &response, nullptr);
    return response;
  }

  // Every query-plane request gets a trace; the spans cost microseconds
  // against evaluations that take milliseconds, and the recorder keeps the
  // last N trees inspectable after the fact.
  trace::Trace trace(trace::NewTraceId());
  trace::ScopedContext outer({&trace, trace::kNoSpan});
  Response response;
  {
    trace::Span root("request");
    const trace::Context ctx = trace::Current();

    // Admission control: reject instead of queueing unboundedly. The
    // promise/future pair keeps Call() synchronous while the work runs on
    // a pool worker. The admission.wait span runs from submission until a
    // worker picks the task up — the queue-wait a client actually felt.
    const trace::SpanId admission =
        trace.StartSpan("admission.wait", ctx.span);
    const int64_t submitted_us = trace.ElapsedUs();
    std::promise<Response> promise;
    std::future<Response> future = promise.get_future();
    const bool admitted =
        pool_.TrySubmit([this, &request, &promise, &trace, ctx, admission,
                         submitted_us] {
          trace.EndSpan(admission);
          static metrics::Histogram* const wait_hist =
              metrics::MetricRegistry::Instance().GetHistogram(
                  "pfql_admission_wait_us",
                  metrics::DefaultLatencyBucketsUs());
          wait_hist->Observe(trace.ElapsedUs() - submitted_us);
          trace::ScopedContext sc(ctx);
          promise.set_value(ExecuteNow(request));
        });
    if (!admitted) {
      trace.EndSpan(admission);
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++rejected_;
      }
      static metrics::Counter* const rejected_counter =
          metrics::MetricRegistry::Instance().GetCounter(
              "pfql_admission_rejected_total");
      rejected_counter->Increment();
      response = ErrorResponse(
          request.id, RequestKindToString(request.kind),
          Status::Unavailable(
              "overloaded: admission queue full (" +
              std::to_string(pool_.queue_capacity()) +
              " waiting); retry later or raise --queue"));
    } else {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++accepted_;
      }
      response = future.get();
    }
  }  // the "request" root span ends here, covering admission → execution
  FinishRequest(request, &response, &trace);
  return response;
}

void QueryService::FinishRequest(const Request& request, Response* response,
                                 trace::Trace* trace) {
  auto& registry = metrics::MetricRegistry::Instance();
  const std::string method_label = MethodLabel(request);
  registry.GetCounter("pfql_requests_total", method_label)->Increment();
  if (!response->status.ok()) {
    registry.GetCounter("pfql_request_errors_total", method_label)
        ->Increment();
  }
  registry
      .GetHistogram("pfql_request_latency_us",
                    metrics::DefaultLatencyBucketsUs(), method_label)
      ->Observe(response->elapsed_us);

  Json tree;
  if (trace != nullptr) {
    tree = trace->ToJson();
    trace::TraceRecorder::Entry entry;
    entry.trace_id = trace->id();
    entry.method = RequestKindToString(request.kind);
    entry.dur_us = response->elapsed_us;
    entry.tree = tree;
    trace::TraceRecorder::Instance().Record(std::move(entry));
    if (request.trace) response->trace = std::move(tree);
  }

  if (options_.log_sink) {
    const Json* degraded = response->result.Find("degraded");
    const bool is_degraded =
        degraded != nullptr && degraded->is_bool() && degraded->AsBool();
    const int64_t timeout_ms = request.timeout_ms > 0
                                   ? request.timeout_ms
                                   : options_.default_timeout_ms;
    Json line = Json::Object();
    line.Set("trace_id", trace != nullptr ? trace->id() : std::string());
    line.Set("method", std::string(RequestKindToString(request.kind)));
    line.Set("ok", response->status.ok());
    if (!response->status.ok()) {
      line.Set("code", StatusCodeToString(response->status.code()));
      line.Set("error", response->status.message());
    }
    line.Set("elapsed_us", response->elapsed_us);
    line.Set("cached", response->cached);
    line.Set("degraded", is_degraded);
    // Deadline budget left when the response was built; -1 = no deadline.
    line.Set("deadline_left_ms",
             timeout_ms > 0 ? timeout_ms - response->elapsed_us / 1000
                            : int64_t{-1});
    options_.log_sink(line);
  }
}

void QueryService::RefreshGauges() const {
  auto& registry = metrics::MetricRegistry::Instance();
  registry.GetGauge("pfql_pool_queue_depth")
      ->Set(static_cast<int64_t>(pool_.QueueDepth()));
  registry.GetGauge("pfql_pool_active")
      ->Set(static_cast<int64_t>(pool_.ActiveCount()));
  registry.GetGauge("pfql_pool_workers")
      ->Set(static_cast<int64_t>(pool_.worker_count()));
  registry.GetGauge("pfql_cache_entries")
      ->Set(static_cast<int64_t>(cache_.GetStats().entries));
  registry.GetGauge("pfql_uptime_us")->Set(ElapsedUs(started_));
}

Response QueryService::CallLine(std::string_view line) {
  auto request = ParseRequestLine(line);
  if (!request.ok()) {
    return ErrorResponse(Json(), "", request.status());
  }
  return Call(*request);
}

Response QueryService::CallLineWithSink(std::string_view line,
                                        sched::UpdateSink sink) {
  auto request = ParseRequestLine(line);
  if (!request.ok()) {
    return ErrorResponse(Json(), "", request.status());
  }
  if (request->kind == RequestKind::kSubscribe) {
    return Subscribe(*request, std::move(sink));
  }
  return Call(*request);
}

Response QueryService::Subscribe(const Request& request,
                                 sched::UpdateSink sink) {
  const auto start = std::chrono::steady_clock::now();
  Response response;
  response.id = request.id;
  response.method = RequestKindToString(request.kind);

  auto finish = [&] {
    response.elapsed_us = ElapsedUs(start);
    RecordOutcome(request, response);
    FinishRequest(request, &response, nullptr);
    return response;
  };
  auto fail = [&](Status status) {
    response.status = std::move(status);
    return finish();
  };

  auto program = ResolveProgram(request);
  if (!program.ok()) return fail(program.status());
  auto instance = ResolveInstance(request);
  if (!instance.ok()) return fail(instance.status());
  auto target = request.TargetKind();
  if (!target.ok()) return fail(target.status());

  // Fusion identity: the result-cache key of the equivalent one-shot
  // request — two subscriptions share a sampler exactly when the cached
  // one-shot results would collide.
  Request inner = request;
  inner.kind = *target;
  const std::string fusion_key =
      std::to_string(program->hash) + '/' + std::to_string(instance->hash) +
      '/' + request.target + '/' + inner.CacheParams();

  auto spec =
      BuildSubscription(request, program->program, instance->instance);
  if (!spec.ok()) return fail(spec.status());
  spec->fusion_key = fusion_key;

  auto subscribed = scheduler_.Subscribe(*spec, std::move(sink));
  if (!subscribed.ok()) return fail(subscribed.status());

  Json payload = Json::Object();
  payload.Set("sub", subscribed->id);
  payload.Set("target", request.target);
  payload.Set("fused", subscribed->fused);
  response.result = std::move(payload);
  return finish();
}

Response QueryService::Unsubscribe(const Request& request) {
  const auto start = std::chrono::steady_clock::now();
  Response response;
  response.id = request.id;
  response.method = RequestKindToString(request.kind);
  if (scheduler_.Unsubscribe(request.sub)) {
    Json payload = Json::Object();
    payload.Set("sub", request.sub);
    response.result = std::move(payload);
  } else {
    response.status = Status::NotFound("no live subscription '" +
                                       request.sub + "'");
  }
  response.elapsed_us = ElapsedUs(start);
  RecordOutcome(request, response);
  FinishRequest(request, &response, nullptr);
  return response;
}

Response QueryService::ExecuteNow(const Request& request) {
  const auto start = std::chrono::steady_clock::now();
  trace::Span execute_span("execute");
  Response response;
  response.id = request.id;
  response.method = RequestKindToString(request.kind);

  auto fail = [&](Status status) {
    response.status = std::move(status);
    response.elapsed_us = ElapsedUs(start);
    RecordOutcome(request, response);
    return response;
  };

  auto program = [&] {
    trace::Span span("resolve.program");
    return ResolveProgram(request);
  }();
  if (!program.ok()) return fail(program.status());
  auto instance = [&] {
    trace::Span span("resolve.instance");
    return ResolveInstance(request);
  }();
  if (!instance.ok()) return fail(instance.status());

  CacheKey key{program->hash, instance->hash, request.kind,
               request.CacheParams()};
  if (!request.no_cache) {
    trace::Span span("cache.lookup");
    if (std::optional<Json> payload = cache_.Lookup(key)) {
      response.result = *std::move(payload);
      response.cached = true;
      response.elapsed_us = ElapsedUs(start);
      RecordOutcome(request, response);
      return response;
    }
  }

  // Deadline: per-request timeout, falling back to the service default.
  const int64_t timeout_ms = request.timeout_ms > 0
                                 ? request.timeout_ms
                                 : options_.default_timeout_ms;
  std::optional<CancellationToken> token;
  if (timeout_ms > 0) {
    token.emplace(std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms));
  }

  auto payload = [&] {
    const std::string span_name =
        std::string("eval.") + RequestKindToString(request.kind);
    trace::Span span(span_name);
    return ExecuteQuery(request, *program->program, *instance->instance,
                        token.has_value() ? &*token : nullptr);
  }();
  if (!payload.ok()) return fail(payload.status());
  // Degraded (partial) payloads are answers to *this* deadline, not to the
  // query — caching one would serve a truncated estimate to callers with
  // generous deadlines.
  const Json* degraded = payload->Find("degraded");
  const bool is_degraded =
      degraded != nullptr && degraded->is_bool() && degraded->AsBool();
  if (!request.no_cache && !is_degraded) {
    trace::Span span("cache.insert");
    cache_.Insert(key, *payload);
  }
  response.result = *std::move(payload);
  response.elapsed_us = ElapsedUs(start);
  RecordOutcome(request, response);
  return response;
}

void QueryService::RecordOutcome(const Request& request,
                                 const Response& response) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  KindCounters& counters =
      kind_counters_[RequestKindToString(request.kind)];
  ++counters.count;
  if (!response.status.ok()) ++counters.errors;
  if (response.cached) ++counters.cache_hits;
  const uint64_t us = static_cast<uint64_t>(response.elapsed_us);
  counters.total_us += us;
  if (us > counters.max_us) counters.max_us = us;
}

Response QueryService::HandleControl(const Request& request) {
  const auto start = std::chrono::steady_clock::now();
  Response response;
  response.id = request.id;
  response.method = RequestKindToString(request.kind);

  switch (request.kind) {
    case RequestKind::kPing: {
      Json payload = Json::Object();
      payload.Set("pong", true);
      response.result = std::move(payload);
      break;
    }
    case RequestKind::kStats:
      response.result = StatsJson();
      break;
    case RequestKind::kHealth:
      response.result = HealthJson();
      break;
    case RequestKind::kMetrics: {
      RefreshGauges();
      const metrics::MetricsSnapshot snapshot =
          metrics::MetricRegistry::Instance().Snapshot();
      Json payload = Json::Object();
      if (request.format == "prometheus") {
        payload.Set("content_type", "text/plain; version=0.0.4");
        payload.Set("text", snapshot.ToPrometheusText());
      } else {
        payload.Set("metrics", snapshot.ToJson());
        payload.Set("traces", trace::TraceRecorder::Instance().Summaries());
        payload.Set("faults",
                    fault::FaultRegistry::Instance().SnapshotJson());
      }
      response.result = std::move(payload);
      break;
    }
    case RequestKind::kList: {
      Json payload = Json::Object();
      Json programs = Json::Array();
      {
        const auto snapshot = RegistrySnapshot();
        for (const auto& [name, entry] : snapshot->programs) {
          Json item = Json::Object();
          item.Set("name", name);
          item.Set("hash", std::to_string(entry.hash));
          item.Set("lint_warnings", entry.lint_warnings);
          programs.Append(std::move(item));
        }
      }
      payload.Set("programs", std::move(programs));
      Json instances = Json::Array();
      {
        const auto snapshot = RegistrySnapshot();
        for (const auto& [name, entry] : snapshot->instances) {
          Json item = Json::Object();
          item.Set("name", name);
          item.Set("hash", std::to_string(entry.hash));
          item.Set("relations", entry.instance->relation_count());
          item.Set("tuples", entry.instance->TotalTuples());
          instances.Append(std::move(item));
        }
      }
      payload.Set("instances", std::move(instances));
      response.result = std::move(payload);
      break;
    }
    case RequestKind::kRegisterProgram: {
      Status status = RegisterProgram(request.name, request.program_text);
      if (!status.ok()) {
        response.status = std::move(status);
        break;
      }
      Json payload = Json::Object();
      payload.Set("name", request.name);
      {
        const auto snapshot = RegistrySnapshot();
        const ProgramEntry& entry = snapshot->programs.at(request.name);
        payload.Set("hash", std::to_string(entry.hash));
        payload.Set("lint_warnings", entry.lint_warnings);
      }
      response.result = std::move(payload);
      break;
    }
    case RequestKind::kRegisterInstance: {
      auto instance = ParseInstanceText(request.data_text);
      if (!instance.ok()) {
        response.status = instance.status();
        break;
      }
      const size_t relations = instance->relation_count();
      const size_t tuples = instance->TotalTuples();
      Status status =
          RegisterInstance(request.name, *std::move(instance));
      if (!status.ok()) {
        response.status = std::move(status);
        break;
      }
      Json payload = Json::Object();
      payload.Set("name", request.name);
      {
        const auto snapshot = RegistrySnapshot();
        payload.Set("hash",
                    std::to_string(snapshot->instances.at(request.name).hash));
      }
      payload.Set("relations", relations);
      payload.Set("tuples", tuples);
      response.result = std::move(payload);
      break;
    }
    default:
      response.status = Status::Internal("unroutable control request");
      break;
  }
  response.elapsed_us = ElapsedUs(start);
  return response;
}

Json QueryService::StatsJson() const {
  Json out = Json::Object();
  out.Set("uptime_us", ElapsedUs(started_));

  Json pool = Json::Object();
  pool.Set("workers", pool_.worker_count());
  pool.Set("queue_capacity", pool_.queue_capacity());
  pool.Set("queue_depth", pool_.QueueDepth());
  pool.Set("active", pool_.ActiveCount());
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    pool.Set("accepted", accepted_);
    pool.Set("rejected", rejected_);
  }
  out.Set("pool", std::move(pool));

  const ResultCache::Stats cache_stats = cache_.GetStats();
  Json cache = Json::Object();
  cache.Set("capacity", cache_stats.capacity);
  cache.Set("entries", cache_stats.entries);
  cache.Set("hits", cache_stats.hits);
  cache.Set("misses", cache_stats.misses);
  cache.Set("evictions", cache_stats.evictions);
  cache.Set("hit_rate", cache_stats.HitRate());
  cache.Set("entries_detail", cache_.Snapshot());
  out.Set("cache", std::move(cache));

  Json kinds = Json::Object();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    for (const auto& [name, counters] : kind_counters_) {
      Json item = Json::Object();
      item.Set("count", counters.count);
      item.Set("errors", counters.errors);
      item.Set("cache_hits", counters.cache_hits);
      item.Set("total_us", counters.total_us);
      item.Set("max_us", counters.max_us);
      item.Set("mean_us", counters.count == 0
                              ? 0.0
                              : static_cast<double>(counters.total_us) /
                                    static_cast<double>(counters.count));
      kinds.Set(name, std::move(item));
    }
  }
  out.Set("kinds", std::move(kinds));

  out.Set("scheduler", scheduler_.StatsJson());

  {
    const auto snapshot = RegistrySnapshot();
    out.Set("programs", snapshot->programs.size());
    out.Set("instances", snapshot->instances.size());
  }
  return out;
}

Json QueryService::HealthJson() const {
  Json out = Json::Object();
  const size_t queue_depth = pool_.QueueDepth();
  const size_t active = pool_.ActiveCount();
  const size_t workers = pool_.worker_count();
  const size_t capacity = pool_.queue_capacity();
  // "overloaded" = the next query-plane request would be shed;
  // "busy" = it would queue behind a full worker set; "ok" otherwise.
  const char* status = queue_depth >= capacity ? "overloaded"
                       : active >= workers     ? "busy"
                                               : "ok";
  out.Set("status", status);
  out.Set("workers", workers);
  out.Set("active", active);
  out.Set("queue_depth", queue_depth);
  out.Set("queue_capacity", capacity);
  out.Set("in_flight", active + queue_depth);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out.Set("accepted", accepted_);
    out.Set("rejected", rejected_);
  }
  out.Set("uptime_us", ElapsedUs(started_));
  out.Set("cache_entries", cache_.GetStats().entries);
  // Streaming-plane load (live subscriptions, fused groups, queued
  // quanta): the router's probe loop folds these into its per-worker load
  // score, so a worker saturated with subscriptions stops attracting
  // non-keyed control traffic even while its query pool is idle.
  out.Set("scheduler", scheduler_.HealthJson());
  out.Set("faults", fault::FaultRegistry::Instance().SnapshotJson());
  return out;
}

}  // namespace server
}  // namespace pfql
