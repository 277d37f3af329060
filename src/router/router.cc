#include "router/router.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <system_error>

#include "router/hash_ring.h"
#include "server/client.h"
#include "server/line_writer.h"
#include "server/wire.h"
#include "util/fault_injection.h"
#include "util/trace.h"

namespace pfql {
namespace router {

namespace {

using server::ErrorResponse;
using server::Response;
using server::SerializeResponse;

std::string WorkerLabel(int index) {
  return "worker=\"" + std::to_string(index) + '"';
}

/// Copy of a request object with its "id" member dropped (the replay log
/// stores id-less requests so replays mint their own ids).
Json StripId(const Json& request) {
  Json out = Json::Object();
  for (const auto& [key, value] : request.members()) {
    if (key != "id") out.Set(key, value);
  }
  return out;
}

}  // namespace

/// One TCP connection from this client connection to one worker seat:
/// requests multiplex onto it in order, so the response stream is a FIFO
/// interleaved with subscription pushes. The reader thread is the single
/// owner of `pending` teardown — once it marks the upstream dead, the
/// connection thread stops enqueueing and answers for itself.
struct Router::Upstream {
  int worker = -1;
  uint64_t epoch = 0;
  int fd = -1;
  std::thread reader;

  struct Pending {
    Json id;
    std::string method;
  };
  std::mutex mu;
  std::deque<Pending> pending;
  bool dead = false;  // under mu; set by the reader after failover

  void Shut() const {
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
};

/// Per-client-connection proxy state, shared with upstream reader threads.
struct Router::ConnState {
  std::shared_ptr<server::LineWriter> writer;

  std::mutex mu;
  /// sub id -> owning worker pin; lives from subscribe ack (or first
  /// pre-ack push) to the terminal complete/error push.
  std::map<std::string, SubPin> pins;
  std::map<int, std::shared_ptr<Upstream>> upstreams;
  /// Replaced upstreams (stale epoch); joined at connection teardown.
  std::vector<std::shared_ptr<Upstream>> retired;
};

Router::Router(const RouterOptions& options)
    : options_(options),
      listener_([this](int fd) { ServeConnection(fd); },
                metrics::MetricRegistry::Instance().GetCounter(
                    "pfql_router_connections_total")) {
  auto& registry = metrics::MetricRegistry::Instance();
  updates_dropped_ = registry.GetCounter("pfql_router_updates_dropped_total");
  broadcasts_total_ = registry.GetCounter("pfql_router_broadcasts_total");
  no_worker_total_ = registry.GetCounter("pfql_router_no_worker_total");
  probe_latency_ = registry.GetHistogram(
      "pfql_router_probe_latency_us", metrics::DefaultLatencyBucketsUs());
  seats_.reserve(static_cast<size_t>(std::max(options_.num_workers, 0)));
  for (int i = 0; i < options_.num_workers; ++i) {
    auto seat = std::make_unique<Seat>();
    const std::string label = WorkerLabel(i);
    seat->requests =
        registry.GetCounter("pfql_router_requests_total", label);
    seat->failovers =
        registry.GetCounter("pfql_router_failovers_total", label);
    seat->orphaned_subs =
        registry.GetCounter("pfql_router_orphaned_subs_total", label);
    seat->restarts_total =
        registry.GetCounter("pfql_router_restarts_total", label);
    seat->probe_failures =
        registry.GetCounter("pfql_router_probe_failures_total", label);
    seat->breaker_opens =
        registry.GetCounter("pfql_router_breaker_open_total", label);
    seat->replay_failures =
        registry.GetCounter("pfql_router_replay_failures_total", label);
    seat->up_gauge = registry.GetGauge("pfql_router_worker_up", label);
    seat->slots_gauge = registry.GetGauge("pfql_router_slots_owned", label);
    RetryPolicy policy = options_.restart_backoff;
    policy.jitter_seed ^= Mix64(static_cast<uint64_t>(i) + 1);
    seat->backoff = std::make_unique<Backoff>(policy);
    seats_.push_back(std::move(seat));
  }
}

Router::~Router() { Stop(); }

Status Router::SpawnSeat(int index) {
  Seat& seat = *seats_[static_cast<size_t>(index)];
  WorkerSpawnOptions spawn;
  spawn.binary = options_.pfqld_binary;
  spawn.extra_args = options_.worker_args;
  spawn.spawn_timeout_ms = options_.spawn_timeout_ms;
  auto process = WorkerProcess::Spawn(spawn);
  if (!process.ok()) return process.status();
  seat.process = std::move(*process);
  seat.port.store(seat.process->port(), std::memory_order_relaxed);
  seat.pid.store(seat.process->pid(), std::memory_order_relaxed);
  seat.epoch.fetch_add(1, std::memory_order_relaxed);
  seat.consecutive_probe_failures = 0;
  seat.probe_load.store(0, std::memory_order_relaxed);
  seat.state.store(Seat::kUp, std::memory_order_release);
  seat.up_gauge->Set(1);
  return Status::OK();
}

Status Router::Start() {
  if (supervisor_thread_.joinable()) {
    return Status::FailedPrecondition("router already started");
  }
  if (options_.num_workers < 1) {
    return Status::InvalidArgument("--workers must be >= 1");
  }
  if (options_.pfqld_binary.empty()) {
    return Status::InvalidArgument("pfqld binary path is empty");
  }
  stopping_.store(false);

  for (int i = 0; i < options_.num_workers; ++i) {
    Status status = SpawnSeat(i);
    if (!status.ok()) {
      for (auto& seat : seats_) seat->process.reset();
      return Status(status.code(), "spawn worker " + std::to_string(i) +
                                       ": " + status.message());
    }
  }
  RebuildSlotTable();
  // The fleet is up before the port is: a client never reaches a router
  // with no workers.
  if (Status status = listener_.Start(options_.port); !status.ok()) {
    for (auto& seat : seats_) seat->process.reset();
    return status;
  }
  supervisor_thread_ = std::thread([this] { SupervisorLoop(); });
  return Status::OK();
}

void Router::Stop() {
  const bool already_stopping = stopping_.exchange(true);
  supervisor_cv_.notify_all();
  listener_.Stop();
  if (supervisor_thread_.joinable()) supervisor_thread_.join();
  if (already_stopping) return;

  // Fleet shutdown: clean SIGTERM first, escalate past the deadline.
  for (auto& seat : seats_) {
    if (seat->process != nullptr) seat->process->Terminate();
  }
  for (auto& seat : seats_) {
    if (seat->process == nullptr) continue;
    if (!seat->process->WaitExit(options_.term_timeout_ms)) {
      seat->process->Kill();
      seat->process->WaitExit(options_.term_timeout_ms);
    }
    seat->process.reset();
    seat->state.store(Seat::kDown, std::memory_order_release);
    seat->up_gauge->Set(0);
  }
}

// ---------------------------------------------------------------------------
// Supervision.

void Router::RebuildSlotTable() {
  const std::vector<int> live = LiveWorkers();
  std::vector<int> table = BuildSlotTable(live);
  std::vector<int64_t> owned(seats_.size(), 0);
  for (const int owner : table) {
    if (owner >= 0) ++owned[static_cast<size_t>(owner)];
  }
  for (size_t i = 0; i < seats_.size(); ++i) {
    seats_[i]->slots_gauge->Set(owned[i]);
  }
  std::lock_guard<std::mutex> lock(table_mu_);
  slot_table_ = std::move(table);
}

std::vector<int> Router::LiveWorkers() const {
  std::vector<int> live;
  for (size_t i = 0; i < seats_.size(); ++i) {
    if (seats_[i]->state.load(std::memory_order_acquire) == Seat::kUp) {
      live.push_back(static_cast<int>(i));
    }
  }
  return live;
}

void Router::SupervisorLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(supervisor_mu_);
      supervisor_cv_.wait_for(
          lock, std::chrono::milliseconds(options_.probe_interval_ms),
          [this] { return stopping_.load(); });
    }
    if (stopping_.load()) return;
    for (size_t i = 0; i < seats_.size(); ++i) {
      if (stopping_.load()) return;
      ProbeSeat(static_cast<int>(i));
    }
  }
}

void Router::ProbeSeat(int index) {
  Seat& seat = *seats_[static_cast<size_t>(index)];
  const auto now = std::chrono::steady_clock::now();
  switch (seat.state.load(std::memory_order_acquire)) {
    case Seat::kUp:
      break;  // probed below
    case Seat::kDraining:
      return;  // mid-transition inside DrainAndRestartSeat
    case Seat::kBroken:
      if (now >= seat.breaker_until) {
        // Cooldown over: forget the crash history and try again.
        seat.restart_times.clear();
        seat.next_restart_at = now;
        seat.state.store(Seat::kDown, std::memory_order_release);
        TryRespawnSeat(index);
      }
      return;
    case Seat::kDown:
      if (now >= seat.next_restart_at) TryRespawnSeat(index);
      return;
    default:
      return;
  }

  // A dead process needs no probe to be diagnosed.
  if (seat.process == nullptr || !seat.process->Alive()) {
    HandleSeatDeath(index, "crashed");
    return;
  }

  // Liveness probe: fresh connection + `health` round trip, traced so a
  // slow or failing worker leaves a span tree in the recorder.
  trace::Trace probe_trace(trace::NewTraceId());
  const auto t0 = std::chrono::steady_clock::now();
  Status probe_status = Status::OK();
  int64_t load = 0;
  if (fault::InjectFault(fault::points::kRouterProbe)) {
    probe_status = fault::InjectedError(fault::points::kRouterProbe);
  } else {
    trace::SpanId root = probe_trace.StartSpan("router.probe", trace::kNoSpan);
    server::ClientOptions copts;
    copts.retry.attempt_timeout =
        std::chrono::milliseconds(options_.probe_timeout_ms);
    server::Client client(copts);
    trace::SpanId connect = probe_trace.StartSpan("connect", root);
    probe_status = client.Connect(seat.port.load(std::memory_order_relaxed));
    probe_trace.EndSpan(connect);
    if (probe_status.ok()) {
      trace::SpanId call = probe_trace.StartSpan("health", root);
      Json request = Json::Object();
      request.Set("method", "health");
      auto reply = client.Call(request);
      probe_trace.EndSpan(call);
      if (!reply.ok()) {
        probe_status = reply.status();
      } else if (const Json* result = reply->Find("result");
                 result != nullptr) {
        // Load score: requests running + queued, plus subscription quanta
        // waiting for a turn — the denominator for least-loaded routing.
        auto field = [&result](const char* name) -> int64_t {
          const Json* v = result->Find(name);
          return (v != nullptr && v->is_number()) ? v->AsInt() : 0;
        };
        load = field("active") + field("queue_depth");
        if (const Json* sched = result->Find("scheduler");
            sched != nullptr) {
          const Json* queued = sched->Find("queued_quanta");
          if (queued != nullptr && queued->is_number()) {
            load += queued->AsInt();
          }
        }
      }
    }
    probe_trace.EndSpan(root);
  }
  const int64_t elapsed_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  probe_latency_->Observe(elapsed_us);
  if (!probe_status.ok() ||
      elapsed_us > 1000LL * options_.probe_timeout_ms / 2) {
    // Keep only interesting probes: failures and slow outliers. Healthy
    // 200ms-cadence probes would otherwise flush real request traces out
    // of the 64-entry ring.
    trace::TraceRecorder::Instance().Record(
        {probe_trace.id(), "router.probe", elapsed_us,
         probe_trace.ToJson()});
  }
  if (probe_status.ok()) {
    seat.consecutive_probe_failures = 0;
    seat.probe_load.store(load, std::memory_order_relaxed);
    return;
  }
  seat.probe_failures->Increment();
  if (++seat.consecutive_probe_failures >= options_.wedged_probe_failures) {
    // The process is alive but not answering: wedged. Planned restart
    // with a drain, unlike the crash path.
    DrainAndRestartSeat(index);
  }
}

void Router::HandleSeatDeath(int index, const char* reason) {
  Seat& seat = *seats_[static_cast<size_t>(index)];
  if (seat.process != nullptr) {
    seat.process->WaitExit(0);  // reap if collectable
    seat.process.reset();
  }
  seat.state.store(Seat::kDown, std::memory_order_release);
  seat.up_gauge->Set(0);
  seat.probe_load.store(0, std::memory_order_relaxed);
  // Fail the dead seat's slots over to the survivors *now*; requests that
  // were in flight surface as retryable Unavailable through each
  // connection's upstream reader, which sees the kernel close the dead
  // process's sockets.
  RebuildSlotTable();
  std::fprintf(stderr, "%% pfqlr: worker %d %s; slots failed over\n", index,
               reason);
  seat.next_restart_at =
      std::chrono::steady_clock::now() + seat.backoff->NextDelay();
}

void Router::DrainAndRestartSeat(int index) {
  Seat& seat = *seats_[static_cast<size_t>(index)];
  seat.state.store(Seat::kDraining, std::memory_order_release);
  seat.up_gauge->Set(0);
  RebuildSlotTable();  // new requests route elsewhere immediately
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.drain_timeout_ms);
  while (seat.in_flight.load(std::memory_order_relaxed) > 0 &&
         std::chrono::steady_clock::now() < deadline && !stopping_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (seat.process != nullptr) {
    seat.process->Terminate();
    if (!seat.process->WaitExit(options_.term_timeout_ms)) {
      seat.process->Kill();
      seat.process->WaitExit(options_.term_timeout_ms);
    }
    seat.process.reset();
  }
  seat.state.store(Seat::kDown, std::memory_order_release);
  std::fprintf(stderr,
               "%% pfqlr: worker %d wedged; drained and restarting\n",
               index);
  seat.next_restart_at =
      std::chrono::steady_clock::now() + seat.backoff->NextDelay();
}

void Router::TryRespawnSeat(int index) {
  Seat& seat = *seats_[static_cast<size_t>(index)];
  const auto now = std::chrono::steady_clock::now();
  // Crash-loop circuit breaker: too many restarts inside the window means
  // the worker is failing structurally (bad flags, OOM loop) — spawning
  // again would burn CPU without restoring capacity.
  const auto window_start =
      now - std::chrono::milliseconds(options_.restart_window_ms);
  while (!seat.restart_times.empty() &&
         seat.restart_times.front() < window_start) {
    seat.restart_times.pop_front();
  }
  if (static_cast<int>(seat.restart_times.size()) >=
      options_.max_restarts_in_window) {
    seat.state.store(Seat::kBroken, std::memory_order_release);
    seat.breaker_until =
        now + std::chrono::milliseconds(options_.breaker_cooldown_ms);
    seat.breaker_opens->Increment();
    std::fprintf(stderr,
                 "%% pfqlr: worker %d crash-looping (%zu restarts in "
                 "%dms); breaker open for %dms\n",
                 index, seat.restart_times.size(),
                 options_.restart_window_ms, options_.breaker_cooldown_ms);
    return;
  }

  Status status = SpawnSeat(index);
  if (!status.ok()) {
    seat.next_restart_at =
        std::chrono::steady_clock::now() + seat.backoff->NextDelay();
    std::fprintf(stderr, "%% pfqlr: worker %d respawn failed: %s\n", index,
                 status.ToString().c_str());
    return;
  }
  seat.restart_times.push_back(now);
  seat.restarts.fetch_add(1, std::memory_order_relaxed);
  seat.restarts_total->Increment();
  seat.backoff->Reset();
  Status replay =
      ReplayRegistrations(seat.port.load(std::memory_order_relaxed), index);
  if (!replay.ok()) {
    seat.replay_failures->Increment();
    std::fprintf(stderr, "%% pfqlr: worker %d registry replay: %s\n", index,
                 replay.ToString().c_str());
  }
  RebuildSlotTable();
  std::fprintf(stderr, "%% pfqlr: worker %d restarted on port %u\n", index,
               static_cast<unsigned>(
                   seat.port.load(std::memory_order_relaxed)));
}

Status Router::ReplayRegistrations(uint16_t port, int index) {
  std::vector<Json> log;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    log = registry_log_;
  }
  if (log.empty()) return Status::OK();
  server::Client client;
  Status status = client.Connect(port);
  if (!status.ok()) return status;
  for (const Json& request : log) {
    auto reply = client.Call(request);
    if (!reply.ok()) return reply.status();
    const Json* ok = reply->Find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->AsBool()) {
      return Status::Internal("worker " + std::to_string(index) +
                              " rejected a replayed registration: " +
                              reply->Dump());
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Client side.

void Router::ServeConnection(int fd) {
  auto conn = std::make_shared<ConnState>();
  conn->writer = std::make_shared<server::LineWriter>(
      fd, server::kWriteQueueLines, updates_dropped_);
  server::LineReader reader(fd, server::kMaxLineBytes);
  while (!conn->writer->failed()) {
    StatusOr<std::string_view> line = reader.Next();
    if (!line.ok()) {
      if (line.status().code() == StatusCode::kInvalidArgument) {
        ReplyDirect(conn, Json(), "", line.status());
      }
      break;
    }
    if (!line->empty()) HandleClientLine(conn, *line);
  }

  // Teardown: closing each upstream socket makes the worker's own
  // connection handler detach any subscriptions this client still held —
  // the router never has to unsubscribe explicitly.
  std::vector<std::shared_ptr<Upstream>> ups;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    for (auto& [w, up] : conn->upstreams) ups.push_back(up);
    for (auto& up : conn->retired) ups.push_back(up);
    conn->upstreams.clear();
    conn->retired.clear();
  }
  for (auto& up : ups) up->Shut();
  for (auto& up : ups) {
    if (up->reader.joinable()) up->reader.join();
    if (up->fd >= 0) ::close(up->fd);
  }
  conn->writer->Close();
}

void Router::ReplyDirect(const std::shared_ptr<ConnState>& conn,
                         const Json& id, const std::string& method,
                         const Status& status) {
  conn->writer->Enqueue(
      SerializeResponse(ErrorResponse(id, method, status)) + '\n', false);
}

void Router::HandleClientLine(const std::shared_ptr<ConnState>& conn,
                              std::string_view line) {
  auto json = Json::Parse(line);
  if (!json.ok()) {
    ReplyDirect(conn, Json(), "", json.status());
    return;
  }
  Json id;
  if (const Json* found = json->Find("id"); found != nullptr) id = *found;
  const Json* method_json = json->Find("method");
  const std::string method =
      (method_json != nullptr && method_json->is_string())
          ? method_json->AsString()
          : "";

  // Router-only introspection methods, answered without touching a worker.
  if (method == "router_stats") {
    Response response;
    response.id = id;
    response.method = method;
    response.result = StatsJson();
    conn->writer->Enqueue(SerializeResponse(response) + '\n', false);
    return;
  }
  if (method == "router_metrics") {
    Response response;
    response.id = id;
    response.method = method;
    const metrics::MetricsSnapshot snapshot =
        metrics::MetricRegistry::Instance().Snapshot();
    Json payload = Json::Object();
    const Json* format = json->Find("format");
    if (format != nullptr && format->is_string() &&
        format->AsString() == "prometheus") {
      payload.Set("content_type", "text/plain; version=0.0.4");
      payload.Set("text", snapshot.ToPrometheusText());
    } else {
      payload.Set("metrics", snapshot.ToJson());
      payload.Set("traces", trace::TraceRecorder::Instance().Summaries());
    }
    response.result = std::move(payload);
    conn->writer->Enqueue(SerializeResponse(response) + '\n', false);
    return;
  }

  // Full validation up front: a malformed request is answered by the
  // router with the exact error pfqld would produce, and never consumes a
  // worker round trip.
  auto request = server::ParseRequest(*json);
  if (!request.ok()) {
    ReplyDirect(conn, id, method, request.status());
    return;
  }

  int worker = -1;
  switch (request->kind) {
    case server::RequestKind::kRegisterProgram:
    case server::RequestKind::kRegisterInstance:
      Broadcast(conn, *json, id);
      return;
    case server::RequestKind::kUnsubscribe: {
      // Follow the subscription's pin; an unknown id goes to any live
      // worker, whose not-found error is the right answer anyway.
      std::lock_guard<std::mutex> lock(conn->mu);
      auto it = conn->pins.find(request->sub);
      worker = (it != conn->pins.end()) ? it->second.worker : -1;
      break;
    }
    case server::RequestKind::kPing:
    case server::RequestKind::kStats:
    case server::RequestKind::kList:
    case server::RequestKind::kHealth:
    case server::RequestKind::kMetrics:
      worker = PickLeastLoaded();
      break;
    default: {
      // Query kinds and subscribe: shard by the result-cache fingerprint,
      // so repeats of one query always land on the same warm cache.
      std::string key = server::RequestKindToString(request->kind);
      key += '|';
      key += request->target;  // subscribe: the streamed kind
      key += '|';
      key += request->CacheParams();
      worker = PickWorkerForKey(HashKey(key));
      break;
    }
  }
  if (worker < 0) worker = PickLeastLoaded();
  if (worker < 0) {
    no_worker_total_->Increment();
    ReplyDirect(conn, id, method,
                Status::Unavailable(
                    "no live worker (fleet restarting or circuit-broken); "
                    "safe to retry"));
    return;
  }
  ForwardToWorker(conn, worker, line, id, method);
}

void Router::Broadcast(const std::shared_ptr<ConnState>& conn,
                       const Json& request, const Json& id) {
  broadcasts_total_->Increment();
  const Json stripped = StripId(request);
  const std::vector<int> live = LiveWorkers();
  if (live.empty()) {
    no_worker_total_->Increment();
    ReplyDirect(conn, id, "",
                Status::Unavailable("no live worker; safe to retry"));
    return;
  }
  // Synchronous fan-out on dedicated connections: registrations are rare
  // and small, and strict ordering with the replay log matters more than
  // latency. All live workers must accept — a partial registration would
  // make shard choice observable.
  Json first_reply;
  for (const int w : live) {
    Seat& seat = *seats_[static_cast<size_t>(w)];
    server::Client client;
    Status status =
        client.Connect(seat.port.load(std::memory_order_relaxed));
    StatusOr<Json> reply = status.ok() ? client.Call(stripped)
                                       : StatusOr<Json>(status);
    if (!reply.ok()) {
      ReplyDirect(conn, id, "",
                  Status::Unavailable(
                      "registration broadcast to worker " +
                      std::to_string(w) + " failed (" +
                      reply.status().message() + "); safe to retry"));
      return;
    }
    const Json* ok = reply->Find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->AsBool()) {
      // A structured rejection (parse error, name conflict) is the
      // answer; every worker rejects identically, so forward the first.
      Json out = *std::move(reply);
      out.Set("id", id);
      conn->writer->Enqueue(out.Dump() + '\n', false);
      return;
    }
    if (first_reply.is_null()) first_reply = *std::move(reply);
  }
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    registry_log_.push_back(stripped);
  }
  first_reply.Set("id", id);
  conn->writer->Enqueue(first_reply.Dump() + '\n', false);
}

int Router::PickWorkerForKey(uint64_t key_hash) const {
  std::lock_guard<std::mutex> lock(table_mu_);
  if (slot_table_.empty()) return -1;
  return slot_table_[SlotOf(key_hash)];
}

int Router::PickLeastLoaded() const {
  int best = -1;
  int64_t best_score = 0;
  for (size_t i = 0; i < seats_.size(); ++i) {
    const Seat& seat = *seats_[i];
    if (seat.state.load(std::memory_order_acquire) != Seat::kUp) continue;
    const int64_t score =
        seat.probe_load.load(std::memory_order_relaxed) +
        seat.in_flight.load(std::memory_order_relaxed);
    if (best < 0 || score < best_score) {
      best = static_cast<int>(i);
      best_score = score;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Proxy plumbing.

std::shared_ptr<Router::Upstream> Router::GetUpstream(
    const std::shared_ptr<ConnState>& conn, int worker, Status* error) {
  Seat& seat = *seats_[static_cast<size_t>(worker)];
  if (seat.state.load(std::memory_order_acquire) != Seat::kUp) {
    *error = Status::Unavailable("worker " + std::to_string(worker) +
                                 " is not serving; safe to retry");
    return nullptr;
  }
  const uint64_t epoch = seat.epoch.load(std::memory_order_relaxed);
  std::shared_ptr<Upstream> stale;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    auto it = conn->upstreams.find(worker);
    if (it != conn->upstreams.end()) {
      bool dead;
      {
        std::lock_guard<std::mutex> up_lock(it->second->mu);
        dead = it->second->dead;
      }
      if (!dead && it->second->epoch == epoch) return it->second;
      stale = it->second;
      conn->retired.push_back(it->second);
      conn->upstreams.erase(it);
    }
  }
  if (stale != nullptr) stale->Shut();

  auto fd =
      server::ConnectLoopback(seat.port.load(std::memory_order_relaxed));
  if (!fd.ok()) {
    *error = fd.status();
    return nullptr;
  }
  auto up = std::make_shared<Upstream>();
  up->worker = worker;
  up->epoch = epoch;
  up->fd = *fd;
  try {
    up->reader = std::thread(
        [this, conn, up] { UpstreamReaderLoop(conn, up); });
  } catch (const std::system_error& e) {
    ::close(up->fd);
    *error = Status::Unavailable(std::string("upstream reader: ") +
                                 e.what() + "; safe to retry");
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(conn->mu);
  conn->upstreams[worker] = up;
  return up;
}

void Router::ForwardToWorker(const std::shared_ptr<ConnState>& conn,
                             int worker, std::string_view raw_line,
                             const Json& id, const std::string& method) {
  Status error = Status::OK();
  auto up = GetUpstream(conn, worker, &error);
  if (up == nullptr) {
    seats_[static_cast<size_t>(worker)]->failovers->Increment();
    ReplyDirect(conn, id, method, error);
    return;
  }
  Seat& seat = *seats_[static_cast<size_t>(worker)];
  {
    std::lock_guard<std::mutex> lock(up->mu);
    if (up->dead) {
      // The reader already failed this upstream over; answer directly.
      seat.failovers->Increment();
      ReplyDirect(conn, id, method,
                  Status::Unavailable("worker " + std::to_string(worker) +
                                      " connection lost; safe to retry"));
      return;
    }
    up->pending.push_back({id, method});
    seat.in_flight.fetch_add(1, std::memory_order_relaxed);
  }
  seat.requests->Increment();
  // Chaos hook: a firing severs this upstream just before the send — the
  // proxy-path analogue of a worker crash. The reader drains `pending`
  // into clean Unavailable responses.
  if (fault::InjectFault(fault::points::kRouterProxy)) up->Shut();
  std::string framed(raw_line);
  framed += '\n';
  if (!server::WriteAll(up->fd, framed.data(), framed.size())) {
    // The entry is in `pending`; the reader sees the broken socket and
    // synthesizes its response. Nothing more to do here.
    up->Shut();
  }
}

void Router::UpstreamReaderLoop(std::shared_ptr<ConnState> conn,
                                std::shared_ptr<Upstream> up) {
  Seat& seat = *seats_[static_cast<size_t>(up->worker)];
  server::LineReader reader(up->fd);
  for (;;) {
    // An error means the worker died or the upstream was severed; a torn
    // frame from the moment of death is discarded — failover always emits
    // whole, clean lines.
    StatusOr<std::string_view> next = reader.Next();
    if (!next.ok()) break;
    const std::string_view line = *next;
    if (line.empty()) continue;
    auto json = Json::Parse(line);
    if (!json.ok()) continue;  // never forward a torn frame
    const Json* event = json->Find("event");
    if (event != nullptr && event->is_string()) {
      // Subscription push. Track the pin (creating it on a pre-ack
      // catch-up push) so failover knows who is orphaned and what seq
      // comes next; a terminal event ends the pin.
      const Json* sub = json->Find("sub");
      const Json* seq = json->Find("seq");
      const std::string& kind = event->AsString();
      if (sub != nullptr && sub->is_string()) {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (kind == "update") {
          SubPin& pin = conn->pins[sub->AsString()];
          pin.worker = up->worker;
          pin.epoch = up->epoch;
          if (seq != nullptr && seq->is_number()) {
            pin.last_seq = seq->AsInt();
          }
        } else {
          conn->pins.erase(sub->AsString());
        }
      }
      conn->writer->Enqueue(std::string(line) + '\n', kind == "update");
      continue;
    }
    // A response: the worker answers one line per request in order, so
    // it matches the oldest pending entry.
    Upstream::Pending done;
    bool matched = false;
    {
      std::lock_guard<std::mutex> lock(up->mu);
      if (!up->pending.empty()) {
        done = std::move(up->pending.front());
        up->pending.pop_front();
        matched = true;
      }
    }
    if (matched) {
      seat.in_flight.fetch_sub(1, std::memory_order_relaxed);
      if (done.method == "subscribe") {
        const Json* ok = json->Find("ok");
        const Json* result = json->Find("result");
        if (ok != nullptr && ok->is_bool() && ok->AsBool() &&
            result != nullptr) {
          const Json* sub = result->Find("sub");
          if (sub != nullptr && sub->is_string()) {
            std::lock_guard<std::mutex> lock(conn->mu);
            SubPin& pin = conn->pins[sub->AsString()];
            pin.worker = up->worker;
            pin.epoch = up->epoch;
          }
        }
      }
    }
    conn->writer->Enqueue(std::string(line) + '\n', false);
  }
  FailOverUpstream(conn, up);
}

void Router::FailOverUpstream(const std::shared_ptr<ConnState>& conn,
                              const std::shared_ptr<Upstream>& up) {
  Seat& seat = *seats_[static_cast<size_t>(up->worker)];
  std::deque<Upstream::Pending> pending;
  {
    std::lock_guard<std::mutex> lock(up->mu);
    pending.swap(up->pending);
    up->dead = true;  // from here the connection thread answers itself
  }
  for (const Upstream::Pending& p : pending) {
    seat.in_flight.fetch_sub(1, std::memory_order_relaxed);
    seat.failovers->Increment();
    ReplyDirect(conn, p.id, p.method,
                Status::Unavailable(
                    "worker " + std::to_string(up->worker) +
                    " died mid-request; the request may not have run — "
                    "safe to retry"));
  }
  // Orphaned subscriptions: every pin still pointing at this upstream gets
  // one terminal error push. A subscriber never goes silent — it either
  // completes or hears that its worker died.
  std::vector<std::pair<std::string, int64_t>> orphans;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    for (auto it = conn->pins.begin(); it != conn->pins.end();) {
      if (it->second.worker == up->worker &&
          it->second.epoch == up->epoch) {
        orphans.emplace_back(it->first, it->second.last_seq);
        it = conn->pins.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& [sub, last_seq] : orphans) {
    seat.orphaned_subs->Increment();
    Json error = Json::Object();
    error.Set("code", "Unavailable");
    error.Set("message",
              "worker " + std::to_string(up->worker) +
                  " died; subscription lost — resubscribe to continue");
    Json push = Json::Object();
    push.Set("sub", sub);
    push.Set("event", "error");
    push.Set("seq", last_seq + 1);
    push.Set("error", std::move(error));
    conn->writer->Enqueue(push.Dump() + '\n', false);
  }
}

// ---------------------------------------------------------------------------
// Introspection.

Json Router::StatsJson() const {
  auto state_name = [](int state) -> const char* {
    switch (state) {
      case Seat::kUp: return "up";
      case Seat::kDraining: return "draining";
      case Seat::kDown: return "down";
      case Seat::kBroken: return "broken";
    }
    return "?";
  };
  Json workers = Json::Array();
  int live = 0;
  for (size_t i = 0; i < seats_.size(); ++i) {
    const Seat& seat = *seats_[i];
    const int state = seat.state.load(std::memory_order_acquire);
    if (state == Seat::kUp) ++live;
    Json w = Json::Object();
    w.Set("index", static_cast<int64_t>(i));
    w.Set("state", state_name(state));
    w.Set("port", static_cast<int64_t>(
                      seat.port.load(std::memory_order_relaxed)));
    w.Set("pid", seat.pid.load(std::memory_order_relaxed));
    w.Set("epoch", static_cast<int64_t>(
                       seat.epoch.load(std::memory_order_relaxed)));
    w.Set("in_flight", seat.in_flight.load(std::memory_order_relaxed));
    w.Set("probe_load", seat.probe_load.load(std::memory_order_relaxed));
    w.Set("restarts", static_cast<int64_t>(
                          seat.restarts.load(std::memory_order_relaxed)));
    workers.Append(std::move(w));
  }
  Json slots = Json::Array();
  {
    std::lock_guard<std::mutex> lock(table_mu_);
    for (const int owner : slot_table_) {
      slots.Append(static_cast<int64_t>(owner));
    }
  }
  Json out = Json::Object();
  out.Set("workers", std::move(workers));
  out.Set("live", static_cast<int64_t>(live));
  out.Set("slots", std::move(slots));
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    out.Set("registrations",
            static_cast<int64_t>(registry_log_.size()));
  }
  return out;
}

}  // namespace router
}  // namespace pfql
