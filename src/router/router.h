// pfqlr: the sharded-serving front end. One Router owns the listening
// socket, supervises a fleet of pfqld child processes (spawned via
// worker.h), and proxies the NDJSON wire protocol of docs/SERVER.md both
// ways, byte-for-byte — clients speak to the router exactly as they would
// to a single pfqld.
//
// Routing (docs/SERVER.md §16):
//   * query kinds and subscribe hash their result-cache fingerprint onto
//     a slot table (hash_ring.h), so identical queries reuse one worker's
//     warm cache; subscriptions stay pinned to their owning worker for
//     their whole push lifetime;
//   * register_program / register_instance broadcast synchronously to
//     every live worker and append to a replay log that re-registers
//     state into restarted workers;
//   * control kinds (ping/stats/health/metrics/list) go to the least
//     loaded live worker; unsubscribe follows its subscription's pin;
//   * two router-only methods are answered by the router itself:
//     "router_stats" (topology snapshot) and "router_metrics" (the router
//     process's own pfql_router_* registry).
//
// Supervision: a probe thread health-checks each worker (the `health`
// method), restarts crashed or wedged workers with decorrelated-jitter
// backoff behind a crash-loop circuit breaker, and drains in-flight
// requests before a planned restart. A worker death fails its hashed
// slots over to the survivors; requests in flight on the dead worker are
// answered with a retryable Unavailable error (Client::CallWithRetry
// recovers transparently), and orphaned subscriptions get one terminal
// {"event":"error"} push — a subscription never goes silent.
#ifndef PFQL_ROUTER_ROUTER_H_
#define PFQL_ROUTER_ROUTER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "router/worker.h"
#include "server/loopback.h"
#include "util/backoff.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/status.h"

namespace pfql {
namespace router {

struct RouterOptions {
  /// Listen port on 127.0.0.1 (0 = ephemeral).
  uint16_t port = 0;

  /// Fleet shape. Every worker is `pfqld_binary --port 0 <worker_args>`.
  int num_workers = 2;
  std::string pfqld_binary;
  std::vector<std::string> worker_args;
  int spawn_timeout_ms = 8000;

  /// Supervision cadence: health-probe interval and per-probe deadline.
  int probe_interval_ms = 200;
  int probe_timeout_ms = 1000;
  /// Consecutive failed probes on a live process before it is declared
  /// wedged and drained + restarted.
  int wedged_probe_failures = 3;
  /// Planned-restart drain: wait this long for in-flight requests to
  /// finish before SIGTERM, then this long for a clean exit before
  /// SIGKILL.
  int drain_timeout_ms = 2000;
  int term_timeout_ms = 1000;

  /// Respawn schedule (decorrelated jitter; initial_backoff/max_backoff
  /// are the knobs that matter — attempts are unbounded, the breaker
  /// below bounds crash loops instead).
  RetryPolicy restart_backoff;
  /// Crash-loop circuit breaker: more than this many restarts inside
  /// restart_window_ms opens the breaker for breaker_cooldown_ms, during
  /// which the seat stays down and its slots remain failed over.
  int max_restarts_in_window = 5;
  int restart_window_ms = 10000;
  int breaker_cooldown_ms = 5000;
};

class Router {
 public:
  explicit Router(const RouterOptions& options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Spawns the fleet (all seats must come up), builds the slot table,
  /// and starts the listener + supervisor. Any failure tears everything
  /// down and leaves the router restartable.
  Status Start();
  /// Stops accepting, closes client connections, and shuts the fleet
  /// down (SIGTERM, then SIGKILL past term_timeout_ms). Idempotent.
  void Stop();

  /// Bound listen port (valid after Start()).
  uint16_t port() const { return listener_.port(); }

  /// The "router_stats" payload: per-seat state, slot ownership, live
  /// count. Also useful directly in tests.
  Json StatsJson() const;

 private:
  /// One supervised worker seat (index-stable for the router's lifetime).
  struct Seat {
    enum State : int { kUp = 0, kDraining = 1, kDown = 2, kBroken = 3 };

    std::unique_ptr<WorkerProcess> process;  // supervisor thread only
    std::atomic<int> state{kDown};
    std::atomic<uint16_t> port{0};
    /// Child pid (router_stats exposes it; chaos tooling kill -9s by it).
    std::atomic<int64_t> pid{0};
    /// Bumped on every respawn; connections drop stale upstreams.
    std::atomic<uint64_t> epoch{0};
    /// Requests sent and not yet answered (or failed over).
    std::atomic<int64_t> in_flight{0};
    /// Last probe's load score (worker in_flight + queue + queued
    /// subscription quanta); feeds least-loaded control routing.
    std::atomic<int64_t> probe_load{0};
    std::atomic<uint64_t> restarts{0};

    // Supervisor-thread-only bookkeeping.
    int consecutive_probe_failures = 0;
    std::deque<std::chrono::steady_clock::time_point> restart_times;
    std::chrono::steady_clock::time_point next_restart_at{};
    std::chrono::steady_clock::time_point breaker_until{};
    std::unique_ptr<Backoff> backoff;

    // Cached per-seat metric handles.
    metrics::Counter* requests = nullptr;
    metrics::Counter* failovers = nullptr;
    metrics::Counter* orphaned_subs = nullptr;
    metrics::Counter* restarts_total = nullptr;
    metrics::Counter* probe_failures = nullptr;
    metrics::Counter* breaker_opens = nullptr;
    metrics::Counter* replay_failures = nullptr;
    metrics::Gauge* up_gauge = nullptr;
    metrics::Gauge* slots_gauge = nullptr;
  };

  /// A subscription pinned to the worker that owns it.
  struct SubPin {
    int worker = -1;
    uint64_t epoch = 0;
    int64_t last_seq = 0;
  };

  struct Upstream;
  struct ConnState;

  // Fleet lifecycle (supervisor thread, plus Start).
  Status SpawnSeat(int index);
  void SupervisorLoop();
  void ProbeSeat(int index);
  void HandleSeatDeath(int index, const char* reason);
  void DrainAndRestartSeat(int index);
  void TryRespawnSeat(int index);
  Status ReplayRegistrations(uint16_t port, int index);
  void RebuildSlotTable();

  // Client side.
  void ServeConnection(int fd);
  void HandleClientLine(const std::shared_ptr<ConnState>& conn,
                        std::string_view line);
  void Broadcast(const std::shared_ptr<ConnState>& conn, const Json& request,
                 const Json& id);
  /// Picks by slot table (-1 = no live worker).
  int PickWorkerForKey(uint64_t key_hash) const;
  int PickLeastLoaded() const;
  std::vector<int> LiveWorkers() const;

  // Proxy plumbing.
  std::shared_ptr<Upstream> GetUpstream(const std::shared_ptr<ConnState>& conn,
                                        int worker, Status* error);
  void ForwardToWorker(const std::shared_ptr<ConnState>& conn, int worker,
                       std::string_view raw_line, const Json& id,
                       const std::string& method);
  void UpstreamReaderLoop(std::shared_ptr<ConnState> conn,
                          std::shared_ptr<Upstream> up);
  /// Fails over everything still pending on a dead upstream: synthesizes
  /// retryable Unavailable responses and terminal subscription error
  /// pushes.
  void FailOverUpstream(const std::shared_ptr<ConnState>& conn,
                        const std::shared_ptr<Upstream>& up);
  void ReplyDirect(const std::shared_ptr<ConnState>& conn, const Json& id,
                   const std::string& method, const Status& status);

  const RouterOptions options_;
  std::vector<std::unique_ptr<Seat>> seats_;

  mutable std::mutex table_mu_;
  std::vector<int> slot_table_;

  /// Successful register_* requests (id stripped), replayed into every
  /// restarted worker so `list` and name-referencing queries behave
  /// identically on all shards.
  mutable std::mutex registry_mu_;
  std::vector<Json> registry_log_;

  std::atomic<bool> stopping_{false};
  std::thread supervisor_thread_;
  std::mutex supervisor_mu_;
  std::condition_variable supervisor_cv_;

  metrics::Counter* broadcasts_total_ = nullptr;
  metrics::Counter* no_worker_total_ = nullptr;
  metrics::Counter* updates_dropped_ = nullptr;
  metrics::Histogram* probe_latency_ = nullptr;

  /// Client connections; declared last so it stops before the state its
  /// connection threads use goes away.
  server::LoopbackListener listener_;
};

}  // namespace router
}  // namespace pfql

#endif  // PFQL_ROUTER_ROUTER_H_
