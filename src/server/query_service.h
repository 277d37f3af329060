// The embeddable query service behind pfqld: a registry of named,
// pre-parsed and pre-linted programs and loaded instances; a fixed-size
// worker pool behind a bounded admission queue (full queue = structured
// "overloaded" error, not unbounded latency); per-request deadlines
// threaded into every evaluator as a cooperative cancellation token; and
// an LRU result cache keyed on (program hash, instance structural hash,
// query kind, params). Fully testable in-process — the TCP layer
// (tcp_server.h) is a thin line-framing shim over Call().
#ifndef PFQL_SERVER_QUERY_SERVICE_H_
#define PFQL_SERVER_QUERY_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "datalog/program.h"
#include "relational/instance.h"
#include "sched/scheduler.h"
#include "server/result_cache.h"
#include "server/wire.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace pfql {
namespace server {

struct ServiceOptions {
  /// Query-plane worker threads.
  size_t workers = 4;
  /// Bounded admission queue: requests beyond this many waiting are
  /// rejected with kUnavailable ("overloaded").
  size_t queue_capacity = 16;
  /// Result-cache capacity in entries (0 disables caching).
  size_t cache_entries = 256;
  /// Deadline applied to requests that carry no timeout_ms; 0 = none.
  int64_t default_timeout_ms = 0;
  /// Structured per-request log sink: called once per served request with
  /// {"trace_id","method","ok","code","elapsed_us","cached","degraded",
  ///  "deadline_left_ms"} (schema in docs/OBSERVABILITY.md). Null = no
  /// logging. Invoked on the calling thread after the response is built —
  /// the sink must be thread-safe if Call() is used concurrently.
  std::function<void(const Json&)> log_sink;
  /// Streaming-subscription scheduler knobs (workers, quantum, policy,
  /// R̂ threshold, subscription limit — sched/scheduler.h).
  sched::SchedulerOptions sched;
};

class QueryService {
 public:
  explicit QueryService(const ServiceOptions& options = {});
  /// Drains the worker pool (in-flight requests finish first).
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Parses, validates, and lints `source`, storing it under `name`
  /// (replacing any previous program of that name; in-flight requests
  /// keep the version they resolved). Fails on parse/validation errors;
  /// lint warnings are counted, not fatal.
  Status RegisterProgram(const std::string& name, std::string_view source);
  /// Stores a loaded instance under `name` (replacing any previous one).
  /// The structural hash is computed up front.
  Status RegisterInstance(const std::string& name, Instance instance);

  /// Serves one request. Control-plane kinds (ping/stats/list/register_*)
  /// run inline on the calling thread; query kinds go through admission
  /// control onto the worker pool and this call blocks until the result
  /// is ready (or returns the kUnavailable rejection immediately).
  Response Call(const Request& request);

  /// Parses one NDJSON request line and serves it. Parse failures come
  /// back as error responses (never a Status), so the wire loop always
  /// has one response line per request line. subscribe/unsubscribe need a
  /// push channel and fail here with FailedPrecondition — streaming
  /// callers use CallLineWithSink.
  Response CallLine(std::string_view line);

  /// CallLine for connections that can receive pushed lines: subscribe
  /// requests register `sink` with the scheduler (the ack response carries
  /// the subscription id; update/complete/error lines arrive through the
  /// sink afterwards, from scheduler threads), unsubscribe detaches, and
  /// everything else behaves exactly like CallLine.
  Response CallLineWithSink(std::string_view line, sched::UpdateSink sink);

  /// Opens a subscription directly (in-process streaming: `pfql --watch`,
  /// tests). The ack payload is {"sub","target","fused"}.
  Response Subscribe(const Request& request, sched::UpdateSink sink);
  /// Detaches one subscription; NotFound when the id is unknown (already
  /// completed, or never existed).
  Response Unsubscribe(const Request& request);

  /// The scheduler behind subscribe/unsubscribe (tests, benches, drains).
  sched::SampleScheduler& scheduler() { return scheduler_; }

  /// The `stats` payload: queue/pool gauges, per-kind latency counters,
  /// cache hit rates, and registry names.
  Json StatsJson() const;

  /// The `health` payload: a cheap overload snapshot for load balancers
  /// and retrying clients — status ("ok"/"busy"/"overloaded"), queue and
  /// in-flight gauges, and the armed fault-injection points (so a chaos
  /// run is visible from the outside).
  Json HealthJson() const;

 private:
  struct ProgramEntry {
    std::shared_ptr<const datalog::Program> program;
    uint64_t hash = 0;
    size_t lint_warnings = 0;
  };
  struct InstanceEntry {
    std::shared_ptr<const Instance> instance;
    uint64_t hash = 0;
  };
  /// Immutable registry snapshot, published via shared_ptr swap (RCU):
  /// readers (resolve, list, stats) copy the current pointer under a short
  /// lock and never wait on a writer's copy; register_* copies the
  /// snapshot under a writer-only mutex, mutates the copy, and swaps it in.
  /// In-flight requests keep whatever snapshot they resolved against.
  struct Registries {
    std::map<std::string, ProgramEntry> programs;
    std::map<std::string, InstanceEntry> instances;
  };
  /// Monotonic per-kind counters (latencies in microseconds).
  struct KindCounters {
    uint64_t count = 0;
    uint64_t errors = 0;
    uint64_t cache_hits = 0;
    uint64_t total_us = 0;
    uint64_t max_us = 0;
  };

  /// Control-plane dispatch (calling thread).
  Response HandleControl(const Request& request);
  /// Full query-plane execution (worker thread): resolve, cache, execute.
  Response ExecuteNow(const Request& request);
  StatusOr<ProgramEntry> ResolveProgram(const Request& request) const;
  StatusOr<InstanceEntry> ResolveInstance(const Request& request) const;
  void RecordOutcome(const Request& request, const Response& response);
  /// Tail common to every Call(): registry metrics, trace recording /
  /// inline trace attachment, and the structured log line.
  void FinishRequest(const Request& request, Response* response,
                     trace::Trace* trace);
  /// Point-in-time pool/cache gauges, refreshed at `metrics` scrape time.
  void RefreshGauges() const;

  const ServiceOptions options_;
  const std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();

  /// Registry read: copies the current snapshot pointer under a short
  /// lock. The snapshot stays valid (and frozen) for as long as the caller
  /// holds it.
  std::shared_ptr<const Registries> RegistrySnapshot() const {
    std::lock_guard<std::mutex> lock(registries_mu_);
    return registries_;
  }
  /// Copy-on-write registry update: `mutate` runs on a private copy of
  /// the current snapshot, which is then published. The replaced snapshot
  /// is released after the lock, by its last holder.
  template <typename Fn>
  void UpdateRegistries(Fn&& mutate) {
    std::lock_guard<std::mutex> write(registry_write_mu_);
    auto next = std::make_shared<Registries>(*RegistrySnapshot());
    mutate(next.get());
    std::shared_ptr<const Registries> replaced = std::move(next);
    std::lock_guard<std::mutex> lock(registries_mu_);
    registries_.swap(replaced);
  }

  /// Serializes writers, so no update is lost between copy and publish.
  std::mutex registry_write_mu_;
  /// Guards only the pointer copy and swap. (libstdc++ 12's
  /// std::atomic<std::shared_ptr> unlocks its load with a relaxed store,
  /// which lets TSan see a race on the control block.)
  mutable std::mutex registries_mu_;
  std::shared_ptr<const Registries> registries_ =
      std::make_shared<const Registries>();

  ResultCache cache_;

  mutable std::mutex stats_mu_;
  std::map<std::string, KindCounters> kind_counters_;
  uint64_t accepted_ = 0;
  uint64_t rejected_ = 0;

  // Declared last so workers stop before the state they use is destroyed.
  // (Scheduler factories hold shared_ptrs into the registries, so the
  // scheduler may also outlive registry replacement safely.)
  sched::SampleScheduler scheduler_;
  ThreadPool pool_;
};

}  // namespace server
}  // namespace pfql

#endif  // PFQL_SERVER_QUERY_SERVICE_H_
