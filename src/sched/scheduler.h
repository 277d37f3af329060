// Global adaptive sample scheduler: time-slices sampler budget across all
// live subscriptions in fixed-size sample quanta. Each subscription owns a
// resumable sampler (eval/resumable.h); after every quantum the scheduler
// pushes an incremental update line to the subscribers and re-prioritizes.
//
// Scheduling policy (kAdaptive): widest-CI-first with aging — a task's
// priority is ci_halfwidth + aging_rate × seconds-since-last-service, so
// samples flow where confidence is loosest but a narrow-CI subscription
// still gets serviced (starvation regression in tests/sched). kRoundRobin
// (least-recently-serviced) exists as the fairness baseline bench_sched
// compares against.
//
// Fusion: subscriptions sharing a fusion key (the PR3 result-cache key)
// attach to one task — one sampler feeds N subscribers, so N identical
// subscriptions cost one subscription's samples.
//
// Convergence: MCMC tasks run >= 2 persistent chains; split-R̂
// (convergence.h) is recomputed per quantum, exported as the
// pfql_sched_rhat gauge, and a task completes early once its CI is inside
// epsilon *and* R̂ is below threshold. Non-MCMC tasks complete on CI alone;
// any task whose budget runs out completes with reason "budget" (degraded
// when the CI target was not reached).
//
// Threading: `workers` threads run quanta; all bookkeeping is under one
// mutex, but RunQuantum itself and update delivery happen outside it.
// Sinks must therefore be callable from scheduler threads and must not
// call back into the scheduler (the TCP layer hands the line to a
// per-connection writer queue).
#ifndef PFQL_SCHED_SCHEDULER_H_
#define PFQL_SCHED_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "eval/resumable.h"
#include "util/cancellation.h"
#include "util/json.h"
#include "util/status.h"

namespace pfql {
namespace sched {

enum class Policy {
  kAdaptive,    ///< widest CI first, with aging
  kRoundRobin,  ///< least recently serviced first (bench baseline)
};

const char* PolicyToString(Policy policy);

struct SchedulerOptions {
  /// Threads running sampler quanta.
  size_t workers = 2;
  /// Sample units per quantum (also the update cadence: one update line
  /// per serviced quantum).
  size_t quantum = 256;
  Policy policy = Policy::kAdaptive;
  /// CI-halfwidth-equivalent priority added per second a runnable task
  /// waits unserviced; bounds starvation under kAdaptive.
  double aging_rate = 0.05;
  /// Split-R̂ below this (plus CI inside epsilon) completes an MCMC
  /// subscription early.
  double rhat_threshold = 1.05;
  /// Recorded-sample floor before convergence completion is considered.
  size_t min_samples = 64;
  /// Subscribe() fails with ResourceExhausted past this many live
  /// subscriptions.
  size_t max_subscriptions = 4096;
};

/// Delivers one NDJSON line to a subscriber. `droppable` marks incremental
/// updates a slow consumer may coalesce/drop; completion and error lines
/// are never droppable.
using UpdateSink =
    std::function<void(const std::string& line, bool droppable)>;

/// One subscription request, pre-resolved by the caller (program/instance
/// lookup, backend gating) down to a sampler factory.
struct SubscriptionSpec {
  std::string kind;  ///< "approx" | "mcmc" | "trajectory"
  /// Fusion identity — subscriptions sharing a non-empty key share one
  /// sampler. Callers pass the PR3 result-cache key fingerprint.
  std::string fusion_key;
  /// CI target: the subscription completes once ci_halfwidth <= epsilon
  /// (and R̂ passes, for MCMC).
  double epsilon = 0.05;
  double delta = 0.05;
  bool is_mcmc = false;
  /// Builds the resumable sampler; called once, on the first quantum the
  /// task is serviced (so Subscribe stays cheap), with the token that
  /// Shutdown cancels. An error completes every attached subscription with
  /// a structured error push.
  std::function<StatusOr<std::unique_ptr<eval::ResumableSampler>>(
      const CancellationToken* cancel)>
      factory;
};

struct SubscribeResult {
  std::string id;  ///< "s-<n>", unique for the scheduler's lifetime
  /// True when the subscription attached to an existing task instead of
  /// creating one.
  bool fused = false;
};

class SampleScheduler {
 public:
  explicit SampleScheduler(const SchedulerOptions& options = {});
  ~SampleScheduler();

  SampleScheduler(const SampleScheduler&) = delete;
  SampleScheduler& operator=(const SampleScheduler&) = delete;

  /// Registers a subscription and wakes a worker. A fused subscription
  /// immediately receives the task's current snapshot as its first update.
  StatusOr<SubscribeResult> Subscribe(const SubscriptionSpec& spec,
                                      UpdateSink sink);

  /// Detaches the subscription and pushes a "complete"/"unsubscribed" line
  /// to it. False when the id is unknown (already completed or never
  /// existed). The backing task keeps sampling while other subscribers
  /// remain; with none left it is discarded.
  bool Unsubscribe(const std::string& id);

  /// Completes every live subscription with reason "shutdown" and joins
  /// the workers. Idempotent; the destructor calls it.
  void Shutdown();

  size_t ActiveSubscriptions() const;
  size_t ActiveTasks() const;
  /// Total sample units spent across all tasks (fusion economics bench).
  uint64_t TotalSamples() const;

  /// {"active_subscriptions":N,"active_tasks":N,"total_samples":N,
  ///  "policy":"adaptive",...}
  Json StatsJson() const;

  /// The cheap load gauges folded into the `health` payload so router
  /// probes can prefer lightly-loaded workers:
  /// {"subscriptions":N,   // live subscriptions
  ///  "fused_groups":N,    // live tasks shared by >= 2 subscribers
  ///  "queued_quanta":N}   // runnable tasks waiting for a worker slot
  Json HealthJson() const;

 private:
  struct Subscriber;
  struct Task;
  /// (sink, line, droppable) batches built under the lock, sent outside.
  struct Delivery;

  void WorkerLoop();
  /// Picks the next task per policy; null when none is runnable.
  Task* PickTaskLocked(std::chrono::steady_clock::time_point now);
  double PriorityLocked(const Task& task,
                        std::chrono::steady_clock::time_point now) const;
  void PushLocked(Task* task, const char* event, Json payload,
                  bool droppable, std::vector<Delivery>* out);
  Json ResultJsonLocked(const Task& task) const;
  /// Applies post-quantum bookkeeping: CI/R̂ refresh, completion decisions,
  /// update pushes. Returns deliveries to send outside the lock.
  std::vector<Delivery> SettleQuantumLocked(Task* task, const Status& status);
  void Deliver(std::vector<Delivery> deliveries);

  const SchedulerOptions options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers wait here for runnable tasks
  bool stopping_ = false;
  CancellationToken shutdown_token_;
  uint64_t next_sub_id_ = 1;
  uint64_t service_tick_ = 0;  ///< monotone counter ordering round-robin
  uint64_t total_samples_ = 0;
  std::vector<std::unique_ptr<Task>> tasks_;
  size_t active_subscriptions_ = 0;

  std::vector<std::thread> workers_;
};

}  // namespace sched
}  // namespace pfql

#endif  // PFQL_SCHED_SCHEDULER_H_
