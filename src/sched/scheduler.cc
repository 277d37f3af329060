#include "sched/scheduler.h"

#include <algorithm>
#include <utility>

#include "sched/convergence.h"
#include "util/metrics.h"

namespace pfql {
namespace sched {

namespace {

metrics::Counter* CompletedCounter(const std::string& reason) {
  return metrics::MetricRegistry::Instance().GetCounter(
      "pfql_sched_completed_total", "reason=\"" + reason + "\"");
}

metrics::Gauge* ActiveSubsGauge() {
  static metrics::Gauge* const g =
      metrics::MetricRegistry::Instance().GetGauge(
          "pfql_sched_active_subscriptions");
  return g;
}

metrics::Gauge* ActiveTasksGauge() {
  static metrics::Gauge* const g =
      metrics::MetricRegistry::Instance().GetGauge("pfql_sched_active_tasks");
  return g;
}

}  // namespace

const char* PolicyToString(Policy policy) {
  switch (policy) {
    case Policy::kAdaptive:
      return "adaptive";
    case Policy::kRoundRobin:
      return "round_robin";
  }
  return "adaptive";
}

struct SampleScheduler::Subscriber {
  std::string id;
  UpdateSink sink;
  uint64_t seq = 0;
};

struct SampleScheduler::Task {
  std::string kind;
  std::string fusion_key;
  double epsilon = 0.05;
  double delta = 0.05;
  bool is_mcmc = false;
  decltype(SubscriptionSpec::factory) factory;
  std::unique_ptr<eval::ResumableSampler> sampler;
  std::vector<std::unique_ptr<Subscriber>> subs;

  /// Effective CI halfwidth driving priority (var⁺-based for MCMC once
  /// split-R̂ is valid, the sampler's own bound otherwise).
  double ci = 1.0;
  double rhat = 0.0;
  bool rhat_valid = false;
  bool running = false;  ///< a worker is mid-quantum on this task
  bool done = false;
  uint64_t prev_samples = 0;  ///< snapshot.samples at last settle
  std::chrono::steady_clock::time_point last_service;
  uint64_t last_tick = 0;  ///< service order for round-robin
};

struct SampleScheduler::Delivery {
  UpdateSink sink;
  std::string line;
  bool droppable = false;
};

SampleScheduler::SampleScheduler(const SchedulerOptions& options)
    : options_(options) {
  const size_t workers = std::max<size_t>(1, options_.workers);
  workers_.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

SampleScheduler::~SampleScheduler() { Shutdown(); }

StatusOr<SubscribeResult> SampleScheduler::Subscribe(
    const SubscriptionSpec& spec, UpdateSink sink) {
  std::vector<Delivery> deliveries;
  SubscribeResult result;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return Status::FailedPrecondition("scheduler is shut down");
    }
    if (active_subscriptions_ >= options_.max_subscriptions) {
      return Status::ResourceExhausted(
          "subscription limit reached (" +
          std::to_string(options_.max_subscriptions) + " live)");
    }
    Task* task = nullptr;
    if (!spec.fusion_key.empty()) {
      for (const auto& t : tasks_) {
        if (!t->done && t->fusion_key == spec.fusion_key &&
            t->kind == spec.kind) {
          task = t.get();
          break;
        }
      }
    }
    result.fused = task != nullptr;
    if (task == nullptr) {
      auto fresh = std::make_unique<Task>();
      fresh->kind = spec.kind;
      fresh->fusion_key = spec.fusion_key;
      fresh->epsilon = spec.epsilon;
      fresh->delta = spec.delta;
      fresh->is_mcmc = spec.is_mcmc;
      fresh->factory = spec.factory;
      fresh->last_service = std::chrono::steady_clock::now();
      task = fresh.get();
      tasks_.push_back(std::move(fresh));
    }

    auto sub = std::make_unique<Subscriber>();
    sub->id = "s-" + std::to_string(next_sub_id_++);
    sub->sink = std::move(sink);
    result.id = sub->id;
    // A fused subscriber starts from the task's current progress: push the
    // present snapshot as its first update so it never waits a quantum to
    // see data that already exists. Mid-quantum the worker owns the
    // sampler, so skip the catch-up — the settling quantum pushes an
    // update moments later anyway.
    if (result.fused && !task->running && task->sampler != nullptr) {
      Json line = ResultJsonLocked(*task);
      Json push = Json::Object();
      push.Set("sub", sub->id);
      push.Set("event", "update");
      push.Set("seq", static_cast<int64_t>(++sub->seq));
      push.Set("result", std::move(line));
      deliveries.push_back({sub->sink, push.Dump(), true});
    }
    task->subs.push_back(std::move(sub));
    ++active_subscriptions_;

    auto& registry = metrics::MetricRegistry::Instance();
    registry
        .GetCounter("pfql_sched_subscriptions_total",
                    "kind=\"" + spec.kind + "\"")
        ->Increment();
    if (result.fused) {
      static metrics::Counter* const fused =
          registry.GetCounter("pfql_sched_fused_total");
      fused->Increment();
    }
    ActiveSubsGauge()->Set(static_cast<int64_t>(active_subscriptions_));
    ActiveTasksGauge()->Set(static_cast<int64_t>(tasks_.size()));
  }
  work_cv_.notify_one();
  Deliver(std::move(deliveries));
  return result;
}

bool SampleScheduler::Unsubscribe(const std::string& id) {
  std::vector<Delivery> deliveries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Task* owner = nullptr;
    size_t index = 0;
    for (const auto& t : tasks_) {
      for (size_t i = 0; i < t->subs.size(); ++i) {
        if (t->subs[i]->id == id) {
          owner = t.get();
          index = i;
          break;
        }
      }
      if (owner != nullptr) break;
    }
    if (owner == nullptr) return false;

    Subscriber* sub = owner->subs[index].get();
    Json push = Json::Object();
    push.Set("sub", sub->id);
    push.Set("event", "complete");
    push.Set("seq", static_cast<int64_t>(++sub->seq));
    push.Set("reason", "unsubscribed");
    // Mid-quantum the worker owns the sampler; the parting line then
    // simply omits the last-known result.
    if (!owner->running && owner->sampler != nullptr) {
      push.Set("result", ResultJsonLocked(*owner));
    }
    deliveries.push_back({sub->sink, push.Dump(), false});
    owner->subs.erase(owner->subs.begin() + static_cast<ptrdiff_t>(index));
    --active_subscriptions_;
    CompletedCounter("unsubscribed")->Increment();
    // A task nobody watches stops sampling. Mid-quantum tasks finish the
    // quantum first (SettleQuantumLocked notices the empty roster).
    if (owner->subs.empty() && !owner->running) owner->done = true;
    tasks_.erase(std::remove_if(tasks_.begin(), tasks_.end(),
                                [](const std::unique_ptr<Task>& t) {
                                  return t->done && !t->running;
                                }),
                 tasks_.end());
    ActiveSubsGauge()->Set(static_cast<int64_t>(active_subscriptions_));
    ActiveTasksGauge()->Set(static_cast<int64_t>(tasks_.size()));
  }
  Deliver(std::move(deliveries));
  return true;
}

void SampleScheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  shutdown_token_.Cancel();
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();

  std::vector<Delivery> deliveries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& task : tasks_) {
      for (const auto& sub : task->subs) {
        Json push = Json::Object();
        push.Set("sub", sub->id);
        push.Set("event", "complete");
        push.Set("seq", static_cast<int64_t>(++sub->seq));
        push.Set("reason", "shutdown");
        if (task->sampler != nullptr) {
          push.Set("result", ResultJsonLocked(*task));
        }
        deliveries.push_back({sub->sink, push.Dump(), false});
        CompletedCounter("shutdown")->Increment();
      }
    }
    tasks_.clear();
    active_subscriptions_ = 0;
    ActiveSubsGauge()->Set(0);
    ActiveTasksGauge()->Set(0);
  }
  Deliver(std::move(deliveries));
}

size_t SampleScheduler::ActiveSubscriptions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_subscriptions_;
}

size_t SampleScheduler::ActiveTasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t live = 0;
  for (const auto& t : tasks_) {
    if (!t->done) ++live;
  }
  return live;
}

uint64_t SampleScheduler::TotalSamples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_samples_;
}

Json SampleScheduler::StatsJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json out = Json::Object();
  out.Set("active_subscriptions",
          static_cast<int64_t>(active_subscriptions_));
  size_t live = 0;
  for (const auto& t : tasks_) {
    if (!t->done) ++live;
  }
  out.Set("active_tasks", static_cast<int64_t>(live));
  out.Set("total_samples", static_cast<int64_t>(total_samples_));
  out.Set("policy", PolicyToString(options_.policy));
  out.Set("quantum", static_cast<int64_t>(options_.quantum));
  out.Set("workers",
          static_cast<int64_t>(std::max<size_t>(1, options_.workers)));
  return out;
}

Json SampleScheduler::HealthJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json out = Json::Object();
  out.Set("subscriptions", static_cast<int64_t>(active_subscriptions_));
  size_t fused = 0;
  size_t queued = 0;
  for (const auto& t : tasks_) {
    if (t->done) continue;
    if (t->subs.size() >= 2) ++fused;
    if (!t->running && !t->subs.empty()) ++queued;
  }
  out.Set("fused_groups", static_cast<int64_t>(fused));
  out.Set("queued_quanta", static_cast<int64_t>(queued));
  return out;
}

double SampleScheduler::PriorityLocked(
    const Task& task, std::chrono::steady_clock::time_point now) const {
  const double waited =
      std::chrono::duration<double>(now - task.last_service).count();
  return task.ci + options_.aging_rate * waited;
}

SampleScheduler::Task* SampleScheduler::PickTaskLocked(
    std::chrono::steady_clock::time_point now) {
  Task* best = nullptr;
  for (const auto& t : tasks_) {
    if (t->running || t->done || t->subs.empty()) continue;
    if (best == nullptr) {
      best = t.get();
      continue;
    }
    if (options_.policy == Policy::kRoundRobin) {
      if (t->last_tick < best->last_tick) best = t.get();
    } else if (PriorityLocked(*t, now) > PriorityLocked(*best, now)) {
      best = t.get();
    }
  }
  return best;
}

Json SampleScheduler::ResultJsonLocked(const Task& task) const {
  Json out = Json::Object();
  const eval::SamplerSnapshot& snap = task.sampler->snapshot();
  out.Set("kind", task.kind);
  out.Set("estimate", snap.estimate);
  out.Set("ci_halfwidth", task.ci);
  out.Set("ci_confidence", 1.0 - task.delta);
  out.Set("samples", static_cast<int64_t>(snap.samples));
  out.Set("budget", static_cast<int64_t>(snap.budget));
  out.Set("total_steps", static_cast<int64_t>(snap.total_steps));
  // Not degraded until a budget completion says otherwise; the final
  // complete line overwrites this field.
  out.Set("degraded", false);
  if (!snap.backend.empty()) out.Set("backend", snap.backend);
  if (snap.runs_completed > 0) {
    out.Set("runs_completed", static_cast<int64_t>(snap.runs_completed));
  }
  if (task.rhat_valid) out.Set("rhat", task.rhat);
  return out;
}

void SampleScheduler::PushLocked(Task* task, const char* event, Json payload,
                                 bool droppable,
                                 std::vector<Delivery>* out) {
  for (const auto& sub : task->subs) {
    Json push = payload;  // per-subscriber copy: sub/seq differ
    push.Set("sub", sub->id);
    push.Set("event", event);
    push.Set("seq", static_cast<int64_t>(++sub->seq));
    out->push_back({sub->sink, push.Dump(), droppable});
  }
}

std::vector<SampleScheduler::Delivery>
SampleScheduler::SettleQuantumLocked(Task* task, const Status& status) {
  std::vector<Delivery> deliveries;
  auto& registry = metrics::MetricRegistry::Instance();
  static metrics::Counter* const quanta =
      registry.GetCounter("pfql_sched_quanta_total");
  static metrics::Counter* const updates =
      registry.GetCounter("pfql_sched_updates_total");
  static metrics::Gauge* const rhat_gauge =
      registry.GetGauge("pfql_sched_rhat");
  quanta->Increment();
  task->last_service = std::chrono::steady_clock::now();
  task->last_tick = ++service_tick_;
  if (task->sampler != nullptr) {
    const uint64_t samples = task->sampler->snapshot().samples;
    if (samples > task->prev_samples) {
      registry
          .GetCounter("pfql_sched_samples_total", "kind=\"" + task->kind + '"')
          ->Increment(samples - task->prev_samples);
    }
    total_samples_ += samples - task->prev_samples;
    task->prev_samples = samples;
  }
  if (task->subs.empty()) {  // everyone unsubscribed mid-quantum
    task->done = true;
    return deliveries;
  }
  if (!status.ok()) {
    if (stopping_) return deliveries;  // Shutdown() will push "shutdown"
    Json error = Json::Object();
    error.Set("code", StatusCodeToString(status.code()));
    error.Set("message", status.message());
    Json payload = Json::Object();
    payload.Set("error", std::move(error));
    PushLocked(task, "error", std::move(payload), false, &deliveries);
    for (size_t i = 0; i < task->subs.size(); ++i) {
      CompletedCounter("error")->Increment();
    }
    active_subscriptions_ -= task->subs.size();
    task->subs.clear();
    task->done = true;
    ActiveSubsGauge()->Set(static_cast<int64_t>(active_subscriptions_));
    return deliveries;
  }

  const eval::SamplerSnapshot& snap = task->sampler->snapshot();
  task->ci = snap.ci_halfwidth;
  if (task->is_mcmc) {
    auto* chains = dynamic_cast<eval::ResumableMcmcChains*>(
        task->sampler.get());
    if (chains != nullptr) {
      ConvergenceResult conv =
          SplitRhat(chains->chains(), task->delta);
      task->rhat_valid = conv.valid;
      if (conv.valid) {
        task->rhat = conv.rhat;
        // var⁺ widens under cross-chain disagreement, so an unconverged
        // chain keeps its priority even when the pooled bound looks tight.
        task->ci = std::max(task->ci, conv.ci_halfwidth);
        rhat_gauge->SetDouble(conv.rhat);
      }
    }
  }

  const bool ci_met =
      snap.samples >= options_.min_samples && task->ci <= task->epsilon;
  const bool rhat_met =
      !task->is_mcmc ||
      (task->rhat_valid && task->rhat <= options_.rhat_threshold);
  const bool converged = ci_met && rhat_met;
  const bool exhausted = task->sampler->Exhausted();
  if (converged || exhausted) {
    Json result = ResultJsonLocked(*task);
    const char* reason = converged ? "converged" : "budget";
    if (!converged) result.Set("degraded", true);
    Json payload = Json::Object();
    payload.Set("reason", reason);
    payload.Set("result", std::move(result));
    PushLocked(task, "complete", std::move(payload), false, &deliveries);
    for (size_t i = 0; i < task->subs.size(); ++i) {
      CompletedCounter(reason)->Increment();
    }
    active_subscriptions_ -= task->subs.size();
    task->subs.clear();
    task->done = true;
    ActiveSubsGauge()->Set(static_cast<int64_t>(active_subscriptions_));
    return deliveries;
  }

  Json payload = Json::Object();
  payload.Set("result", ResultJsonLocked(*task));
  PushLocked(task, "update", std::move(payload), true, &deliveries);
  updates->Increment(task->subs.size());
  return deliveries;
}

void SampleScheduler::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    Task* task = PickTaskLocked(std::chrono::steady_clock::now());
    if (task == nullptr) {
      work_cv_.wait(lock);
      continue;
    }
    task->running = true;
    // While running, this worker owns the sampler exclusively: other
    // threads may read the task->sampler pointer under mu_ but must not
    // dereference it until running is cleared.
    eval::ResumableSampler* sampler = task->sampler.get();
    lock.unlock();

    Status status;
    std::unique_ptr<eval::ResumableSampler> built;
    if (sampler == nullptr) {
      auto made = task->factory(&shutdown_token_);
      if (made.ok()) {
        built = std::move(*made);
        sampler = built.get();
      } else {
        status = made.status();
      }
    }
    if (status.ok() && sampler != nullptr) {
      status = sampler->RunQuantum(options_.quantum, &shutdown_token_);
    }

    lock.lock();
    if (built != nullptr) task->sampler = std::move(built);
    std::vector<Delivery> deliveries = SettleQuantumLocked(task, status);
    task->running = false;
    tasks_.erase(std::remove_if(tasks_.begin(), tasks_.end(),
                                [](const std::unique_ptr<Task>& t) {
                                  return t->done && !t->running;
                                }),
                 tasks_.end());
    ActiveTasksGauge()->Set(static_cast<int64_t>(tasks_.size()));
    if (!deliveries.empty()) {
      lock.unlock();
      Deliver(std::move(deliveries));
      lock.lock();
    }
  }
}

void SampleScheduler::Deliver(std::vector<Delivery> deliveries) {
  for (Delivery& d : deliveries) {
    if (d.sink) d.sink(d.line, d.droppable);
  }
}

}  // namespace sched
}  // namespace pfql
