#include "eval/resumable.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "util/fault_injection.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace pfql {
namespace eval {

namespace {

double Ratio(size_t hits, size_t n) {
  return n == 0 ? 0.0
                : static_cast<double>(hits) / static_cast<double>(n);
}

// 1 for each compiled state where `event` holds, indexed by state id.
std::vector<uint8_t> EventStates(const CompiledSpace& compiled,
                                 const QueryEvent& event) {
  std::vector<uint8_t> out;
  out.reserve(compiled.states.size());
  for (const Instance& state : compiled.states) {
    out.push_back(event.Holds(state) ? 1 : 0);
  }
  return out;
}

// Cancellation, deadlines and injected faults (Unavailable) interrupt a
// run; every other code is a hard evaluation error.
bool IsInterruption(const Status& status) {
  return status.code() == StatusCode::kCancelled ||
         status.code() == StatusCode::kDeadlineExceeded ||
         status.code() == StatusCode::kUnavailable;
}

// The pfql_sampler_* metrics of one one-shot run, labeled by estimator
// kind; compiled runs also count their chain steps.
void CountRun(const std::string& kind, const SamplerSnapshot& run,
              int64_t elapsed_us) {
  auto& registry = metrics::MetricRegistry::Instance();
  const std::string labels = "kind=\"" + kind + '"';
  auto count = [&](const char* total, const char* per_sec, size_t n) {
    registry.GetCounter(total, labels)->Increment(n);
    if (elapsed_us > 0 && n > 0) {
      registry.GetGauge(per_sec, labels)
          ->Set(static_cast<int64_t>(n) * 1000000 / elapsed_us);
    }
  };
  count("pfql_sampler_samples_total", "pfql_sampler_samples_per_sec",
        run.samples);
  registry.GetCounter("pfql_sampler_steps_total", labels)
      ->Increment(run.total_steps);
  if (run.backend == "compiled") {
    count("pfql_compiled_steps_total", "pfql_compiled_steps_per_sec",
          run.total_steps);
  }
  if (run.runs_completed > 0) {
    registry.GetCounter("pfql_trajectory_runs_total")
        ->Increment(run.runs_completed);
  }
}

}  // namespace

// ---- The tier rule -------------------------------------------------------

StatusOr<std::shared_ptr<const CompiledSpace>> CompileOrFallBack(
    const Interpretation& kernel, const Instance& initial, Backend backend,
    size_t compile_max_states, const CancellationToken* cancel,
    size_t threads) {
  if (backend == Backend::kInterpreted) {
    return std::shared_ptr<const CompiledSpace>();
  }
  CompileOptions copts;
  copts.max_states = compile_max_states;
  copts.threads = threads;
  copts.cancel = cancel;
  auto compiled = GetOrCompile(kernel, initial, copts);
  if (compiled.ok()) return compiled;
  if (backend == Backend::kCompiled) {
    // Keep the cause's code, so ResourceExhausted stays actionable, and
    // name the knob to turn.
    return Status(compiled.status().code(),
                  "PFQL-E060: backend 'compiled' was forced but chain "
                  "compilation failed: " +
                      compiled.status().message() +
                      " (raise compile_max_states or use backend=auto)");
  }
  if (compiled.status().code() != StatusCode::kResourceExhausted) {
    return compiled.status();
  }
  return std::shared_ptr<const CompiledSpace>();  // over budget: interpreted
}

// ---- ResumableApprox ---------------------------------------------------

ResumableApprox::ResumableApprox(
    std::shared_ptr<const datalog::Program> program,
    std::shared_ptr<const Instance> edb, QueryEvent event,
    const ApproxParams& params, size_t budget, Rng rng, WorldDraw draw_world)
    : program_(std::move(program)),
      edb_(std::move(edb)),
      event_(std::move(event)),
      delta_(params.delta),
      draw_world_(std::move(draw_world)),
      rng_(rng) {
  snap_.budget = budget;
}

Status ResumableApprox::RunQuantum(size_t quantum,
                                   const CancellationToken* cancel) {
  auto sample = [&]() -> Status {
    if (cancel != nullptr) PFQL_RETURN_NOT_OK(cancel->Check());
    if (fault::InjectFault(fault::points::kApproxSample)) {
      return fault::InjectedError(fault::points::kApproxSample);
    }
    Instance world;
    if (draw_world_) {
      PFQL_ASSIGN_OR_RETURN(world, draw_world_(&rng_));
    }
    const Instance& input = draw_world_ ? world : *edb_;
    if (!engine_.has_value()) {
      PFQL_ASSIGN_OR_RETURN(
          engine_, datalog::InflationaryEngine::Make(*program_, input));
    } else if (draw_world_) {
      PFQL_RETURN_NOT_OK(engine_->Restart(input));
    } else {
      engine_->Restart();
    }
    PFQL_ASSIGN_OR_RETURN(Instance fixpoint, engine_->RunToFixpoint(&rng_));
    snap_.total_steps += engine_->steps_taken();
    if (event_.Holds(fixpoint)) ++snap_.hits;
    ++snap_.samples;
    return Status::OK();
  };
  Status status;
  for (size_t done = 0; status.ok() && done < quantum && !Exhausted();
       ++done) {
    status = sample();
  }
  snap_.estimate = Ratio(snap_.hits, snap_.samples);
  snap_.ci_halfwidth = HoeffdingHalfwidth(delta_, snap_.samples);
  return status;
}

// ---- ResumableRestartMcmc ----------------------------------------------

ResumableRestartMcmc::ResumableRestartMcmc(
    std::shared_ptr<const CompiledKernel> kernel, Instance initial,
    QueryEvent event,
    std::shared_ptr<const CompiledSpace> compiled, const McmcParams& params,
    size_t budget, Rng rng)
    : kernel_(std::move(kernel)),
      initial_(std::move(initial)),
      event_(std::move(event)),
      compiled_(std::move(compiled)),
      burn_in_(params.burn_in),
      delta_(params.delta),
      rng_(rng) {
  snap_.budget = budget;
  snap_.backend = compiled_ != nullptr ? "compiled" : "interpreted";
  if (compiled_ != nullptr) event_states_ = EventStates(*compiled_, event_);
}

// A sample interrupted mid-burn-in is discarded, never counted. The
// compiled tier advances samples as a batch of walkers, so one chain step
// is an alias draw instead of a kernel interpretation; batches hold at most
// 512 samples, so a deadline mid-quantum still leaves the earlier batches
// as finished samples, and a fault at sample j of a batch runs the j
// before it.
Status ResumableRestartMcmc::RunQuantum(size_t quantum,
                                        const CancellationToken* cancel) {
  constexpr size_t kChunk = 512;
  quantum = std::min(quantum, snap_.budget - snap_.samples);
  CancelPoller poller(cancel);
  auto interpreted_sample = [&]() -> StatusOr<bool> {
    Instance state = initial_;
    for (size_t t = 0; t < burn_in_; ++t) {
      PFQL_RETURN_NOT_OK(poller.Tick());
      PFQL_RETURN_NOT_OK(kernel_->Step(&state, &rng_));
    }
    return event_.Holds(state);
  };
  std::vector<uint32_t> walkers;
  Status status;
  for (size_t done = 0, chunk = 0; status.ok() && done < quantum;
       done += chunk) {
    chunk = compiled_ != nullptr ? std::min(kChunk, quantum - done) : 1;
    size_t planned = 0;
    while (planned < chunk &&
           !fault::InjectFault(fault::points::kMcmcSample)) {
      ++planned;
    }
    if (compiled_ != nullptr) {
      walkers.assign(planned, 0);  // every sample restarts from `initial`
      status = compiled_->chain.StepBatch(&walkers, burn_in_, &rng_, cancel);
      if (!status.ok()) break;
      for (uint32_t w : walkers) snap_.hits += event_states_[w];
    } else if (planned == 1) {
      const StatusOr<bool> holds = interpreted_sample();
      status = holds.status();
      if (!status.ok()) break;
      if (*holds) ++snap_.hits;
    }
    snap_.total_steps += planned * burn_in_;
    snap_.samples += planned;
    if (planned < chunk) {
      status = fault::InjectedError(fault::points::kMcmcSample);
    }
  }
  snap_.estimate = Ratio(snap_.hits, snap_.samples);
  snap_.ci_halfwidth = HoeffdingHalfwidth(delta_, snap_.samples);
  return status;
}

// ---- ResumableMcmcChains -----------------------------------------------

ResumableMcmcChains::ResumableMcmcChains(
    std::shared_ptr<const CompiledKernel> kernel, Instance initial,
    QueryEvent event,
    std::shared_ptr<const CompiledSpace> compiled, const McmcParams& params,
    size_t num_chains, Rng rng)
    : kernel_(std::move(kernel)),
      event_(std::move(event)),
      delta_(params.delta),
      compiled_(std::move(compiled)) {
  const size_t chains = std::max<size_t>(2, num_chains);
  // Callers validate (ε, δ) first (BuildSubscription does, before the
  // subscribe ack); an invalid pair leaves no budget.
  const StatusOr<size_t> iid = HoeffdingCount(params.epsilon, params.delta);
  snap_.budget = params.max_samples > 0 ? params.max_samples
                 : iid.ok()             ? 4 * *iid + chains * params.burn_in
                                        : 0;
  if (compiled_ != nullptr) {
    event_states_ = EventStates(*compiled_, event_);
    state_ids_.assign(chains, 0);  // state 0 is the initial instance
    snap_.backend = "compiled";
  } else {
    state_instances_.assign(chains, initial);
    snap_.backend = "interpreted";
  }
  chain_rngs_.reserve(chains);
  for (size_t c = 0; c < chains; ++c) chain_rngs_.push_back(rng.Fork());
  burn_left_.assign(chains, params.burn_in);
  stats_.assign(chains, ChainStats{});
}

Status ResumableMcmcChains::StepChain(size_t c) {
  bool holds = false;
  if (compiled_ != nullptr) {
    state_ids_[c] = compiled_->chain.Step(state_ids_[c], &chain_rngs_[c]);
    holds = event_states_[state_ids_[c]] != 0;
  } else {
    PFQL_RETURN_NOT_OK(kernel_->Step(&state_instances_[c], &chain_rngs_[c]));
    holds = event_.Holds(state_instances_[c]);
  }
  ++snap_.total_steps;
  ++snap_.samples;  // burn-in consumes budget too; it is real work
  if (burn_left_[c] > 0) {
    --burn_left_[c];
  } else {
    ++stats_[c].count;
    if (holds) stats_[c].sum += 1.0;
  }
  return Status::OK();
}

Status ResumableMcmcChains::RunQuantum(size_t quantum,
                                       const CancellationToken* cancel) {
  // One fault check per quantum: a chain's unit is a single step.
  if (fault::InjectFault(fault::points::kMcmcSample)) {
    return fault::InjectedError(fault::points::kMcmcSample);
  }
  CancelPoller poller(cancel);
  Status status;
  for (size_t done = 0; done < quantum && !Exhausted(); ++done) {
    status = poller.Tick();
    if (status.ok()) status = StepChain(next_chain_);
    if (!status.ok()) break;
    next_chain_ = (next_chain_ + 1) % stats_.size();
  }
  // Checkpoint each chain at the quantum boundary so split-R̂ can halve the
  // recorded stream without a per-sample history. Compact geometrically if
  // a long-lived subscription accumulates thousands of boundaries.
  for (ChainStats& s : stats_) {
    if (!s.checkpoints.empty() && s.checkpoints.back().first == s.count) {
      continue;
    }
    s.checkpoints.emplace_back(s.count, s.sum);
    if (s.checkpoints.size() > 4096) {
      std::vector<std::pair<size_t, double>> kept;
      kept.reserve(s.checkpoints.size() / 2 + 1);
      for (size_t i = 0; i < s.checkpoints.size(); i += 2) {
        kept.push_back(s.checkpoints[i]);
      }
      kept.back() = s.checkpoints.back();
      s.checkpoints = std::move(kept);
    }
  }
  RefreshSnapshot();
  return status;
}

void ResumableMcmcChains::RefreshSnapshot() {
  size_t count = 0;
  double sum = 0.0;
  for (const ChainStats& s : stats_) {
    count += s.count;
    sum += s.sum;
  }
  snap_.estimate = count == 0 ? 0.0 : sum / static_cast<double>(count);
  // Optimistic iid bound over the pooled indicators; the scheduler replaces
  // it with the cross-chain var⁺ bound (sched/convergence.h) which also
  // accounts for between-chain disagreement.
  snap_.ci_halfwidth = HoeffdingHalfwidth(delta_, count);
}

// ---- ResumableTrajectory -----------------------------------------------

ResumableTrajectory::ResumableTrajectory(
    std::shared_ptr<const CompiledKernel> kernel, Instance initial,
    QueryEvent event,
    std::shared_ptr<const CompiledSpace> compiled,
    const TrajectoryParams& params, Rng rng)
    : kernel_(std::move(kernel)),
      initial_(std::move(initial)),
      event_(std::move(event)),
      compiled_(std::move(compiled)),
      params_(params),
      discard_(static_cast<size_t>(params.discard_fraction *
                                   static_cast<double>(params.steps))),
      rng_(rng) {
  snap_.budget = params.steps * params.runs;
  snap_.backend = compiled_ != nullptr ? "compiled" : "interpreted";
  if (compiled_ != nullptr) event_states_ = EventStates(*compiled_, event_);
  per_run_.reserve(params.runs);
}

Status ResumableTrajectory::RunQuantum(size_t quantum,
                                       const CancellationToken* cancel) {
  Status status;
  for (size_t done = 0; status.ok() && done < quantum && !Exhausted();) {
    const size_t n = std::min(quantum - done, params_.steps - run_step_);
    status = Advance(n, cancel);
    done += n;
  }
  RefreshSnapshot();
  return status;
}

Status ResumableTrajectory::Advance(size_t n,
                                    const CancellationToken* cancel) {
  if (run_step_ == 0) {  // fresh run: restart the walker at the initial
    if (fault::InjectFault(fault::points::kTrajectoryRun)) {
      return fault::InjectedError(fault::points::kTrajectoryRun);
    }
    if (compiled_ != nullptr) {
      state_id_ = 0;
    } else {
      state_instance_ = initial_;
    }
    run_hits_ = 0;
  }
  if (compiled_ != nullptr) {
    // One walker, polling the deadline every 4096 steps.
    const CompiledChain& chain = compiled_->chain;
    for (size_t t = run_step_; t < run_step_ + n; ++t) {
      if (cancel != nullptr && t % 4096 == 0) {
        PFQL_RETURN_NOT_OK(cancel->Check());
      }
      state_id_ = chain.Step(state_id_, &rng_);
      if (t >= discard_) run_hits_ += event_states_[state_id_];
    }
  } else {
    CancelPoller poller(cancel);
    for (size_t t = run_step_; t < run_step_ + n; ++t) {
      PFQL_RETURN_NOT_OK(poller.Tick());
      PFQL_RETURN_NOT_OK(kernel_->Step(&state_instance_, &rng_));
      if (t >= discard_ && event_.Holds(state_instance_)) ++run_hits_;
    }
  }
  run_step_ += n;
  snap_.samples += n;
  snap_.total_steps += n;
  if (run_step_ == params_.steps) {
    per_run_.push_back(Ratio(run_hits_, params_.steps - discard_));
    run_step_ = 0;
  }
  return Status::OK();
}

void ResumableTrajectory::RefreshSnapshot() {
  snap_.runs_completed = per_run_.size();
  if (per_run_.empty()) {
    snap_.estimate = 0.0;
    snap_.ci_halfwidth = 1.0;
    return;
  }
  double total = 0.0;
  for (double v : per_run_) total += v;
  const double mean = total / static_cast<double>(per_run_.size());
  snap_.estimate = mean;
  if (per_run_.size() < 2) {
    snap_.ci_halfwidth = 1.0;
    return;
  }
  double ss = 0.0;
  for (double v : per_run_) ss += (v - mean) * (v - mean);
  const double var = ss / static_cast<double>(per_run_.size() - 1);
  // A bounded [0,1] mean is sub-Gaussian with σ² ≤ 1/4, so z =
  // sqrt(2 ln(2/δ)) gives a distribution-free two-sided bound without an
  // inverse-normal table.
  const double z = std::sqrt(2.0 * std::log(2.0 / params_.delta));
  snap_.ci_halfwidth = std::min(
      1.0, z * std::sqrt(var / static_cast<double>(per_run_.size())));
}

// ---- RunToBudget -------------------------------------------------------

StatusOr<BudgetRun> RunToBudget(const char* kind, size_t budget,
                                size_t threads, const ShardFactory& make,
                                double delta, Rng* rng,
                                const CancellationToken* cancel,
                                bool allow_partial) {
  const std::string name(kind);
  const std::string span =
      name == "trajectory" ? "trajectory.sample" : name + ".worker";
  BudgetRun run;
  const size_t k = std::max<size_t>(1, std::min(threads, budget));
  for (size_t i = 0; i < k; ++i) {
    run.shards.push_back(
        make(budget / k + (i < budget % k ? 1 : 0), rng->Fork()));
  }
  std::vector<Status> statuses(k);
  auto run_shard = [&](size_t i) {
    trace::Span worker_span(span);
    ResumableSampler& shard = *run.shards[i];
    statuses[i] = shard.RunQuantum(shard.snapshot().budget, cancel);
  };
  const auto started = std::chrono::steady_clock::now();
  // Shard 0 runs on the calling thread; the others join the request's trace
  // (one worker span each) by installing the calling thread's context.
  const trace::Context ctx = trace::Current();
  std::vector<std::thread> pool;
  for (size_t i = 1; i < k; ++i) {
    pool.emplace_back([&, i] {
      trace::ScopedContext sc(ctx);
      run_shard(i);
    });
  }
  run_shard(0);
  for (auto& t : pool) t.join();
  const int64_t elapsed_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - started)
          .count();

  SamplerSnapshot merged = run.shards[0]->snapshot();
  for (size_t i = 1; i < k; ++i) {
    const SamplerSnapshot& s = run.shards[i]->snapshot();
    merged.samples += s.samples;
    merged.budget += s.budget;
    merged.total_steps += s.total_steps;
    merged.hits += s.hits;
  }
  if (k > 1) {
    merged.estimate = Ratio(merged.hits, merged.samples);
    merged.ci_halfwidth = HoeffdingHalfwidth(delta, merged.samples);
  }
  CountRun(name, merged, elapsed_us);

  ApproxResult& result = run.result;
  result.estimate = merged.estimate;
  result.samples = merged.samples;
  result.samples_requested = merged.budget;
  result.total_steps = merged.total_steps;
  result.ci_halfwidth = merged.ci_halfwidth;
  for (const Status& status : statuses) {
    if (status.ok()) continue;
    if (!allow_partial || !IsInterruption(status)) return status;
    if (result.interruption.ok()) result.interruption = status;
  }
  if (!result.interruption.ok()) {
    // Nothing finished means no estimate to degrade to.
    if (merged.samples == 0) return result.interruption;
    result.degraded = true;
    metrics::MetricRegistry::Instance()
        .GetCounter("pfql_sampler_degraded_total",
                    "kind=\"" + name + "\",cause=\"" +
                        StatusCodeToString(result.interruption.code()) + '"')
        ->Increment();
  }
  return run;
}

}  // namespace eval
}  // namespace pfql
