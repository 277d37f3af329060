#include "server/executor.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "analysis/cost_model.h"
#include "datalog/engine.h"
#include "datalog/query_parse.h"
#include "datalog/translate.h"
#include "eval/inflationary.h"
#include "eval/noninflationary.h"
#include "eval/partition.h"
#include "eval/resumable.h"
#include "eval/trajectory.h"
#include "relational/text_io.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/trace.h"

namespace pfql {
namespace server {

namespace {

// ---- Analyzer-driven planning (src/analysis/cost_model.h) --------------
//
// Before an exact evaluator or a compile attempt spends any budget, the
// executor runs the static cost model. Its *lower* bound is certified
// reachable, so `lo > budget` proves the run would exhaust the budget —
// the safe direction for upfront rejection (a sound upper bound alone
// could only ever say "maybe").

analysis::CostReport PlanReport(const Request& request,
                                const datalog::Program& program,
                                const Instance& edb,
                                analysis::DiagnosticSink* sink) {
  trace::Span span("plan.analyze");
  analysis::CostOptions options;
  options.edb = &edb;
  options.max_states = request.max_states;
  options.compile_max_states = request.compile_max_states;
  options.emit_diagnostics = sink != nullptr;
  analysis::DiagnosticSink local;
  return analysis::AnalyzeCost(program, options,
                               sink != nullptr ? sink : &local);
}

void CountPlanRejected(const char* kind) {
  metrics::MetricRegistry::Instance()
      .GetCounter("pfql_plan_rejected_total",
                  std::string("kind=\"") + kind + '"')
      ->Increment();
}

// Upfront rejection for the exact (state-enumerating) kinds: when the
// certified lower bound already exceeds max_states, BuildStateSpace is
// guaranteed to hit ResourceExhausted mid-BFS — fail in O(analysis) now.
Status CheckExactBudget(const analysis::CostReport& report,
                        const Request& request, const char* kind) {
  if (report.states.lo <= request.max_states) return Status::OK();
  CountPlanRejected(kind);
  return Status::ResourceExhausted(
      std::string("PFQL-E070: predicted state-space lower bound ") +
      std::to_string(report.states.lo) + " exceeds max_states " +
      std::to_string(request.max_states) +
      "; raise max_states or use a sampling method (mcmc, trajectory)");
}

// kAuto compile gate for the sampled kinds: when the chain provably
// exceeds compile_max_states, skip the doomed GetOrCompile BFS and go
// straight to the interpreted tier. A *forced* compiled backend is
// instead rejected upfront (same outcome GetOrCompile would reach, minus
// the wasted enumeration).
StatusOr<eval::Backend> PlanBackend(const analysis::CostReport& report,
                                    const Request& request,
                                    const char* kind) {
  PFQL_ASSIGN_OR_RETURN(eval::Backend backend,
                        eval::BackendFromString(request.backend));
  if (report.states.lo <= request.compile_max_states) return backend;
  if (backend == eval::Backend::kCompiled) {
    CountPlanRejected(kind);
    return Status::ResourceExhausted(
        std::string("PFQL-E070: backend 'compiled' was forced but the "
                    "predicted state-space lower bound ") +
        std::to_string(report.states.lo) + " exceeds compile_max_states " +
        std::to_string(request.compile_max_states) +
        "; raise compile_max_states or use backend 'interpreted'");
  }
  if (backend == eval::Backend::kAuto) {
    metrics::MetricRegistry::Instance()
        .GetCounter("pfql_plan_skipped_compiles_total",
                    std::string("kind=\"") + kind + '"')
        ->Increment();
    return eval::Backend::kInterpreted;
  }
  return backend;
}

// Predicted-vs-actual accounting after a successful exact evaluation: the
// soundness contract is lo <= actual <= hi, so any violation is a cost-
// model bug worth alerting on.
void RecordPlanAccuracy(const analysis::CostReport& report,
                        uint64_t actual_states, const char* kind) {
  auto& registry = metrics::MetricRegistry::Instance();
  const std::string labels = std::string("kind=\"") + kind + '"';
  auto clamp = [](uint64_t v) {
    return static_cast<int64_t>(
        std::min<uint64_t>(v, std::numeric_limits<int64_t>::max()));
  };
  registry.GetGauge("pfql_plan_predicted_states_lo", labels)
      ->Set(clamp(report.states.lo));
  registry.GetGauge("pfql_plan_predicted_states_hi", labels)
      ->Set(clamp(report.states.hi));
  registry.GetGauge("pfql_plan_actual_states", labels)
      ->Set(clamp(actual_states));
  if (actual_states < report.states.lo ||
      actual_states > report.states.hi) {
    registry.GetCounter("pfql_plan_bound_violations_total", labels)
        ->Increment();
  }
}

void SetProbability(const BigRational& p, Json* payload) {
  payload->Set("probability", p.ToString());
  payload->Set("probability_double", p.ToDouble());
}

// Degradation fields shared by the sampled kinds (schema in docs/SERVER.md
// §degraded responses). A degraded payload reports the CI half-width the
// completed samples still support at confidence 1 − δ, taken from the
// sampler run — the honest replacement for the requested epsilon.
void SetDegradation(bool degraded, const Status& interruption,
                    double ci_halfwidth, double delta, Json* payload) {
  payload->Set("degraded", degraded);
  if (!degraded) return;
  payload->Set("interrupted_by", StatusCodeToString(interruption.code()));
  payload->Set("ci_halfwidth", ci_halfwidth);
  payload->Set("ci_confidence", 1.0 - delta);
}

// Tier fields of the chain-sampling kinds.
void SetBackend(bool compiled, size_t states, size_t edges, Json* payload) {
  payload->Set("backend", compiled ? "compiled" : "interpreted");
  if (compiled) {
    payload->Set("compiled_states", states);
    payload->Set("compiled_edges", edges);
  }
}

// Sampler options from a request, shared by the one-shot kinds and
// subscriptions. `backend` is the planned tier (PlanBackend).
eval::ApproxParams ApproxParamsFor(const Request& request,
                                   const CancellationToken* cancel) {
  eval::ApproxParams params;
  params.epsilon = request.epsilon;
  params.delta = request.delta;
  params.threads = request.threads;
  params.cancel = cancel;
  params.max_samples = request.max_samples;
  params.allow_partial = request.allow_partial;
  return params;
}

eval::McmcParams McmcParamsFor(const Request& request, eval::Backend backend,
                               const CancellationToken* cancel) {
  eval::McmcParams params;
  // "auto" burn-in: one-shot mcmc measures the TV mixing time instead;
  // subscriptions keep 100, because R̂ *observes* mixing online instead of
  // assuming a pre-measured bound.
  params.burn_in = request.burn_in.value_or(100);
  params.epsilon = request.epsilon;
  params.delta = request.delta;
  params.threads = request.threads;
  params.cancel = cancel;
  params.max_samples = request.max_samples;
  params.allow_partial = request.allow_partial;
  params.backend = backend;
  params.compile_max_states = request.compile_max_states;
  return params;
}

eval::TrajectoryParams TrajectoryParamsFor(const Request& request,
                                           eval::Backend backend,
                                           const CancellationToken* cancel) {
  eval::TrajectoryParams params;
  params.steps = request.steps;
  params.runs = request.runs;
  params.delta = request.delta;
  params.cancel = cancel;
  params.allow_partial = request.allow_partial;
  params.backend = backend;
  params.compile_max_states = request.compile_max_states;
  return params;
}

StatusOr<Json> ExecuteRun(const Request& request,
                          const datalog::Program& program,
                          const Instance& edb) {
  Rng rng(request.seed);
  PFQL_ASSIGN_OR_RETURN(datalog::InflationaryEngine engine,
                        datalog::InflationaryEngine::Make(program, edb));
  PFQL_ASSIGN_OR_RETURN(Instance fixpoint, engine.RunToFixpoint(&rng));
  Json payload = Json::Object();
  payload.Set("steps", engine.steps_taken());
  payload.Set("fixpoint", FormatInstance(fixpoint));
  return payload;
}

StatusOr<Json> ExecuteExact(const Request& request,
                            const datalog::Program& program,
                            const Instance& edb, const QueryEvent& event,
                            const CancellationToken* cancel) {
  datalog::ExactInflationaryOptions options;
  options.max_nodes = request.max_nodes;
  options.cancel = cancel;
  size_t nodes = 0;
  PFQL_ASSIGN_OR_RETURN(
      BigRational p,
      eval::ExactInflationary(program, edb, event, options, &nodes));
  static metrics::Counter* const nodes_counter =
      metrics::MetricRegistry::Instance().GetCounter(
          "pfql_exact_nodes_total");
  nodes_counter->Increment(nodes);
  Json payload = Json::Object();
  payload.Set("event", event.ToString());
  SetProbability(p, &payload);
  payload.Set("nodes", nodes);
  return payload;
}

StatusOr<Json> ExecuteApprox(const Request& request,
                             const datalog::Program& program,
                             const Instance& edb, const QueryEvent& event,
                             const CancellationToken* cancel) {
  const eval::ApproxParams params = ApproxParamsFor(request, cancel);
  Rng rng(request.seed);
  PFQL_ASSIGN_OR_RETURN(
      eval::ApproxResult r,
      eval::ApproxInflationary(program, edb, event, params, &rng));
  Json payload = Json::Object();
  payload.Set("event", event.ToString());
  payload.Set("estimate", r.estimate);
  payload.Set("samples", r.samples);
  payload.Set("samples_requested", r.samples_requested);
  payload.Set("total_steps", r.total_steps);
  payload.Set("epsilon", params.epsilon);
  payload.Set("delta", params.delta);
  SetDegradation(r.degraded, r.interruption, r.ci_halfwidth, params.delta,
                 &payload);
  return payload;
}

// exact with fallback:"approx": when exact evaluation exhausts its node
// budget or deadline, re-dispatch to Thm 4.3 sampling under the *same*
// cancellation token — the sampler inherits whatever deadline remains and
// returns a degraded partial estimate if that expires too. A hard failure
// of the fallback reports the original exact error (the one the caller can
// act on by raising max_nodes).
StatusOr<Json> ExecuteExactWithFallback(const Request& request,
                                        const datalog::Program& program,
                                        const Instance& edb,
                                        const QueryEvent& event,
                                        const CancellationToken* cancel) {
  StatusOr<Json> exact = ExecuteExact(request, program, edb, event, cancel);
  if (exact.ok() || request.fallback != "approx") return exact;
  const StatusCode code = exact.status().code();
  if (code != StatusCode::kResourceExhausted &&
      code != StatusCode::kDeadlineExceeded &&
      code != StatusCode::kCancelled) {
    return exact;
  }
  Request approx_request = request;
  approx_request.allow_partial = true;
  StatusOr<Json> approx =
      ExecuteApprox(approx_request, program, edb, event, cancel);
  if (!approx.ok()) return exact;
  metrics::MetricRegistry::Instance()
      .GetCounter("pfql_sampler_degraded_total",
                  std::string("kind=\"exact\",cause=\"") +
                      StatusCodeToString(code) + '"')
      ->Increment();
  Json payload = std::move(approx).value();
  payload.Set("degraded", true);
  payload.Set("fallback_from", "exact");
  payload.Set("fallback_reason", StatusCodeToString(code));
  return payload;
}

StatusOr<Json> ExecuteForever(const Request& request,
                              const datalog::Program& program,
                              const Instance& edb, const QueryEvent& event,
                              const CancellationToken* cancel) {
  const analysis::CostReport plan =
      PlanReport(request, program, edb, nullptr);
  PFQL_RETURN_NOT_OK(CheckExactBudget(plan, request, "forever"));
  PFQL_ASSIGN_OR_RETURN(datalog::TranslatedQuery tq,
                        datalog::TranslateNonInflationary(program, edb));
  StateSpaceOptions options;
  options.max_states = request.max_states;
  options.threads = request.threads;
  options.cancel = cancel;
  PFQL_ASSIGN_OR_RETURN(
      eval::ExactForeverResult r,
      eval::ExactForever({tq.kernel, event}, tq.initial, options));
  RecordPlanAccuracy(plan, r.num_states, "forever");
  Json payload = Json::Object();
  payload.Set("event", event.ToString());
  SetProbability(r.probability, &payload);
  payload.Set("states", r.num_states);
  payload.Set("components", r.num_components);
  payload.Set("bottom_components", r.num_bottom);
  payload.Set("irreducible", r.irreducible);
  payload.Set("aperiodic", r.aperiodic);
  return payload;
}

StatusOr<Json> ExecuteMcmc(const Request& request,
                           const datalog::Program& program,
                           const Instance& edb, const QueryEvent& event,
                           const CancellationToken* cancel) {
  const analysis::CostReport plan =
      PlanReport(request, program, edb, nullptr);
  PFQL_ASSIGN_OR_RETURN(datalog::TranslatedQuery tq,
                        datalog::TranslateNonInflationary(program, edb));
  PFQL_ASSIGN_OR_RETURN(eval::Backend backend,
                        PlanBackend(plan, request, "mcmc"));
  eval::McmcParams params = McmcParamsFor(request, backend, cancel);
  // The mixing-time measurement reads epsilon too: reject bad values first.
  PFQL_RETURN_NOT_OK(
      eval::HoeffdingCount(params.epsilon, params.delta).status());
  const bool measured = !request.burn_in.has_value();
  if (measured) {
    // "auto": measure the TV mixing time on the explicit chain. The
    // measurement honours the same budget and deadline as the sampler —
    // and the same upfront rejection, since it enumerates the state space.
    PFQL_RETURN_NOT_OK(CheckExactBudget(plan, request, "mcmc"));
    StateSpaceOptions options;
    options.max_states = request.max_states;
    options.cancel = cancel;
    trace::Span span("mcmc.measure_mixing");
    PFQL_ASSIGN_OR_RETURN(
        params.burn_in,
        eval::MeasureMixingTimeTV(tq.kernel, tq.initial,
                                  params.epsilon / 2, options));
  }
  Rng rng(request.seed);
  PFQL_ASSIGN_OR_RETURN(
      eval::McmcResult r,
      eval::McmcForever({tq.kernel, event}, tq.initial, params, &rng));
  Json payload = Json::Object();
  payload.Set("event", event.ToString());
  payload.Set("estimate", r.estimate);
  payload.Set("samples", r.samples);
  payload.Set("samples_requested", r.samples_requested);
  payload.Set("burn_in", params.burn_in);
  payload.Set("burn_in_measured", measured);
  payload.Set("total_steps", r.total_steps);
  SetBackend(r.compiled, r.compiled_states, r.compiled_edges, &payload);
  SetDegradation(r.degraded, r.interruption, r.ci_halfwidth, params.delta,
                 &payload);
  return payload;
}

StatusOr<Json> ExecutePartition(const Request& request,
                                const datalog::Program& program,
                                const Instance& edb, const QueryEvent& event,
                                const CancellationToken* cancel) {
  // No E070 gate here: the partitioned evaluator applies max_states per
  // independence class, so a joint-space lower bound over budget does not
  // prove failure — factorization is exactly how such chains stay cheap.
  // The joint bound is still predicted-vs-actual accounted against the
  // *product* of per-class counts (the joint space they factorize).
  const analysis::CostReport plan =
      PlanReport(request, program, edb, nullptr);
  StateSpaceOptions options;
  options.max_states = request.max_states;
  options.threads = request.threads;
  options.cancel = cancel;
  PFQL_ASSIGN_OR_RETURN(
      eval::PartitionedResult r,
      eval::PartitionedExactForever(program, edb, event, options));
  size_t states = 0;
  uint64_t joint_states = 1;
  for (size_t s : r.states_per_class) {
    states += s;
    joint_states = analysis::CostMul(joint_states, s);
  }
  RecordPlanAccuracy(plan, joint_states, "partition");
  Json payload = Json::Object();
  payload.Set("event", event.ToString());
  SetProbability(r.probability, &payload);
  payload.Set("classes", r.num_classes);
  payload.Set("states", states);
  return payload;
}

StatusOr<Json> ExecuteTrajectory(const Request& request,
                                 const datalog::Program& program,
                                 const Instance& edb, const QueryEvent& event,
                                 const CancellationToken* cancel) {
  const analysis::CostReport plan =
      PlanReport(request, program, edb, nullptr);
  PFQL_ASSIGN_OR_RETURN(datalog::TranslatedQuery tq,
                        datalog::TranslateNonInflationary(program, edb));
  PFQL_ASSIGN_OR_RETURN(eval::Backend backend,
                        PlanBackend(plan, request, "trajectory"));
  const eval::TrajectoryParams params =
      TrajectoryParamsFor(request, backend, cancel);
  Rng rng(request.seed);
  PFQL_ASSIGN_OR_RETURN(
      eval::TrajectoryResult r,
      eval::TimeAverageEstimate({tq.kernel, event}, tq.initial, params,
                                &rng));
  Json payload = Json::Object();
  payload.Set("event", event.ToString());
  payload.Set("estimate", r.estimate);
  payload.Set("runs", r.per_run.size());
  payload.Set("runs_requested", r.runs_requested);
  payload.Set("steps_per_run", request.steps);
  payload.Set("total_steps", r.total_steps);
  SetBackend(r.compiled, r.compiled_states, r.compiled_edges, &payload);
  SetDegradation(r.degraded, r.interruption, r.ci_halfwidth, params.delta,
                 &payload);
  return payload;
}

// The request's event (Def 3.2's t ∈ R), checked against the program.
// Every evaluation starts from Program::InitialInstance, which holds the
// program's own predicates only, so an event on another relation, or with
// another arity, could never hold: it is refused rather than answered 0.
StatusOr<QueryEvent> ParseEvent(const Request& request,
                                const datalog::Program& program) {
  PFQL_ASSIGN_OR_RETURN(QueryEvent event,
                        datalog::ParseGroundAtom(request.event));
  const auto it = program.arities().find(event.relation);
  if (it == program.arities().end()) {
    return Status::InvalidArgument(
        "event relation '" + event.relation +
        "' is not a predicate of the program, so the event can never hold");
  }
  if (it->second != event.tuple.size()) {
    return Status::InvalidArgument(
        "event " + event.ToString() + " has " +
        std::to_string(event.tuple.size()) + " values, but '" +
        event.relation + "' has arity " + std::to_string(it->second) +
        " in the program, so the event can never hold");
  }
  return event;
}

// "plan": run the cost-model pass suite and return the CostReport without
// executing anything. The payload carries the report, the budgets it was
// judged against, whether the executor *would* reject upfront, and the
// W/N diagnostics the analysis raised (JSON-shaped like pfql-lint --json).
StatusOr<Json> ExecutePlan(const Request& request,
                           const datalog::Program& program,
                           const Instance& edb) {
  analysis::DiagnosticSink sink;
  const analysis::CostReport report =
      PlanReport(request, program, edb, &sink);
  metrics::MetricRegistry::Instance()
      .GetCounter("pfql_plan_runs_total")
      ->Increment();
  Json payload = report.ToJson();
  Json budgets = Json::Object();
  budgets.Set("max_states", request.max_states);
  budgets.Set("compile_max_states", request.compile_max_states);
  payload.Set("budgets", std::move(budgets));
  payload.Set("would_reject_exact",
              report.states.lo > request.max_states);
  if (!request.event.empty()) {
    // Validate the event against the program even though the analysis
    // itself is event-independent, so `plan` catches the same typos the
    // query kinds would.
    PFQL_ASSIGN_OR_RETURN(QueryEvent event, ParseEvent(request, program));
    payload.Set("event", event.ToString());
  }
  Json diags = Json::Array();
  for (const auto& d : sink.diagnostics()) {
    Json entry = Json::Object();
    entry.Set("code", d.code);
    entry.Set("severity", analysis::SeverityToString(d.severity));
    entry.Set("message", d.message);
    diags.Append(std::move(entry));
  }
  payload.Set("diagnostics", std::move(diags));
  return payload;
}

}  // namespace

StatusOr<Json> ExecuteQuery(const Request& request,
                            const datalog::Program& program,
                            const Instance& edb,
                            const CancellationToken* cancel) {
  if (cancel != nullptr) {
    // A request that waited out its deadline in the admission queue fails
    // here without touching an evaluator.
    PFQL_RETURN_NOT_OK(cancel->Check());
  }
  if (request.kind == RequestKind::kRun) {
    return ExecuteRun(request, program, edb);
  }
  if (request.kind == RequestKind::kPlan) {
    return ExecutePlan(request, program, edb);
  }
  PFQL_ASSIGN_OR_RETURN(QueryEvent event, ParseEvent(request, program));
  switch (request.kind) {
    case RequestKind::kExact:
      return ExecuteExactWithFallback(request, program, edb, event, cancel);
    case RequestKind::kApprox:
      return ExecuteApprox(request, program, edb, event, cancel);
    case RequestKind::kForever:
      return ExecuteForever(request, program, edb, event, cancel);
    case RequestKind::kMcmc:
      return ExecuteMcmc(request, program, edb, event, cancel);
    case RequestKind::kPartition:
      return ExecutePartition(request, program, edb, event, cancel);
    case RequestKind::kTrajectory:
      return ExecuteTrajectory(request, program, edb, event, cancel);
    default:
      return Status::InvalidArgument(
          std::string("method '") + RequestKindToString(request.kind) +
          "' is not a query");
  }
}

StatusOr<sched::SubscriptionSpec> BuildSubscription(
    const Request& request,
    std::shared_ptr<const datalog::Program> program,
    std::shared_ptr<const Instance> edb) {
  PFQL_ASSIGN_OR_RETURN(RequestKind inner, request.TargetKind());
  PFQL_ASSIGN_OR_RETURN(QueryEvent event, ParseEvent(request, *program));
  // Every target reads epsilon (the CI target) and delta (its confidence):
  // reject bad values here, before the subscribe ack.
  PFQL_ASSIGN_OR_RETURN(const size_t budget,
                        eval::HoeffdingCount(request.epsilon, request.delta,
                                             request.max_samples));
  sched::SubscriptionSpec spec;
  spec.kind = request.target;
  spec.epsilon = request.epsilon;
  spec.delta = request.delta;
  const uint64_t seed = request.seed;

  if (inner == RequestKind::kApprox) {
    const eval::ApproxParams params = ApproxParamsFor(request, nullptr);
    spec.factory = [program = std::move(program), edb = std::move(edb),
                    event = std::move(event), params, budget,
                    seed](const CancellationToken*)
        -> StatusOr<std::unique_ptr<eval::ResumableSampler>> {
      return std::unique_ptr<eval::ResumableSampler>(new eval::ResumableApprox(
          program, edb, event, params, budget, Rng(seed)));
    };
    return spec;
  }

  // Non-inflationary targets: translate and compile the kernel now (cheap,
  // and resolution errors belong in the subscribe ack) and apply the
  // analyzer's compile gating, so a forced-compiled subscription over an
  // over-budget chain fails at the front door like its one-shot
  // counterpart. Chain compilation itself runs in the factory, on a
  // scheduler thread.
  const analysis::CostReport plan =
      PlanReport(request, *program, *edb, nullptr);
  PFQL_ASSIGN_OR_RETURN(datalog::TranslatedQuery tq,
                        datalog::TranslateNonInflationary(*program, *edb));
  PFQL_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledKernel> kernel,
                        tq.kernel.Compile(tq.initial));
  PFQL_ASSIGN_OR_RETURN(eval::Backend backend,
                        PlanBackend(plan, request, request.target.c_str()));

  if (inner == RequestKind::kMcmc) {
    spec.is_mcmc = true;
    const eval::McmcParams params = McmcParamsFor(request, backend, nullptr);
    // >= 2 persistent chains so split-R̂ has cross-chain variance; more
    // chains sharpen the diagnostic at the cost of per-chain depth.
    const size_t chains = std::max<size_t>(2, request.threads);
    spec.factory = [interpretation = tq.kernel, kernel, initial = tq.initial,
                    event = std::move(event), params, chains,
                    seed](const CancellationToken* cancel)
        -> StatusOr<std::unique_ptr<eval::ResumableSampler>> {
      PFQL_ASSIGN_OR_RETURN(
          std::shared_ptr<const CompiledSpace> compiled,
          eval::CompileOrFallBack(interpretation, initial, params.backend,
                                  params.compile_max_states, cancel));
      return std::unique_ptr<eval::ResumableSampler>(
          new eval::ResumableMcmcChains(kernel, initial, event,
                                        std::move(compiled), params, chains,
                                        Rng(seed)));
    };
    return spec;
  }

  const eval::TrajectoryParams params =
      TrajectoryParamsFor(request, backend, nullptr);
  spec.factory = [interpretation = tq.kernel, kernel, initial = tq.initial,
                  event = std::move(event), params,
                  seed](const CancellationToken* cancel)
      -> StatusOr<std::unique_ptr<eval::ResumableSampler>> {
    PFQL_ASSIGN_OR_RETURN(
        std::shared_ptr<const CompiledSpace> compiled,
        eval::CompileOrFallBack(interpretation, initial, params.backend,
                                params.compile_max_states, cancel));
    return std::unique_ptr<eval::ResumableSampler>(
        new eval::ResumableTrajectory(kernel, initial, event,
                                      std::move(compiled), params,
                                      Rng(seed)));
  };
  return spec;
}

}  // namespace server
}  // namespace pfql
