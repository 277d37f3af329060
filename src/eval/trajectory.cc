#include "eval/trajectory.h"

#include <memory>

#include "eval/resumable.h"

namespace pfql {
namespace eval {

StatusOr<TrajectoryResult> TimeAverageEstimate(const Interpretation& kernel,
                                               const Instance& initial,
                                               const EventExpr::Ptr& event,
                                               const TrajectoryParams& params,
                                               Rng* rng) {
  if (event == nullptr) return Status::InvalidArgument("null event");
  if (params.steps == 0 || params.runs == 0) {
    return Status::InvalidArgument("steps and runs must be positive");
  }
  if (params.discard_fraction < 0.0 || params.discard_fraction >= 1.0) {
    return Status::InvalidArgument("discard_fraction must be in [0, 1)");
  }
  PFQL_RETURN_NOT_OK(CheckDelta(params.delta));
  PFQL_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledKernel> compiled_kernel,
                        kernel.Compile(initial));
  PFQL_ASSIGN_OR_RETURN(
      std::shared_ptr<const CompiledSpace> compiled,
      CompileOrFallBack(kernel, initial, params.backend,
                        params.compile_max_states, params.cancel));
  // Trajectory runs on one thread: a single shard draws every run.
  PFQL_ASSIGN_OR_RETURN(
      BudgetRun run,
      RunToBudget(
          "trajectory", params.runs, /*threads=*/1,
          [&](size_t, Rng shard_rng) {
            return std::make_unique<ResumableTrajectory>(
                compiled_kernel, initial, event, compiled, params, shard_rng);
          },
          params.delta, rng, params.cancel, params.allow_partial));
  TrajectoryResult result;
  result.estimate = run.result.estimate;
  result.per_run =
      static_cast<const ResumableTrajectory&>(*run.shards[0]).per_run();
  result.runs_requested = params.runs;
  result.total_steps = run.result.total_steps;
  result.ci_halfwidth = run.result.ci_halfwidth;
  result.degraded = run.result.degraded;
  result.interruption = run.result.interruption;
  if (compiled != nullptr) {
    result.compiled = true;
    result.compiled_states = compiled->chain.num_states();
    result.compiled_edges = compiled->chain.num_edges();
  }
  return result;
}

StatusOr<TrajectoryResult> TimeAverageEstimate(const ForeverQuery& query,
                                               const Instance& initial,
                                               const TrajectoryParams& params,
                                               Rng* rng) {
  return TimeAverageEstimate(query.kernel, initial,
                             EventExpr::From(query.event), params, rng);
}

}  // namespace eval
}  // namespace pfql
