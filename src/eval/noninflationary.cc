#include "eval/noninflationary.h"

#include <memory>

#include "eval/resumable.h"

namespace pfql {
namespace eval {

StatusOr<ExactForeverResult> ExactForever(const ForeverQuery& query,
                                          const Instance& initial,
                                          const StateSpaceOptions& options) {
  PFQL_ASSIGN_OR_RETURN(StateSpace space,
                        BuildStateSpace(query.kernel, initial, options));
  ExactForeverResult result;
  result.num_states = space.states.size();

  SccDecomposition scc = space.chain.DecomposeScc();
  result.num_components = scc.components.size();
  for (bool b : scc.is_bottom) {
    if (b) ++result.num_bottom;
  }
  result.irreducible = result.num_components == 1;
  result.aperiodic = space.chain.IsAperiodic();

  const std::vector<bool> event_states = space.EventStates(query.event);
  PFQL_ASSIGN_OR_RETURN(
      result.probability,
      space.chain.ExactLongRunProbability(
          0, [&](size_t s) { return event_states[s]; }, options.cancel));
  return result;
}

StatusOr<McmcResult> McmcForever(const ForeverQuery& query,
                                 const Instance& initial,
                                 const McmcParams& params, Rng* rng) {
  PFQL_ASSIGN_OR_RETURN(
      size_t budget,
      HoeffdingCount(params.epsilon, params.delta, params.max_samples));
  // One compiled kernel, shared by every shard.
  PFQL_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledKernel> kernel,
                        query.kernel.Compile(initial));
  PFQL_ASSIGN_OR_RETURN(
      std::shared_ptr<const CompiledSpace> compiled,
      CompileOrFallBack(query.kernel, initial, params.backend,
                        params.compile_max_states, params.cancel,
                        params.threads));
  PFQL_ASSIGN_OR_RETURN(
      BudgetRun run,
      RunToBudget(
          "mcmc", budget, params.threads,
          [&](size_t share, Rng shard_rng) {
            return std::make_unique<ResumableRestartMcmc>(
                kernel, initial, query.event, compiled, params, share,
                shard_rng);
          },
          params.delta, rng, params.cancel, params.allow_partial));
  McmcResult result{run.result};
  if (compiled != nullptr) {
    result.compiled = true;
    result.compiled_states = compiled->chain.num_states();
    result.compiled_edges = compiled->chain.num_edges();
  }
  return result;
}

StatusOr<size_t> MeasureMixingTime(const Interpretation& kernel,
                                   const Instance& initial, double epsilon,
                                   const StateSpaceOptions& options,
                                   size_t max_steps) {
  PFQL_ASSIGN_OR_RETURN(StateSpace space,
                        BuildStateSpace(kernel, initial, options));
  return space.chain.MixingTimeFrom(0, epsilon, max_steps, options.cancel);
}

StatusOr<size_t> MeasureMixingTimeTV(const Interpretation& kernel,
                                     const Instance& initial, double epsilon,
                                     const StateSpaceOptions& options,
                                     size_t max_steps) {
  PFQL_ASSIGN_OR_RETURN(StateSpace space,
                        BuildStateSpace(kernel, initial, options));
  return space.chain.TvMixingTimeFrom(0, epsilon, max_steps, options.cancel);
}

}  // namespace eval
}  // namespace pfql
