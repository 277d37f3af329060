#include "eval/noninflationary.h"

#include <functional>
#include <memory>

#include "eval/resumable.h"

namespace pfql {
namespace eval {

namespace {

// Thm 5.5 over the chain explored from `initial`; `holds` marks the event
// states.
StatusOr<ExactForeverResult> ExactForeverImpl(
    const Interpretation& kernel, const Instance& initial,
    const StateSpaceOptions& options,
    const std::function<StatusOr<bool>(const Instance&)>& holds) {
  PFQL_ASSIGN_OR_RETURN(StateSpace space,
                        BuildStateSpace(kernel, initial, options));
  ExactForeverResult result;
  result.num_states = space.states.size();

  SccDecomposition scc = space.chain.DecomposeScc();
  result.num_components = scc.components.size();
  for (bool b : scc.is_bottom) {
    if (b) ++result.num_bottom;
  }
  result.irreducible = result.num_components == 1;
  result.aperiodic = space.chain.IsAperiodic();

  std::vector<bool> event_states(space.states.size(), false);
  for (size_t s = 0; s < space.states.size(); ++s) {
    PFQL_ASSIGN_OR_RETURN(bool marked, holds(space.states[s]));
    event_states[s] = marked;
  }
  PFQL_ASSIGN_OR_RETURN(
      result.probability,
      space.chain.ExactLongRunProbability(
          0, [&](size_t s) { return event_states[s]; }, options.cancel));
  return result;
}

}  // namespace

StatusOr<ExactForeverResult> ExactForever(const ForeverQuery& query,
                                          const Instance& initial,
                                          const StateSpaceOptions& options) {
  return ExactForeverImpl(
      query.kernel, initial, options,
      [&](const Instance& state) -> StatusOr<bool> {
        return query.event.Holds(state);
      });
}

StatusOr<ExactForeverResult> ExactForeverEvent(
    const Interpretation& kernel, const Instance& initial,
    const EventExpr::Ptr& event, const StateSpaceOptions& options) {
  if (event == nullptr) return Status::InvalidArgument("null event");
  return ExactForeverImpl(
      kernel, initial, options,
      [&](const Instance& state) { return event->Holds(state); });
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
