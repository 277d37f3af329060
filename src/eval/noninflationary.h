// Evaluation algorithms for noninflationary (forever) queries (paper Sec 5):
//  * exact evaluation by materializing the Markov chain of database states
//    and solving for stationary / absorption structure (Prop 5.4, Thm 5.5);
//  * randomized absolute approximation by MCMC sampling with a burn-in of
//    one mixing time per sample (Thm 5.6).
#ifndef PFQL_EVAL_NONINFLATIONARY_H_
#define PFQL_EVAL_NONINFLATIONARY_H_

#include "eval/backend.h"
#include "eval/inflationary.h"
#include "lang/event.h"
#include "lang/interpretation.h"
#include "markov/compiled_chain.h"
#include "markov/state_space.h"
#include "util/cancellation.h"
#include "util/random.h"
#include "util/status.h"

namespace pfql {
namespace eval {

/// Detailed result of exact forever-query evaluation.
struct ExactForeverResult {
  BigRational probability;       ///< the query result (exact)
  size_t num_states = 0;         ///< explored database states
  size_t num_components = 0;     ///< SCCs of the chain
  size_t num_bottom = 0;         ///< closed (recurrent) components
  bool irreducible = false;
  bool aperiodic = false;
};

/// Exact query result: the long-run probability that `query.event` holds in
/// the random walk induced by `query.kernel` from `initial` (Def 3.2
/// semantics, general reducible case per Thm 5.5).
StatusOr<ExactForeverResult> ExactForever(
    const ForeverQuery& query, const Instance& initial,
    const StateSpaceOptions& options = {});

/// General-event variant: Def 3.2 allows any low-complexity Boolean query
/// as the event; `event` may combine tuple tests and RA non-emptiness.
StatusOr<ExactForeverResult> ExactForeverEvent(
    const Interpretation& kernel, const Instance& initial,
    const EventExpr::Ptr& event, const StateSpaceOptions& options = {});

/// MCMC approximation parameters (Thm 5.6).
struct McmcParams {
  /// Burn-in steps per sample; set to (an upper bound on) the chain's
  /// mixing time t(ε).
  size_t burn_in = 100;
  double epsilon = 0.05;
  double delta = 0.05;
  /// Worker threads (independent restarts parallelize trivially).
  size_t threads = 1;
  /// Optional cooperative cancel/deadline token, polled at a stride over
  /// burn-in steps by every worker. Non-owning; may be null.
  const CancellationToken* cancel = nullptr;
  /// Overrides the Hoeffding budget when > 0 (mainly for tests and for
  /// reproducing the completed prefix of a degraded run).
  size_t max_samples = 0;
  /// When true, an interruption (deadline, cancel, injected fault) with at
  /// least one completed sample yields a degraded result over the completed
  /// prefix. A sample interrupted mid-burn-in is discarded, never counted.
  bool allow_partial = false;
  /// Evaluation tier. kInterpreted (the default) steps through the datalog
  /// interpretation and is bit-stable with earlier releases; kAuto and
  /// kCompiled run on the compiled chain tier (markov/compiled_chain.h),
  /// whose estimates agree within the quantization error bound
  /// (docs/INTERNALS.md §7). kAuto falls back to interpreted when the
  /// chain exceeds compile_max_states; kCompiled errors instead.
  Backend backend = Backend::kInterpreted;
  /// State budget for compiling the chain (CompileOptions::max_states).
  size_t compile_max_states = 1 << 12;
};

/// See ApproxResult for the degraded-result contract; identical here.
struct McmcResult : ApproxResult {
  /// True when the compiled chain tier produced this result.
  bool compiled = false;
  size_t compiled_states = 0;  ///< chain states, when compiled
  size_t compiled_edges = 0;   ///< chain transitions, when compiled
};

/// Thm 5.6: draws HoeffdingCount() independent samples; each sample restarts
/// from `initial`, applies the kernel burn_in times, and records the event.
/// Valid when the induced chain is ergodic and burn_in ≥ its mixing time.
StatusOr<McmcResult> McmcForever(const ForeverQuery& query,
                                 const Instance& initial,
                                 const McmcParams& params, Rng* rng);

/// Convenience: measures the mixing time t(ε) of the induced chain from the
/// initial state by explicit state-space construction (only feasible for
/// small chains; used to calibrate McmcParams::burn_in and by the benches).
StatusOr<size_t> MeasureMixingTime(const Interpretation& kernel,
                                   const Instance& initial, double epsilon,
                                   const StateSpaceOptions& options = {},
                                   size_t max_steps = 1 << 20);

/// Total-variation variant: the right burn-in bound when the query event
/// aggregates many database states (TV bounds the bias of any event).
/// Measured against the long-run distribution of the walk from `initial`
/// (MarkovChain::TvMixingTimeFrom), so a transient initial instance is
/// fine; fails only when the walk reaches a periodic bottom SCC.
StatusOr<size_t> MeasureMixingTimeTV(const Interpretation& kernel,
                                     const Instance& initial, double epsilon,
                                     const StateSpaceOptions& options = {},
                                     size_t max_steps = 1 << 20);

}  // namespace eval
}  // namespace pfql

#endif  // PFQL_EVAL_NONINFLATIONARY_H_
