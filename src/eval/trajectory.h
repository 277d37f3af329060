// Def 3.2 taken literally: the query result is the limiting *time average*
//
//   Pr(s) = lim_k Σ_{seq, len k} Pr(seq) · |{i : s_i = s}| / k
//
// of an infinite random walk. This module estimates that quantity directly
// by simulating trajectories and averaging the event indicator over time —
// no chain materialization, no burn-in calibration. Per run, the time
// average converges (a.s.) to the stationary event mass of the bottom SCC
// the walk is absorbed in; averaging over independent runs therefore
// converges to the Thm 5.5 value even for reducible chains. Slower than
// Thm 5.6's restart sampler on fast-mixing chains, but assumption-free —
// and it doubles as a fidelity check that the paper's limit semantics and
// the chain-analytic semantics agree.
#ifndef PFQL_EVAL_TRAJECTORY_H_
#define PFQL_EVAL_TRAJECTORY_H_

#include <vector>

#include "eval/backend.h"
#include "lang/event.h"
#include "lang/interpretation.h"
#include "util/cancellation.h"
#include "util/random.h"
#include "util/status.h"

namespace pfql {
namespace eval {

struct TrajectoryParams {
  /// Steps per trajectory (the "k" of the Cesàro limit).
  size_t steps = 1000;
  /// Independent trajectories to average (covers reducible chains).
  size_t runs = 16;
  /// Initial fraction of each trajectory to discard before averaging
  /// (reduces the O(1/k) initialization bias); in [0, 1).
  double discard_fraction = 0.1;
  /// The normal-approximation CI over per-run averages is stated at
  /// confidence 1 − delta; in (0, 1).
  double delta = 0.05;
  /// Optional cooperative cancel/deadline token, polled at a stride over
  /// simulation steps. Non-owning; may be null.
  const CancellationToken* cancel = nullptr;
  /// When true, an interruption (deadline, cancel, injected fault) with at
  /// least one completed run yields a degraded result averaged over the
  /// completed runs; a run interrupted mid-trajectory is discarded.
  bool allow_partial = false;
  /// Evaluation tier (see eval/backend.h). kInterpreted is the bit-stable
  /// default; kAuto/kCompiled step a compiled-chain walker.
  Backend backend = Backend::kInterpreted;
  /// State budget for compiling the chain (CompileOptions::max_states).
  size_t compile_max_states = 1 << 12;
};

struct TrajectoryResult {
  /// Mean over (completed) runs of the per-run time average.
  double estimate = 0.0;
  /// Per-run time averages (useful to see multimodality from reducibility).
  /// One entry per *completed* run; size < runs_requested iff degraded.
  std::vector<double> per_run;
  size_t runs_requested = 0;
  size_t total_steps = 0;
  /// CI half-width over the completed runs at 1 − delta: the sub-Gaussian
  /// sqrt(2 ln(2/δ)) times the standard error, and 1 below two runs.
  double ci_halfwidth = 1.0;
  bool degraded = false;
  Status interruption;  ///< non-OK iff degraded
  /// True when the compiled chain tier produced this result.
  bool compiled = false;
  size_t compiled_states = 0;  ///< chain states, when compiled
  size_t compiled_edges = 0;   ///< chain transitions, when compiled
};

/// Time-average estimate of a general-event forever query.
StatusOr<TrajectoryResult> TimeAverageEstimate(const Interpretation& kernel,
                                               const Instance& initial,
                                               const EventExpr::Ptr& event,
                                               const TrajectoryParams& params,
                                               Rng* rng);

/// Convenience overload for the canonical tuple-membership event.
StatusOr<TrajectoryResult> TimeAverageEstimate(const ForeverQuery& query,
                                               const Instance& initial,
                                               const TrajectoryParams& params,
                                               Rng* rng);

}  // namespace eval
}  // namespace pfql

#endif  // PFQL_EVAL_TRAJECTORY_H_
