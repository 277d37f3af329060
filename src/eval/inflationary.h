// Evaluation algorithms for inflationary queries (paper Sec 4):
//  * exact evaluation in PSPACE-style traversal (Prop 4.4), including over
//    probabilistic c-tables (outer enumeration of variable valuations);
//  * randomized absolute approximation in PTIME (Thm 4.3) by Monte Carlo
//    sampling with a Hoeffding/Chernoff sample bound.
#ifndef PFQL_EVAL_INFLATIONARY_H_
#define PFQL_EVAL_INFLATIONARY_H_

#include "datalog/engine.h"
#include "datalog/program.h"
#include "prob/ctable.h"
#include "util/cancellation.h"
#include "util/random.h"
#include "util/status.h"

namespace pfql {
namespace eval {

/// Exact query result Pr[event holds at the fixpoint] for a probabilistic
/// datalog program over a deterministic input database.
StatusOr<BigRational> ExactInflationary(
    const datalog::Program& program, const Instance& edb,
    const QueryEvent& event,
    const datalog::ExactInflationaryOptions& options = {},
    size_t* nodes_visited = nullptr);

/// Exact query result over a probabilistic c-table input: iterates the
/// valuations of the independent random variables (outer loop of Prop 4.4)
/// and runs the computation-tree traversal per world. `program_edb` supplies
/// any certain relations not represented in `pc`.
StatusOr<BigRational> ExactInflationaryOverPC(
    const datalog::Program& program, const PCDatabase& pc,
    const Instance& extra_edb, const QueryEvent& event,
    const datalog::ExactInflationaryOptions& options = {});

/// Approximation parameters: with probability at least 1 − delta the
/// estimate is within epsilon of the exact query result (absolute error).
struct ApproxParams {
  double epsilon = 0.05;
  double delta = 0.05;
  /// Worker threads for sampling (samples are embarrassingly parallel;
  /// each worker gets an independently seeded RNG stream).
  size_t threads = 1;
  /// Optional cooperative cancel/deadline token, polled between samples by
  /// every worker. Non-owning; may be null.
  const CancellationToken* cancel = nullptr;
  /// Overrides the Hoeffding budget when > 0 (mainly for tests and for
  /// reproducing the completed prefix of a degraded run).
  size_t max_samples = 0;
  /// When true, an interruption (deadline, cancel, injected fault) with at
  /// least one completed sample yields a *degraded* result over the
  /// completed prefix instead of an error. With zero completed samples the
  /// interruption is still surfaced as an error.
  bool allow_partial = false;
};

/// InvalidArgument unless the CI confidence 1 − δ has δ ∈ (0, 1).
Status CheckDelta(double delta);

/// The sample budget of Thm 4.3/5.6: `max_samples` when > 0, else the
/// Hoeffding count m = ⌈ln(2/δ)/(2ε²)⌉ (the paper's ln(1/δ)/(4ε²) differs
/// only by constants). InvalidArgument, naming the field, unless
/// ε ∈ (0, 1], δ ∈ (0, 1) and m fits a size_t.
StatusOr<size_t> HoeffdingCount(double epsilon, double delta,
                                size_t max_samples = 0);

/// The Hoeffding half-width sqrt(ln(2/δ)/(2k)) of k iid [0, 1] samples at
/// confidence 1 − δ, capped at 1.
double HoeffdingHalfwidth(double delta, size_t k);

/// Result of a sampling run. When `degraded` is false, `samples` equals
/// `samples_requested` and the Thm 4.3 (epsilon, delta) guarantee applies.
/// When true, the estimate is the empirical mean over the completed prefix
/// only and `interruption` records why sampling stopped.
struct ApproxResult {
  double estimate = 0.0;
  size_t samples = 0;            ///< samples actually completed
  size_t samples_requested = 0;  ///< the budget sampling aimed for
  size_t total_steps = 0;        ///< engine steps across all samples
  /// Hoeffding half-width the completed samples support at 1 − delta.
  double ci_halfwidth = 1.0;
  bool degraded = false;
  Status interruption;  ///< non-OK iff degraded
};

/// Thm 4.3: randomized absolute approximation over a deterministic input.
StatusOr<ApproxResult> ApproxInflationary(const datalog::Program& program,
                                          const Instance& edb,
                                          const QueryEvent& event,
                                          const ApproxParams& params,
                                          Rng* rng);

/// Thm 4.3 over a probabilistic c-table input: each sample first draws a
/// valuation of the c-table variables, then a computation path.
StatusOr<ApproxResult> ApproxInflationaryOverPC(
    const datalog::Program& program, const PCDatabase& pc,
    const Instance& extra_edb, const QueryEvent& event,
    const ApproxParams& params, Rng* rng);

}  // namespace eval
}  // namespace pfql

#endif  // PFQL_EVAL_INFLATIONARY_H_
