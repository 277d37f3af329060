// The sampling core of the three estimators. Every approx, mcmc and
// trajectory sample is drawn by one of the samplers below, whether it
// serves a one-shot request or a subscription: a sampler advances in quanta
// and can pause between them with no work lost. Each quantum is a fixed
// number of *sample units* — one fixpoint sample (approx), one restart
// sample (restart mcmc), one chain step (persistent mcmc), one trajectory
// step (trajectory) — so the sample scheduler (src/sched/) can interleave
// heterogeneous subscriptions fairly, while the one-shot evaluators run the
// same samplers to their budget through RunToBudget.
//
// MCMC has two samplers. ResumableRestartMcmc is Thm 5.6's restart
// sampler, which one-shot mcmc requests run. ResumableMcmcChains, which
// subscriptions run, runs C >= 2 *persistent* parallel chains (no
// per-sample restart) and records the event indicator at every
// post-burn-in step. For an ergodic kernel the time average over each
// chain converges to the same long-run probability, and because the chains
// are independent, their cross-chain agreement is a genuine mixing
// diagnostic: split-R̂ over the per-chain indicator streams
// (sched/convergence.h) detects chains stuck in different lobes — exactly
// the failure mode a restart sampler with an underestimated burn-in hides.
#ifndef PFQL_EVAL_RESUMABLE_H_
#define PFQL_EVAL_RESUMABLE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "datalog/engine.h"
#include "datalog/program.h"
#include "eval/backend.h"
#include "eval/inflationary.h"
#include "eval/noninflationary.h"
#include "eval/trajectory.h"
#include "lang/event.h"
#include "lang/interpretation.h"
#include "markov/compiled_chain.h"
#include "relational/instance.h"
#include "util/cancellation.h"
#include "util/random.h"
#include "util/status.h"

namespace pfql {
namespace eval {

/// The chain samplers' tier: the compiled chain, or null for interpreted.
/// kAuto falls back only when compilation exhausts compile_max_states; a
/// forced kCompiled turns any compile failure into PFQL-E060.
StatusOr<std::shared_ptr<const CompiledSpace>> CompileOrFallBack(
    const Interpretation& kernel, const Instance& initial, Backend backend,
    size_t compile_max_states, const CancellationToken* cancel,
    size_t threads = 1);

/// Point-in-time estimate of a resumable sampler, refreshed after every
/// quantum. `ci_halfwidth` is the sampler's own distribution-free bound at
/// confidence 1 - delta (Hoeffding for iid samplers, normal-approximation
/// for per-run trajectory averages); the scheduler may override it with a
/// cross-chain variance bound for MCMC (sched/convergence.h).
struct SamplerSnapshot {
  double estimate = 0.0;
  /// 1.0 until enough samples exist to bound anything.
  double ci_halfwidth = 1.0;
  /// Completed sample units (see the per-sampler unit definition above).
  size_t samples = 0;
  /// Total budget in sample units (burn-in included for mcmc).
  size_t budget = 0;
  size_t total_steps = 0;
  size_t hits = 0;  ///< event hits (approx, restart mcmc), for exact merges
  /// Sampler-specific extras.
  size_t runs_completed = 0;   ///< trajectory only
  std::string backend;         ///< "interpreted"/"compiled" when meaningful
};

/// A sampler that advances in quanta. Not thread-safe: the scheduler
/// guarantees at most one RunQuantum at a time per sampler.
class ResumableSampler {
 public:
  virtual ~ResumableSampler() = default;

  /// Advances by up to `quantum` sample units (fewer when the budget runs
  /// out first). Returns non-OK on a hard evaluation error or an injected
  /// fault; cancellation surfaces as Cancelled/DeadlineExceeded. The
  /// snapshot covers the finished units after every return, OK or not.
  virtual Status RunQuantum(size_t quantum,
                            const CancellationToken* cancel) = 0;

  const SamplerSnapshot& snapshot() const { return snap_; }
  /// Budget fully consumed — the scheduler must complete the subscription.
  bool Exhausted() const { return snap_.samples >= snap_.budget; }

 protected:
  SamplerSnapshot snap_;
};

// ---- Thm 4.3 inflationary sampler, one fixpoint sample per unit --------

using WorldDraw = std::function<StatusOr<Instance>(Rng*)>;

class ResumableApprox : public ResumableSampler {
 public:
  /// `program` and `edb` are shared so the owning subscription can outlive
  /// the registry entries they were resolved from. `draw_world`, when set,
  /// draws each sample's input (a c-table world) in place of `edb`. The
  /// program is compiled once, at the first sample, and every later sample
  /// restarts the same engine.
  ResumableApprox(std::shared_ptr<const datalog::Program> program,
                  std::shared_ptr<const Instance> edb, QueryEvent event,
                  const ApproxParams& params, size_t budget, Rng rng,
                  WorldDraw draw_world = nullptr);

  Status RunQuantum(size_t quantum, const CancellationToken* cancel) override;

 private:
  const std::shared_ptr<const datalog::Program> program_;
  const std::shared_ptr<const Instance> edb_;
  const QueryEvent event_;
  const double delta_;
  const WorldDraw draw_world_;
  Rng rng_;
  std::optional<datalog::InflationaryEngine> engine_;
};

// ---- Thm 5.6 restart MCMC, one burned-in sample per unit ---------------

/// Each sample restarts from `initial`, applies the kernel burn_in times
/// and records the event. `kernel` is compiled against `initial`
/// (Interpretation::Compile) and shared by the request's shards. `compiled`
/// is the tier from CompileOrFallBack; its lockstep batches make the RNG
/// order depend on the quantum sizes.
class ResumableRestartMcmc : public ResumableSampler {
 public:
  ResumableRestartMcmc(std::shared_ptr<const CompiledKernel> kernel,
                       Instance initial,
                       QueryEvent event,
                       std::shared_ptr<const CompiledSpace> compiled,
                       const McmcParams& params, size_t budget, Rng rng);

  Status RunQuantum(size_t quantum, const CancellationToken* cancel) override;

 private:
  const std::shared_ptr<const CompiledKernel> kernel_;
  const Instance initial_;
  const QueryEvent event_;
  const std::shared_ptr<const CompiledSpace> compiled_;
  std::vector<uint8_t> event_states_;  ///< compiled tier only
  const size_t burn_in_;
  const double delta_;
  Rng rng_;
};

// ---- Persistent-chain MCMC sampler, one chain step per unit ------------

/// Cumulative per-chain tallies with per-quantum checkpoints; the raw
/// material of the split-R̂ diagnostic (sched/convergence.h).
struct ChainStats {
  size_t count = 0;  ///< post-burn-in samples recorded
  double sum = 0.0;  ///< sum of event indicators
  /// Cumulative (count, sum) at each quantum boundary, so a split point
  /// near count/2 can be found without keeping the per-sample stream.
  std::vector<std::pair<size_t, double>> checkpoints;
};

class ResumableMcmcChains : public ResumableSampler {
 public:
  /// Runs max(2, num_chains) chains so split-R̂ has cross-chain variance to
  /// measure; burn_in is paid once per chain. max_samples caps the sample
  /// units of all chains, burn-in included; 0 means 4x the iid Hoeffding
  /// count plus the burn-ins, headroom for correlated samples (completion
  /// is governed by the empirical CI and R̂, not the cap).
  ResumableMcmcChains(std::shared_ptr<const CompiledKernel> kernel,
                      Instance initial,
                      QueryEvent event,
                      std::shared_ptr<const CompiledSpace> compiled,
                      const McmcParams& params, size_t num_chains, Rng rng);

  Status RunQuantum(size_t quantum, const CancellationToken* cancel) override;

  const std::vector<ChainStats>& chains() const { return stats_; }
  size_t num_chains() const { return stats_.size(); }

 private:
  /// One kernel step of chain `c`; appends the indicator when past
  /// burn-in. Counts one sample unit either way.
  Status StepChain(size_t c);
  void RefreshSnapshot();

  const std::shared_ptr<const CompiledKernel> kernel_;
  const QueryEvent event_;
  const double delta_;
  const std::shared_ptr<const CompiledSpace> compiled_;
  std::vector<uint8_t> event_states_;
  std::vector<uint32_t> state_ids_;        ///< compiled tier
  std::vector<Instance> state_instances_;  ///< interpreted tier

  std::vector<Rng> chain_rngs_;
  std::vector<size_t> burn_left_;
  std::vector<ChainStats> stats_;
  size_t next_chain_ = 0;  ///< round-robin cursor across chains
};

// ---- Def 3.2 trajectory sampler, one walk step per unit ----------------

/// Runs are drawn one at a time on both tiers; a finished run is the unit
/// of the degraded prefix.
class ResumableTrajectory : public ResumableSampler {
 public:
  ResumableTrajectory(std::shared_ptr<const CompiledKernel> kernel,
                      Instance initial,
                      EventExpr::Ptr event,
                      std::shared_ptr<const CompiledSpace> compiled,
                      const TrajectoryParams& params, Rng rng);

  Status RunQuantum(size_t quantum, const CancellationToken* cancel) override;

  /// Time averages of the finished runs, in run order.
  const std::vector<double>& per_run() const { return per_run_; }

 private:
  Status Advance(size_t n, const CancellationToken* cancel);
  void RefreshSnapshot();

  const std::shared_ptr<const CompiledKernel> kernel_;
  const Instance initial_;
  const EventExpr::Ptr event_;
  const std::shared_ptr<const CompiledSpace> compiled_;
  const TrajectoryParams params_;
  const size_t discard_;
  Rng rng_;

  std::vector<uint8_t> event_states_;  ///< compiled tier, built lazily
  uint32_t state_id_ = 0;              ///< compiled tier
  Instance state_instance_;            ///< interpreted tier

  size_t run_step_ = 0;  ///< steps taken in the in-progress run
  size_t run_hits_ = 0;  ///< post-discard hits in the in-progress run
  std::vector<double> per_run_;
};

// ---- One-shot runs ---------------------------------------------------

struct BudgetRun {
  /// The shards' snapshots merged in shard order (samples_requested is the
  /// budget); several shards (only iid samplers are sharded) merge to
  /// hits / samples and its Hoeffding CI.
  ApproxResult result;
  std::vector<std::unique_ptr<ResumableSampler>> shards;
};

using ShardFactory =
    std::function<std::unique_ptr<ResumableSampler>(size_t budget, Rng rng)>;

/// Runs K = max(1, min(threads, budget)) shards, made by `make` with their
/// share of `budget` on streams forked from `rng` in shard order, each to
/// its budget in one quantum inside the kind's worker span (shard 0 on the
/// calling thread, the others on a thread each). Owns the pfql_sampler_* metrics and the
/// degraded-prefix rule: with allow_partial, an interruption (Cancelled,
/// DeadlineExceeded, injected Unavailable) after some finished samples
/// yields a degraded run over them; otherwise it, like any error, fails.
StatusOr<BudgetRun> RunToBudget(const char* kind, size_t budget,
                                size_t threads, const ShardFactory& make,
                                double delta, Rng* rng,
                                const CancellationToken* cancel,
                                bool allow_partial);

}  // namespace eval
}  // namespace pfql

#endif  // PFQL_EVAL_RESUMABLE_H_
