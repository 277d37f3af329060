#include "eval/inflationary.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>

#include "eval/resumable.h"

namespace pfql {
namespace eval {

namespace {

// Merges extra certain relations into a pc-world instance.
Status MergeInstances(const Instance& extra, Instance* world) {
  for (const auto& [name, rel] : extra.relations()) {
    if (world->Has(name)) {
      return Status::AlreadyExists("relation '" + name +
                                   "' defined by both the c-table database "
                                   "and the extra EDB");
    }
    world->Set(name, rel);
  }
  return Status::OK();
}

}  // namespace

StatusOr<BigRational> ExactInflationary(
    const datalog::Program& program, const Instance& edb,
    const QueryEvent& event,
    const datalog::ExactInflationaryOptions& options,
    size_t* nodes_visited) {
  return datalog::ExactFixpointEventProbability(program, edb, event, options,
                                                nodes_visited);
}

StatusOr<BigRational> ExactInflationaryOverPC(
    const datalog::Program& program, const PCDatabase& pc,
    const Instance& extra_edb, const QueryEvent& event,
    const datalog::ExactInflationaryOptions& options) {
  // Iterate valuations of the independent variables (the outer PSPACE loop
  // of Prop 4.4) without materializing the full world distribution.
  std::vector<const RandomVariable*> vars;
  for (const auto& [_, v] : pc.variables()) vars.push_back(&v);

  BigRational total;
  Valuation valuation;
  std::function<Status(size_t, BigRational)> recurse =
      [&](size_t depth, BigRational prob) -> Status {
    if (depth == vars.size()) {
      PFQL_ASSIGN_OR_RETURN(Instance world, pc.InstanceFor(valuation));
      PFQL_RETURN_NOT_OK(MergeInstances(extra_edb, &world));
      PFQL_ASSIGN_OR_RETURN(BigRational p,
                            datalog::ExactFixpointEventProbability(
                                program, world, event, options));
      total += prob * p;
      return Status::OK();
    }
    const RandomVariable& var = *vars[depth];
    for (const auto& [value, p] : var.domain) {
      valuation[var.name] = value;
      PFQL_RETURN_NOT_OK(recurse(depth + 1, prob * p));
    }
    valuation.erase(var.name);
    return Status::OK();
  };
  PFQL_RETURN_NOT_OK(recurse(0, BigRational(1)));
  return total;
}

Status CheckDelta(double delta) {
  if (delta > 0.0 && delta < 1.0) return Status::OK();
  return Status::InvalidArgument("delta must be in (0, 1)");
}

StatusOr<size_t> HoeffdingCount(double epsilon, double delta,
                                size_t max_samples) {
  if (!(epsilon > 0.0 && epsilon <= 1.0)) {
    return Status::InvalidArgument("epsilon must be in (0, 1]");
  }
  PFQL_RETURN_NOT_OK(CheckDelta(delta));
  const double m =
      std::ceil(std::log(2.0 / delta) / (2.0 * epsilon * epsilon));
  if (!(m < static_cast<double>(std::numeric_limits<size_t>::max()))) {
    return Status::InvalidArgument("epsilon is too small to count samples");
  }
  return max_samples > 0 ? max_samples : static_cast<size_t>(m);
}

double HoeffdingHalfwidth(double delta, size_t k) {
  if (k == 0) return 1.0;
  return std::min(
      1.0, std::sqrt(std::log(2.0 / delta) / (2.0 * static_cast<double>(k))));
}

namespace {

// Thm 4.3 through RunToBudget: K = threads ResumableApprox shards
// over borrowed (non-owning) program and input pointers.
StatusOr<ApproxResult> RunApprox(const datalog::Program& program,
                                 const Instance* edb, const QueryEvent& event,
                                 const ApproxParams& params, Rng* rng,
                                 const WorldDraw& draw_world) {
  PFQL_ASSIGN_OR_RETURN(
      size_t budget,
      HoeffdingCount(params.epsilon, params.delta, params.max_samples));
  const std::shared_ptr<const datalog::Program> borrowed_program(
      std::shared_ptr<void>(), &program);
  const std::shared_ptr<const Instance> borrowed_edb(std::shared_ptr<void>(),
                                                     edb);
  PFQL_ASSIGN_OR_RETURN(
      BudgetRun run,
      RunToBudget(
          "approx", budget, params.threads,
          [&](size_t share, Rng shard_rng) {
            return std::make_unique<ResumableApprox>(
                borrowed_program, borrowed_edb, event, params, share,
                shard_rng, draw_world);
          },
          params.delta, rng, params.cancel, params.allow_partial));
  return run.result;
}

}  // namespace

StatusOr<ApproxResult> ApproxInflationary(const datalog::Program& program,
                                          const Instance& edb,
                                          const QueryEvent& event,
                                          const ApproxParams& params,
                                          Rng* rng) {
  return RunApprox(program, &edb, event, params, rng, nullptr);
}

StatusOr<ApproxResult> ApproxInflationaryOverPC(
    const datalog::Program& program, const PCDatabase& pc,
    const Instance& extra_edb, const QueryEvent& event,
    const ApproxParams& params, Rng* rng) {
  return RunApprox(program, nullptr, event, params, rng,
                   [&](Rng* r) -> StatusOr<Instance> {
                     PFQL_ASSIGN_OR_RETURN(Instance world, pc.SampleWorld(r));
                     PFQL_RETURN_NOT_OK(MergeInstances(extra_edb, &world));
                     return world;
                   });
}

}  // namespace eval
}  // namespace pfql
