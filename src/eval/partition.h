// The Sec 5.1 "Partitioning" optimization: a pre-processing pass over the
// classical (non-probabilistic) fixpoint of the program splits the EDB into
// independence classes — sets of base tuples whose derivations never
// interact. A noninflationary query is then evaluated per class on an
// exponentially smaller Markov chain, and the per-class results combine as
//    Pr(event) = 1 − ∏_classes (1 − Pr_class(event)).
#ifndef PFQL_EVAL_PARTITION_H_
#define PFQL_EVAL_PARTITION_H_

#include <vector>

#include "datalog/program.h"
#include "eval/noninflationary.h"
#include "util/status.h"

namespace pfql {
namespace eval {

/// The EDB split into independence classes. Every class contains all
/// relation names of the original EDB (some possibly empty).
struct Partition {
  std::vector<Instance> classes;
  /// Number of base tuples in each class.
  std::vector<size_t> class_sizes;
};

/// Runs Sec 5.1's pre-processing on the engine's compiled rule bodies: the
/// EDB tuples of each connected component of the classical fixpoint's
/// facts form one class (docs/INTERNALS.md §13). A program with a body-less
/// rule, or an input with no EDB tuple, is one class.
StatusOr<Partition> ComputePartition(const datalog::Program& program,
                                     const Instance& edb);

/// Per-class exact evaluation combined with the 1 − ∏(1 − pᵢ) formula.
struct PartitionedResult {
  BigRational probability;
  size_t num_classes = 0;
  /// Explored states per class (sum is the partitioned state-space cost;
  /// compare against the monolithic chain's state count).
  std::vector<size_t> states_per_class;
};

/// Evaluates the noninflationary reading of `program` class-by-class.
StatusOr<PartitionedResult> PartitionedExactForever(
    const datalog::Program& program, const Instance& edb,
    const QueryEvent& event, const StateSpaceOptions& options = {});

}  // namespace eval
}  // namespace pfql

#endif  // PFQL_EVAL_PARTITION_H_
