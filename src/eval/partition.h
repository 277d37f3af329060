// The Sec 5.1 "Partitioning" optimization: a pre-processing pass over the
// classical (non-probabilistic) fixpoint of the program splits the EDB into
// independence classes — sets of base tuples whose derivations never
// interact. Classes share no base tuple, derived fact or repair-key group,
// so the chain of the whole input steps every class's chain together, and
// the event t ∈ R reads only the class whose fixpoint holds t: a
// noninflationary query is answered on that class's chain alone
// (docs/INTERNALS.md §13).
#ifndef PFQL_EVAL_PARTITION_H_
#define PFQL_EVAL_PARTITION_H_

#include <optional>
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
  /// The class whose classical fixpoint holds the event's tuple; none when
  /// the fixpoint does not hold it, so no reachable state can.
  std::optional<size_t> event_class;
};

/// Runs Sec 5.1's pre-processing on the engine's compiled rule bodies: the
/// EDB tuples of each connected component of the classical fixpoint's
/// facts form one class (docs/INTERNALS.md §13). A program with a body-less
/// rule, or an input with no EDB tuple, is one class. The event's tuple is
/// looked up as QueryEvent::Holds compares it. `cancel` (nullable) is
/// polled once per fixpoint round.
StatusOr<Partition> ComputePartition(const datalog::Program& program,
                                     const Instance& edb,
                                     const QueryEvent& event,
                                     const CancellationToken* cancel = nullptr);

/// ExactForever on the event's class alone, plus the class count. When no
/// class holds the event, the probability is 0 and no chain is built: the
/// chain fields are then 0 and false.
struct PartitionedResult : ExactForeverResult {
  size_t num_classes = 0;
};

/// Evaluates the noninflationary reading of `program` on the event's class;
/// options.cancel also bounds the partition pass.
StatusOr<PartitionedResult> PartitionedExactForever(
    const datalog::Program& program, const Instance& edb,
    const QueryEvent& event, const StateSpaceOptions& options = {});

}  // namespace eval
}  // namespace pfql

#endif  // PFQL_EVAL_PARTITION_H_
