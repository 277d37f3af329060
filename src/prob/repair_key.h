// The repair-key operator (paper Sec 2.2): repair-key_A@P(R) groups R's
// tuples by the key columns A and, independently per group, keeps exactly one
// tuple, chosen with probability proportional to the weight column P
// (uniform when P is omitted). Exact enumeration yields the full
// possible-worlds distribution; sampling draws one repair.
#ifndef PFQL_PROB_REPAIR_KEY_H_
#define PFQL_PROB_REPAIR_KEY_H_

#include <optional>
#include <string>
#include <vector>

#include "prob/distribution.h"
#include "relational/relation.h"
#include "util/random.h"
#include "util/status.h"

namespace pfql {

/// Specification of one repair-key application.
struct RepairKeySpec {
  /// Key column names (may be empty: one tuple chosen from the whole
  /// relation, `repair-key_∅`).
  std::vector<std::string> key_columns;
  /// Weight column; nullopt = uniform choice within each group.
  std::optional<std::string> weight_column;
};

/// Exact possible-worlds semantics of repair-key. Every world keeps the full
/// schema of `rel` (including the weight column) and exactly one tuple per
/// distinct key value. Weights must be numeric and positive; a group whose
/// total weight is zero is an error, as is a negative weight.
///
/// Worlds are returned with exact rational probabilities
///   Pr(world) = ∏_groups weight(chosen)/Σ weight(group).
StatusOr<Distribution<Relation>> RepairKeyEnumerate(const Relation& rel,
                                                    const RepairKeySpec& spec);

/// Samples one maximal repair (one world) according to the same semantics.
StatusOr<Relation> RepairKeySample(const Relation& rel,
                                   const RepairKeySpec& spec, Rng* rng);

/// One key group's normalized alternatives: the tuples sharing a key value,
/// each with its conditional probability of being the group's survivor.
struct RepairKeyGroup {
  std::vector<std::pair<Tuple, BigRational>> alternatives;
};

/// The independent choice structure of repair-key: one group per distinct
/// key value, alternatives normalized within each group. The full
/// possible-worlds distribution is the product over groups; exposing groups
/// lets callers iterate that product lazily with polynomial memory
/// (paper Prop 4.4). Zero-weight alternatives are dropped; an all-zero
/// group is an error. Groups are ordered by key value.
StatusOr<std::vector<RepairKeyGroup>> RepairKeyGroups(
    const Relation& rel, const RepairKeySpec& spec);

/// The number of possible worlds repair-key would enumerate (product of
/// group sizes), capped at `cap` to avoid overflow; returns cap when larger.
StatusOr<uint64_t> RepairKeyWorldCount(const Relation& rel,
                                       const RepairKeySpec& spec,
                                       uint64_t cap = UINT64_MAX);

// ---- Positional core -------------------------------------------------
// The functions above resolve the spec's column names against the
// relation's schema and call these; compiled plans (ra/plan.h) and the
// datalog engine resolve them once and call these directly. `rows` must be
// canonical (sorted, distinct), as a Relation's tuples are: groups come in
// key order and members in row order, which fixes the draw order.

/// Key and weight column positions of one repair-key application.
struct RepairKeyColumns {
  std::vector<size_t> key;
  std::optional<size_t> weight;
};

/// Resolves `spec` against `schema`; NotFound names a missing column.
StatusOr<RepairKeyColumns> ResolveRepairKey(const Schema& schema,
                                            const RepairKeySpec& spec);

/// RepairKeyGroups over canonical rows.
StatusOr<std::vector<RepairKeyGroup>> RepairKeyGroups(
    const std::vector<Tuple>& rows, const RepairKeyColumns& columns);

/// RepairKeySample over canonical rows; returns the kept rows, canonical.
StatusOr<std::vector<Tuple>> RepairKeySample(const std::vector<Tuple>& rows,
                                             const RepairKeyColumns& columns,
                                             Rng* rng);

}  // namespace pfql

#endif  // PFQL_PROB_REPAIR_KEY_H_
