// Relations: set-semantics collections of same-arity tuples with a schema,
// kept in canonical (sorted, duplicate-free) form so relation equality and
// hashing are well-defined. Canonical form is what lets Markov-chain states
// (database instances) be deduplicated exactly.
//
// Two construction paths reach canonical form (see docs/INTERNALS.md):
// per-tuple Insert (incremental, O(n) per call) and RelationBuilder
// (raw-append then one Seal() sort+dedup pass — the batch path every
// operator output uses).
#ifndef PFQL_RELATIONAL_RELATION_H_
#define PFQL_RELATIONAL_RELATION_H_

#include <atomic>
#include <cassert>
#include <ostream>
#include <string>
#include <vector>

#include "relational/schema.h"
#include "relational/tuple.h"
#include "util/status.h"

namespace pfql {

/// A finite relation under set semantics.
///
/// Invariant: tuples are sorted ascending and distinct, and every tuple's
/// arity equals the schema's. All mutators preserve the invariant.
class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}
  Relation(const Relation& o)
      : schema_(o.schema_),
        tuples_(o.tuples_),
        hash_cache_(o.CachedHash()) {}
  Relation(Relation&& o) noexcept
      : schema_(std::move(o.schema_)),
        tuples_(std::move(o.tuples_)),
        hash_cache_(o.CachedHash()) {}
  Relation& operator=(const Relation& o) {
    schema_ = o.schema_;
    tuples_ = o.tuples_;
    SetCachedHash(o.CachedHash());
    return *this;
  }
  Relation& operator=(Relation&& o) noexcept {
    schema_ = std::move(o.schema_);
    tuples_ = std::move(o.tuples_);
    SetCachedHash(o.CachedHash());
    return *this;
  }

  /// Builds from arbitrary tuples (sorts + dedups). Arity-checked.
  static StatusOr<Relation> Make(Schema schema, std::vector<Tuple> tuples);

  const Schema& schema() const { return schema_; }
  const std::vector<Tuple>& tuples() const { return tuples_; }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  /// Inserts a tuple (no-op if present). Returns true if newly added.
  /// Tuple arity must match the schema.
  bool Insert(Tuple t);

  /// Inserts a batch of tuples in one canonicalization pass (sort + dedup
  /// the batch, then a single linear merge) — equivalent to calling Insert
  /// on each but O(n + k log k) instead of O(k·n). Returns the number of
  /// tuples newly added. Tuple arities must match the schema.
  size_t InsertAll(std::vector<Tuple> tuples);

  bool Contains(const Tuple& t) const;

  /// Union requires equal *arity*; the receiver's schema is kept. (Column
  /// names may differ, matching the positional semantics of
  /// datalog-produced relations.) A union with a zero-column receiver takes
  /// the other side's schema, so the default Relation() accumulates; any
  /// union whose tuples would not fit its schema's arity is a TypeError.
  StatusOr<Relation> UnionWith(const Relation& other) const;

  /// Equality compares tuple sets only (schemas may differ in names).
  bool operator==(const Relation& o) const { return tuples_ == o.tuples_; }
  bool operator!=(const Relation& o) const { return tuples_ != o.tuples_; }
  int Compare(const Relation& other) const;
  bool operator<(const Relation& o) const { return Compare(o) < 0; }

  /// Structural hash over the tuple vector, cached after the first call and
  /// invalidated by mutators. Safe for concurrent readers of a const
  /// relation (relaxed atomic cache); concurrent mutation still requires
  /// external synchronization.
  size_t Hash() const;

  /// Multi-line display with header.
  std::string ToString() const;

 private:
  friend class RelationBuilder;
  friend class RaPlan;

  // Wraps rows a compiled plan produced, which are canonical already
  // (asserted in debug builds).
  Relation(Schema schema, std::vector<Tuple> canonical);

  size_t CachedHash() const {
    return hash_cache_.load(std::memory_order_relaxed);
  }
  void SetCachedHash(size_t h) const {
    hash_cache_.store(h, std::memory_order_relaxed);
  }
  void InvalidateHash() const { SetCachedHash(0); }

  Schema schema_;
  std::vector<Tuple> tuples_;  // sorted, distinct
  // Cached Hash() value; 0 means "not computed" (computed hashes are nudged
  // off 0). Mutable + relaxed atomic so logically-const readers may race to
  // fill it without UB.
  mutable std::atomic<size_t> hash_cache_{0};
};

/// Batch construction of a Relation: append raw tuples (any order,
/// duplicates allowed, no invariant maintained in between), then Seal()
/// once to sort + dedup into canonical form. O(n log n) total versus
/// O(n²) tuple moves for n sequential Insert calls; this is the
/// construction path for every operator-output in the engine.
class RelationBuilder {
 public:
  explicit RelationBuilder(Schema schema) : schema_(std::move(schema)) {}

  void Reserve(size_t n) { tuples_.reserve(n); }

  /// Appends without canonicalizing. Arity must match the schema.
  void Add(Tuple t) {
    assert(t.size() == schema_.size() && "tuple arity mismatch");
    tuples_.push_back(std::move(t));
  }

  const Schema& schema() const { return schema_; }
  /// Number of staged (raw, possibly duplicated) tuples.
  size_t staged() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  /// Canonicalizes the staged tuples (one sort + dedup pass, via
  /// Relation::Make) and returns the finished relation. Consumes the
  /// builder: it must not be reused afterwards.
  StatusOr<Relation> Seal() {
    return Relation::Make(std::move(schema_), std::move(tuples_));
  }

 private:
  Schema schema_;
  std::vector<Tuple> tuples_;
};

inline std::ostream& operator<<(std::ostream& os, const Relation& r) {
  return os << r.ToString();
}

}  // namespace pfql

#endif  // PFQL_RELATIONAL_RELATION_H_
