// Database instances: named relations in canonical form. An Instance is the
// "state" of the paper's random walks in-between database instances, so it
// supports exact equality, ordering, and hashing.
//
// Relations are held through shared pointers to immutable Relations, so
// copying an instance copies pointers and the relations one step does not
// change are shared by every state that holds them (docs/INTERNALS.md §12).
// A relation two instances hold is never modified: every update replaces
// it through Set.
#ifndef PFQL_RELATIONAL_INSTANCE_H_
#define PFQL_RELATIONAL_INSTANCE_H_

#include <atomic>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "relational/relation.h"
#include "util/status.h"

namespace pfql {

/// A database instance: named relations, ordered by name.
class Instance {
 public:
  using RelationPtr = std::shared_ptr<const Relation>;
  using Entry = std::pair<std::string, RelationPtr>;

  Instance() = default;
  Instance(const Instance& o)
      : relations_(o.relations_), hash_cache_(o.CachedHash()) {}
  Instance(Instance&& o) noexcept
      : relations_(std::move(o.relations_)), hash_cache_(o.CachedHash()) {}
  Instance& operator=(const Instance& o) {
    relations_ = o.relations_;
    SetCachedHash(o.CachedHash());
    return *this;
  }
  Instance& operator=(Instance&& o) noexcept {
    relations_ = std::move(o.relations_);
    SetCachedHash(o.CachedHash());
    return *this;
  }

  /// Adds or replaces a relation. A replaced relation that nothing else
  /// holds (no other instance, no shared pointer) has its storage reused,
  /// so stepping an instance in place allocates no more than the new
  /// relation's tuples.
  void Set(const std::string& name, Relation relation);
  /// Adds or replaces a relation with `relation` itself, shared, not
  /// copied. `relation` must not be null, and must come from another
  /// instance or from std::make_shared<Relation> (a non-const object: Set
  /// above may later reuse its storage once this instance is its only
  /// holder).
  void Set(const std::string& name, RelationPtr relation);

  bool Has(const std::string& name) const { return Find(name) != nullptr; }

  /// A copy of the relation; error if absent.
  StatusOr<Relation> Get(const std::string& name) const;

  /// The relation, or nullptr if absent. The pointer stays valid while this
  /// instance holds that relation: a Set of `name` (or the instance's
  /// destruction) may free or overwrite it.
  const Relation* Find(const std::string& name) const;
  /// The relation's shared pointer, or null if absent.
  RelationPtr FindShared(const std::string& name) const;

  /// (name, relation) in name order.
  const std::vector<Entry>& relations() const { return relations_; }
  size_t relation_count() const { return relations_.size(); }

  /// Each relation's schema, by name: what plans compile against.
  std::map<std::string, Schema> Schemas() const;

  /// Total tuple count across relations.
  size_t TotalTuples() const;

  /// All distinct Values appearing in any tuple (the active domain).
  std::vector<Value> ActiveDomain() const;

  /// Equality and order skip the relations both sides share.
  bool operator==(const Instance& o) const;
  bool operator!=(const Instance& o) const { return !(*this == o); }
  /// Total order over instances with identical relation-name sets
  /// (names compared too, so it is total over all instances).
  int Compare(const Instance& other) const;
  bool operator<(const Instance& o) const { return Compare(o) < 0; }

  /// Structural hash over relation names and the relations' cached hashes,
  /// cached after the first call and invalidated by Set. Safe for
  /// concurrent readers of a const instance (relaxed atomic cache).
  size_t Hash() const;

  std::string ToString() const;

 private:
  // The slot of `name`, or where it would be inserted.
  std::vector<Entry>::iterator Slot(const std::string& name);
  std::vector<Entry>::const_iterator Slot(const std::string& name) const;

  size_t CachedHash() const {
    return hash_cache_.load(std::memory_order_relaxed);
  }
  void SetCachedHash(size_t h) const {
    hash_cache_.store(h, std::memory_order_relaxed);
  }
  void InvalidateHash() const { SetCachedHash(0); }

  std::vector<Entry> relations_;  // sorted by name, names distinct
  // Cached Hash() value; 0 means "not computed" (computed hashes are nudged
  // off 0).
  mutable std::atomic<size_t> hash_cache_{0};
};

inline std::ostream& operator<<(std::ostream& os, const Instance& d) {
  return os << d.ToString();
}

/// Hash functor for unordered containers keyed by Instance.
struct InstanceHash {
  size_t operator()(const Instance& d) const { return d.Hash(); }
};

}  // namespace pfql

#endif  // PFQL_RELATIONAL_INSTANCE_H_
