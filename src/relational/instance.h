// Database instances: named relations in canonical form. An Instance is the
// "state" of the paper's random walks in-between database instances, so it
// supports exact equality, ordering, and hashing.
#ifndef PFQL_RELATIONAL_INSTANCE_H_
#define PFQL_RELATIONAL_INSTANCE_H_

#include <atomic>
#include <map>
#include <ostream>
#include <string>

#include "relational/relation.h"
#include "util/status.h"

namespace pfql {

/// A database instance: an ordered map from relation name to Relation.
class Instance {
 public:
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

  /// Adds or replaces a relation.
  void Set(const std::string& name, Relation relation) {
    relations_[name] = std::move(relation);
    InvalidateHash();
  }

  bool Has(const std::string& name) const {
    return relations_.count(name) > 0;
  }

  /// Error if absent.
  StatusOr<Relation> Get(const std::string& name) const;

  /// Pointer access; nullptr if absent. FindMutable conservatively
  /// invalidates the cached hash: the caller may mutate the relation.
  const Relation* Find(const std::string& name) const;
  Relation* FindMutable(const std::string& name);

  const std::map<std::string, Relation>& relations() const {
    return relations_;
  }
  size_t relation_count() const { return relations_.size(); }

  /// Each relation's schema, by name: what plans compile against.
  std::map<std::string, Schema> Schemas() const;

  /// Total tuple count across relations.
  size_t TotalTuples() const;

  /// All distinct Values appearing in any tuple (the active domain).
  std::vector<Value> ActiveDomain() const;

  bool operator==(const Instance& o) const;
  bool operator!=(const Instance& o) const { return !(*this == o); }
  /// Total order over instances with identical relation-name sets
  /// (names compared too, so it is total over all instances).
  int Compare(const Instance& other) const;
  bool operator<(const Instance& o) const { return Compare(o) < 0; }

  /// Structural hash over relation names and contents, cached after the
  /// first call and invalidated by Set/FindMutable. Safe for concurrent
  /// readers of a const instance (relaxed atomic cache).
  size_t Hash() const;

  std::string ToString() const;

 private:
  size_t CachedHash() const {
    return hash_cache_.load(std::memory_order_relaxed);
  }
  void SetCachedHash(size_t h) const {
    hash_cache_.store(h, std::memory_order_relaxed);
  }
  void InvalidateHash() const { SetCachedHash(0); }

  std::map<std::string, Relation> relations_;
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
