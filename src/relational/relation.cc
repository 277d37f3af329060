#include "relational/relation.h"

#include <algorithm>

#include "util/string_util.h"

namespace pfql {

StatusOr<Relation> Relation::Make(Schema schema, std::vector<Tuple> tuples) {
  PFQL_RETURN_NOT_OK(schema.Validate());
  for (const auto& t : tuples) {
    if (t.size() != schema.size()) {
      return Status::TypeError("tuple " + t.ToString() + " has arity " +
                               std::to_string(t.size()) + ", schema " +
                               schema.ToString() + " expects " +
                               std::to_string(schema.size()));
    }
  }
  // Operators that emit in scan order (product, merge-style unions) stage
  // already-sorted batches; an O(n) sortedness check dodges their sort.
  if (!std::is_sorted(tuples.begin(), tuples.end())) {
    std::sort(tuples.begin(), tuples.end());
  }
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  Relation r(std::move(schema));
  r.tuples_ = std::move(tuples);
  return r;
}

Relation::Relation(Schema schema, std::vector<Tuple> canonical)
    : schema_(std::move(schema)), tuples_(std::move(canonical)) {
  assert(std::adjacent_find(tuples_.begin(), tuples_.end(),
                            [](const Tuple& a, const Tuple& b) {
                              return !(a < b);
                            }) == tuples_.end() &&
         "plan output not sorted and distinct");
  assert(std::all_of(tuples_.begin(), tuples_.end(),
                     [&](const Tuple& t) {
                       return t.size() == schema_.size();
                     }) &&
         "plan output arity mismatch");
}

bool Relation::Insert(Tuple t) {
  assert(t.size() == schema_.size() && "tuple arity mismatch");
  auto it = std::lower_bound(tuples_.begin(), tuples_.end(), t);
  if (it != tuples_.end() && *it == t) return false;
  tuples_.insert(it, std::move(t));
  InvalidateHash();
  return true;
}

size_t Relation::InsertAll(std::vector<Tuple> tuples) {
  if (tuples.empty()) return 0;
  for (const auto& t : tuples) {
    assert(t.size() == schema_.size() && "tuple arity mismatch");
    (void)t;
  }
  std::sort(tuples.begin(), tuples.end());
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  // Drop tuples already present, then merge the genuinely new ones.
  std::vector<Tuple> fresh;
  fresh.reserve(tuples.size());
  for (auto& t : tuples) {
    if (!Contains(t)) fresh.push_back(std::move(t));
  }
  if (fresh.empty()) return 0;
  std::vector<Tuple> merged;
  merged.reserve(tuples_.size() + fresh.size());
  std::merge(std::make_move_iterator(tuples_.begin()),
             std::make_move_iterator(tuples_.end()),
             std::make_move_iterator(fresh.begin()),
             std::make_move_iterator(fresh.end()),
             std::back_inserter(merged));
  tuples_ = std::move(merged);
  InvalidateHash();
  return fresh.size();
}

bool Relation::Contains(const Tuple& t) const {
  return std::binary_search(tuples_.begin(), tuples_.end(), t);
}

StatusOr<Relation> Relation::UnionWith(const Relation& other) const {
  Relation out(schema_.empty() ? other.schema_ : schema_);
  // Every tuple of a relation has its schema's arity, so checking each
  // non-empty side's schema checks every tuple the result would hold.
  for (const Relation* side : {this, &other}) {
    if (!side->empty() && side->schema_.size() != out.schema_.size()) {
      return Status::TypeError("union of arity " +
                               std::to_string(schema_.size()) +
                               " with arity " +
                               std::to_string(other.schema_.size()));
    }
  }
  out.tuples_.reserve(tuples_.size() + other.tuples_.size());
  std::set_union(tuples_.begin(), tuples_.end(), other.tuples_.begin(),
                 other.tuples_.end(), std::back_inserter(out.tuples_));
  return out;
}

int Relation::Compare(const Relation& other) const {
  const size_t n = std::min(tuples_.size(), other.tuples_.size());
  for (size_t i = 0; i < n; ++i) {
    int c = tuples_[i].Compare(other.tuples_[i]);
    if (c != 0) return c;
  }
  if (tuples_.size() != other.tuples_.size()) {
    return tuples_.size() < other.tuples_.size() ? -1 : 1;
  }
  return 0;
}

size_t Relation::Hash() const {
  size_t h = CachedHash();
  if (h != 0) return h;
  h = tuples_.size();
  for (const auto& t : tuples_) HashCombine(&h, t.Hash());
  if (h == 0) h = 0x9e3779b97f4a7c15ULL;  // keep 0 as the "unset" sentinel
  SetCachedHash(h);
  return h;
}

std::string Relation::ToString() const {
  std::string out = schema_.ToString() + " {";
  for (size_t i = 0; i < tuples_.size(); ++i) {
    if (i > 0) out += ", ";
    out += tuples_[i].ToString();
  }
  out += "}";
  return out;
}

}  // namespace pfql
