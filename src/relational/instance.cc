#include "relational/instance.h"

#include <algorithm>
#include <cassert>

#include "util/string_util.h"

namespace pfql {

namespace {

bool NameLess(const Instance::Entry& entry, const std::string& name) {
  return entry.first < name;
}

}  // namespace

std::vector<Instance::Entry>::iterator Instance::Slot(
    const std::string& name) {
  return std::lower_bound(relations_.begin(), relations_.end(), name,
                          NameLess);
}

std::vector<Instance::Entry>::const_iterator Instance::Slot(
    const std::string& name) const {
  return std::lower_bound(relations_.begin(), relations_.end(), name,
                          NameLess);
}

void Instance::Set(const std::string& name, Relation relation) {
  auto it = Slot(name);
  if (it == relations_.end() || it->first != name) {
    relations_.emplace(it, name,
                       std::make_shared<Relation>(std::move(relation)));
  } else if (it->second.use_count() == 1) {
    // Nothing else holds the old relation, so its storage takes the new
    // one. use_count() is a relaxed load; the fence orders this write
    // after the reads of every former holder, which released its
    // reference with acq_rel. The object was made non-const (the sharing
    // Set's contract), so writing through the const pointer is defined.
    std::atomic_thread_fence(std::memory_order_acquire);
    const_cast<Relation&>(*it->second) = std::move(relation);
  } else {
    it->second = std::make_shared<Relation>(std::move(relation));
  }
  InvalidateHash();
}

void Instance::Set(const std::string& name, RelationPtr relation) {
  assert(relation != nullptr && "Instance::Set of a null relation");
  auto it = Slot(name);
  if (it == relations_.end() || it->first != name) {
    relations_.emplace(it, name, std::move(relation));
  } else {
    it->second = std::move(relation);
  }
  InvalidateHash();
}

const Relation* Instance::Find(const std::string& name) const {
  auto it = Slot(name);
  return it == relations_.end() || it->first != name ? nullptr
                                                     : it->second.get();
}

Instance::RelationPtr Instance::FindShared(const std::string& name) const {
  auto it = Slot(name);
  return it == relations_.end() || it->first != name ? nullptr : it->second;
}

std::map<std::string, Schema> Instance::Schemas() const {
  std::map<std::string, Schema> schemas;
  for (const auto& [name, rel] : relations_) {
    schemas.emplace(name, rel->schema());
  }
  return schemas;
}

size_t Instance::TotalTuples() const {
  size_t n = 0;
  for (const auto& [_, rel] : relations_) n += rel->size();
  return n;
}

bool Instance::operator==(const Instance& o) const {
  return Compare(o) == 0;
}

int Instance::Compare(const Instance& other) const {
  auto it = relations_.begin();
  auto jt = other.relations_.begin();
  for (; it != relations_.end() && jt != other.relations_.end(); ++it, ++jt) {
    if (it->first != jt->first) return it->first < jt->first ? -1 : 1;
    if (it->second == jt->second) continue;  // shared: equal
    int c = it->second->Compare(*jt->second);
    if (c != 0) return c;
  }
  if (it != relations_.end()) return 1;
  if (jt != other.relations_.end()) return -1;
  return 0;
}

size_t Instance::Hash() const {
  size_t h = CachedHash();
  if (h != 0) return h;
  h = relations_.size();
  for (const auto& [name, rel] : relations_) {
    HashCombine(&h, std::hash<std::string>{}(name));
    HashCombine(&h, rel->Hash());
  }
  if (h == 0) h = 0x9e3779b97f4a7c15ULL;  // keep 0 as the "unset" sentinel
  SetCachedHash(h);
  return h;
}

std::string Instance::ToString() const {
  std::string out;
  for (const auto& [name, rel] : relations_) {
    out += name + rel->ToString() + "\n";
  }
  return out;
}

}  // namespace pfql
