#include "relational/instance.h"

#include <algorithm>

#include "util/string_util.h"

namespace pfql {

StatusOr<Relation> Instance::Get(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation '" + name + "' not in instance");
  }
  return it->second;
}

const Relation* Instance::Find(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

Relation* Instance::FindMutable(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) return nullptr;
  InvalidateHash();  // the caller may mutate the relation through this
  return &it->second;
}

std::map<std::string, Schema> Instance::Schemas() const {
  std::map<std::string, Schema> schemas;
  for (const auto& [name, rel] : relations_) schemas.emplace(name, rel.schema());
  return schemas;
}

size_t Instance::TotalTuples() const {
  size_t n = 0;
  for (const auto& [_, rel] : relations_) n += rel.size();
  return n;
}

std::vector<Value> Instance::ActiveDomain() const {
  std::vector<Value> domain;
  for (const auto& [_, rel] : relations_) {
    for (const auto& t : rel.tuples()) {
      for (const auto& v : t.values()) domain.push_back(v);
    }
  }
  std::sort(domain.begin(), domain.end());
  domain.erase(std::unique(domain.begin(), domain.end()), domain.end());
  return domain;
}

bool Instance::operator==(const Instance& o) const {
  return Compare(o) == 0;
}

int Instance::Compare(const Instance& other) const {
  auto it = relations_.begin();
  auto jt = other.relations_.begin();
  for (; it != relations_.end() && jt != other.relations_.end(); ++it, ++jt) {
    if (it->first != jt->first) return it->first < jt->first ? -1 : 1;
    int c = it->second.Compare(jt->second);
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
    HashCombine(&h, rel.Hash());
  }
  if (h == 0) h = 0x9e3779b97f4a7c15ULL;  // keep 0 as the "unset" sentinel
  SetCachedHash(h);
  return h;
}

std::string Instance::ToString() const {
  std::string out;
  for (const auto& [name, rel] : relations_) {
    out += name + rel.ToString() + "\n";
  }
  return out;
}

}  // namespace pfql
