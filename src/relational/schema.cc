#include "relational/schema.h"

#include <algorithm>
#include <unordered_set>

#include "util/string_util.h"

namespace pfql {

Status Schema::Validate() const {
  std::unordered_set<std::string> seen;
  for (const auto& c : columns_) {
    if (c.empty()) return Status::InvalidArgument("empty column name");
    if (!seen.insert(c).second) {
      return Status::InvalidArgument("duplicate column name '" + c + "'");
    }
  }
  return Status::OK();
}

std::optional<size_t> Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == name) return i;
  }
  return std::nullopt;
}

StatusOr<std::vector<size_t>> Schema::IndicesOf(
    const std::vector<std::string>& names) const {
  std::vector<size_t> out;
  out.reserve(names.size());
  for (const auto& n : names) {
    auto idx = IndexOf(n);
    if (!idx) {
      return Status::NotFound("column '" + n + "' not in schema " +
                              ToString());
    }
    out.push_back(*idx);
  }
  return out;
}

Schema Schema::JoinWith(const Schema& other) const {
  std::vector<std::string> cols = columns_;
  for (const auto& c : other.columns()) {
    if (!Contains(c)) cols.push_back(c);
  }
  return Schema(std::move(cols));
}

StatusOr<Schema> Schema::ConcatDisjoint(const Schema& other) const {
  std::vector<std::string> cols = columns_;
  for (const auto& c : other.columns()) {
    if (Contains(c)) {
      return Status::InvalidArgument("product schemas share column '" + c +
                                     "'");
    }
    cols.push_back(c);
  }
  return Schema(std::move(cols));
}

std::string Schema::ToString() const {
  return "(" + JoinStrings(columns_, ", ") + ")";
}

}  // namespace pfql
