// Relation schemas: ordered lists of distinct column names.
#ifndef PFQL_RELATIONAL_SCHEMA_H_
#define PFQL_RELATIONAL_SCHEMA_H_

#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "util/status.h"

namespace pfql {

/// An ordered list of distinct column names. Column positions matter for
/// tuple layout; names matter for natural join / projection / renaming.
class Schema {
 public:
  Schema() = default;
  Schema(std::initializer_list<std::string> columns)
      : columns_(columns) {}
  explicit Schema(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  /// Validates that column names are distinct and non-empty.
  Status Validate() const;

  size_t size() const { return columns_.size(); }
  bool empty() const { return columns_.empty(); }
  const std::string& column(size_t i) const { return columns_[i]; }
  const std::vector<std::string>& columns() const { return columns_; }

  /// Position of `name`, or nullopt.
  std::optional<size_t> IndexOf(const std::string& name) const;
  bool Contains(const std::string& name) const {
    return IndexOf(name).has_value();
  }

  /// Positions of several columns; error if any is missing.
  StatusOr<std::vector<size_t>> IndicesOf(
      const std::vector<std::string>& names) const;

  /// This schema followed by `other`'s columns not already present
  /// (the natural-join output schema).
  Schema JoinWith(const Schema& other) const;

  /// This schema followed by all of `other`'s columns; error on collision
  /// (the product output schema).
  StatusOr<Schema> ConcatDisjoint(const Schema& other) const;

  bool operator==(const Schema& o) const { return columns_ == o.columns_; }
  bool operator!=(const Schema& o) const { return columns_ != o.columns_; }

  /// "(A, B, C)".
  std::string ToString() const;

 private:
  std::vector<std::string> columns_;
};

}  // namespace pfql

#endif  // PFQL_RELATIONAL_SCHEMA_H_
