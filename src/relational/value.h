// Dynamically-typed scalar values stored in relations. PFQL relations are
// schema-flexible in the style of datalog systems: every column holds Value,
// and comparisons across types use a fixed type ordering so relations have a
// canonical (sorted) form.
#ifndef PFQL_RELATIONAL_VALUE_H_
#define PFQL_RELATIONAL_VALUE_H_

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>

#include "util/rational.h"
#include "util/status.h"

namespace pfql {

/// Runtime type tag of a Value.
enum class ValueType { kInt = 0, kDouble = 1, kString = 2 };

/// A scalar constant: 64-bit integer, double, or string.
///
/// Total order: first by type tag (int < double < string), then by value.
/// This makes tuples and relations canonically sortable. Note kInt 1 and
/// kDouble 1.0 are *different* values under this order; numeric coercion is
/// applied only inside arithmetic/comparison expressions (see expr.h).
class Value {
 public:
  /// Integer 0.
  Value() : data_(int64_t{0}) {}
  Value(int64_t v) : data_(v) {}                 // NOLINT: implicit.
  Value(int v) : data_(int64_t{v}) {}            // NOLINT: implicit.
  Value(double v) : data_(v) {}                  // NOLINT: implicit.
  Value(std::string v) : data_(std::move(v)) {}  // NOLINT: implicit.
  Value(const char* v) : data_(std::string(v)) {}  // NOLINT: implicit.

  ValueType type() const { return static_cast<ValueType>(data_.index()); }
  bool is_int() const { return type() == ValueType::kInt; }
  bool is_double() const { return type() == ValueType::kDouble; }
  bool is_string() const { return type() == ValueType::kString; }

  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  /// Numeric view: ints and doubles coerce to double; strings fail.
  StatusOr<double> ToNumeric() const;

  /// Exact non-negative weight for repair-key: ints and exactly-representable
  /// doubles convert to BigRational; strings fail.
  StatusOr<BigRational> ToExactNumeric() const;

  /// Display form: 42, 3.5, or the raw string.
  std::string ToString() const;

  int Compare(const Value& other) const;
  bool operator==(const Value& o) const { return Compare(o) == 0; }
  bool operator!=(const Value& o) const { return Compare(o) != 0; }
  bool operator<(const Value& o) const { return Compare(o) < 0; }
  bool operator<=(const Value& o) const { return Compare(o) <= 0; }
  bool operator>(const Value& o) const { return Compare(o) > 0; }
  bool operator>=(const Value& o) const { return Compare(o) >= 0; }

  size_t Hash() const;

 private:
  std::variant<int64_t, double, std::string> data_;
};

inline std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

/// Reads a whole numeric literal, the one reader of program text and
/// instance text: a double if `text` holds '.', 'e' or 'E', an int64
/// otherwise, with one optional leading '+' or '-'. Doubles read exactly
/// (subnormals too) and read back what Value::ToString prints. Nullopt if
/// characters are left over or the value is out of range (beyond int64,
/// overflowing a double, or underflowing one to zero).
std::optional<Value> ParseNumericLiteral(std::string_view text);

}  // namespace pfql

#endif  // PFQL_RELATIONAL_VALUE_H_
