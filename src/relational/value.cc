#include "relational/value.h"

#include <charconv>
#include <cmath>

#include "util/string_util.h"

namespace pfql {

const char* ValueTypeToString(ValueType t) {
  switch (t) {
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

StatusOr<double> Value::ToNumeric() const {
  switch (type()) {
    case ValueType::kInt:
      return static_cast<double>(AsInt());
    case ValueType::kDouble:
      return AsDouble();
    case ValueType::kString:
      return Status::TypeError("string value '" + AsString() +
                               "' used as a number");
  }
  return Status::Internal("corrupt Value");
}

StatusOr<BigRational> Value::ToExactNumeric() const {
  switch (type()) {
    case ValueType::kInt:
      return BigRational(AsInt());
    case ValueType::kDouble:
      return BigRational::FromDouble(AsDouble());
    case ValueType::kString:
      return Status::TypeError("string value '" + AsString() +
                               "' used as a number");
  }
  return Status::Internal("corrupt Value");
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble: {
      // The shortest text that reads back as the same double, kept visibly
      // a double ("1.0", not "1"), so the text identifies the value.
      char buf[32];
      char* end = std::to_chars(buf, buf + sizeof(buf), AsDouble()).ptr;
      std::string s(buf, end);
      if (s.find_first_of(".e") == std::string::npos &&
          s.find("inf") == std::string::npos &&
          s.find("nan") == std::string::npos) {
        s += ".0";
      }
      return s;
    }
    case ValueType::kString:
      return AsString();
  }
  return "<corrupt>";
}

std::optional<Value> ParseNumericLiteral(std::string_view text) {
  // std::from_chars takes no '+'.
  if (!text.empty() && text.front() == '+') {
    text.remove_prefix(1);
    if (!text.empty() && text.front() == '-') return std::nullopt;
  }
  const char* const end = text.data() + text.size();
  if (text.find_first_of(".eE") != std::string_view::npos) {
    double d = 0;
    auto [ptr, ec] = std::from_chars(text.data(), end, d);
    if (ec != std::errc() || ptr != end) return std::nullopt;
    return Value(d);
  }
  int64_t i = 0;
  auto [ptr, ec] = std::from_chars(text.data(), end, i);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return Value(i);
}

int Value::Compare(const Value& other) const {
  if (type() != other.type()) {
    return static_cast<int>(type()) < static_cast<int>(other.type()) ? -1 : 1;
  }
  switch (type()) {
    case ValueType::kInt: {
      int64_t a = AsInt(), b = other.AsInt();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case ValueType::kDouble: {
      double a = AsDouble(), b = other.AsDouble();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case ValueType::kString:
      return AsString().compare(other.AsString()) < 0
                 ? -1
                 : (AsString() == other.AsString() ? 0 : 1);
  }
  return 0;
}

size_t Value::Hash() const {
  size_t h = static_cast<size_t>(type());
  switch (type()) {
    case ValueType::kInt:
      HashCombine(&h, std::hash<int64_t>{}(AsInt()));
      break;
    case ValueType::kDouble:
      HashCombine(&h, std::hash<double>{}(AsDouble()));
      break;
    case ValueType::kString:
      HashCombine(&h, std::hash<std::string>{}(AsString()));
      break;
  }
  return h;
}

}  // namespace pfql
