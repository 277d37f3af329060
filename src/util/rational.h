// Exact rational arithmetic over BigInt. All exact probability computation in
// the library uses BigRational, so possible-world weights such as 1/2^200 are
// represented without rounding. Invariant: always normalized (gcd-reduced,
// positive denominator, 0 represented as 0/1).
#ifndef PFQL_UTIL_RATIONAL_H_
#define PFQL_UTIL_RATIONAL_H_

#include <ostream>
#include <string>

#include "util/bigint.h"
#include "util/status.h"

namespace pfql {

/// An exact rational number p/q with BigInt numerator and denominator.
class BigRational {
 public:
  /// Zero.
  BigRational() : num_(0), den_(1) {}
  /// Whole number.
  BigRational(int64_t v) : num_(v), den_(1) {}  // NOLINT: implicit by design.
  /// num/den; den must be nonzero. Normalizes.
  BigRational(BigInt num, BigInt den);
  BigRational(int64_t num, int64_t den)
      : BigRational(BigInt(num), BigInt(den)) {}

  /// The exact rational equal to the given double (doubles are dyadic
  /// rationals). NaN/inf are invalid.
  static StatusOr<BigRational> FromDouble(double v);

  const BigInt& num() const { return num_; }
  const BigInt& den() const { return den_; }

  bool IsZero() const { return num_.IsZero(); }
  bool IsOne() const { return num_ == den_; }
  bool IsNegative() const { return num_.IsNegative(); }

  double ToDouble() const;

  /// "p" when q == 1, otherwise "p/q".
  std::string ToString() const;

  int Compare(const BigRational& other) const;

  BigRational operator+(const BigRational& o) const;
  BigRational operator-(const BigRational& o) const;
  BigRational operator*(const BigRational& o) const;
  /// o must be nonzero.
  BigRational operator/(const BigRational& o) const;

  BigRational& operator+=(const BigRational& o) { return *this = *this + o; }
  BigRational& operator-=(const BigRational& o) { return *this = *this - o; }
  BigRational& operator*=(const BigRational& o) { return *this = *this * o; }
  BigRational& operator/=(const BigRational& o) { return *this = *this / o; }

  bool operator==(const BigRational& o) const { return Compare(o) == 0; }
  bool operator!=(const BigRational& o) const { return Compare(o) != 0; }
  bool operator<(const BigRational& o) const { return Compare(o) < 0; }
  bool operator<=(const BigRational& o) const { return Compare(o) <= 0; }
  bool operator>(const BigRational& o) const { return Compare(o) > 0; }
  bool operator>=(const BigRational& o) const { return Compare(o) >= 0; }

 private:
  void Normalize();

  BigInt num_;
  BigInt den_;  // always > 0
};

inline std::ostream& operator<<(std::ostream& os, const BigRational& v) {
  return os << v.ToString();
}

}  // namespace pfql

#endif  // PFQL_UTIL_RATIONAL_H_
