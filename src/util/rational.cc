#include "util/rational.h"

#include <cmath>

namespace pfql {

BigRational::BigRational(BigInt num, BigInt den)
    : num_(std::move(num)), den_(std::move(den)) {
  assert(!den_.IsZero() && "BigRational with zero denominator");
  Normalize();
}

void BigRational::Normalize() {
  if (den_.IsNegative()) {
    num_ = -num_;
    den_ = -den_;
  }
  if (num_.IsZero()) {
    den_ = BigInt(1);
    return;
  }
  BigInt g = BigInt::Gcd(num_, den_);
  if (!g.IsOne()) {
    num_ /= g;
    den_ /= g;
  }
}

StatusOr<BigRational> BigRational::FromDouble(double v) {
  if (!std::isfinite(v)) {
    return Status::InvalidArgument("non-finite double in FromDouble");
  }
  if (v == 0.0) return BigRational();
  int exp = 0;
  double mant = std::frexp(v, &exp);  // v = mant * 2^exp, |mant| in [0.5, 1)
  // Scale the mantissa to a 53-bit integer.
  int64_t scaled = static_cast<int64_t>(std::ldexp(mant, 53));
  exp -= 53;
  BigInt num(scaled), den(1);
  if (exp > 0) {
    num *= BigInt::Pow(BigInt(2), static_cast<uint64_t>(exp));
  } else if (exp < 0) {
    den = BigInt::Pow(BigInt(2), static_cast<uint64_t>(-exp));
  }
  return BigRational(std::move(num), std::move(den));
}

double BigRational::ToDouble() const {
  // Scale to keep both magnitudes within double range before dividing.
  const size_t nb = num_.BitLength();
  const size_t db = den_.BitLength();
  if (nb < 900 && db < 900) {
    return num_.ToDouble() / den_.ToDouble();
  }
  // Shift both down by the same power of two (divide by 2^k exactly).
  const size_t shift = (nb > db ? db : nb) > 64 ? std::min(nb, db) - 64 : 0;
  BigInt p2 = BigInt::Pow(BigInt(2), shift);
  return (num_ / p2).ToDouble() / (den_ / p2).ToDouble();
}

std::string BigRational::ToString() const {
  if (den_.IsOne()) return num_.ToString();
  return num_.ToString() + "/" + den_.ToString();
}

int BigRational::Compare(const BigRational& other) const {
  // a/b vs c/d with b,d > 0:  compare a*d vs c*b.
  return (num_ * other.den_).Compare(other.num_ * den_);
}

BigRational BigRational::operator+(const BigRational& o) const {
  return BigRational(num_ * o.den_ + o.num_ * den_, den_ * o.den_);
}

BigRational BigRational::operator-(const BigRational& o) const {
  return BigRational(num_ * o.den_ - o.num_ * den_, den_ * o.den_);
}

BigRational BigRational::operator*(const BigRational& o) const {
  return BigRational(num_ * o.num_, den_ * o.den_);
}

BigRational BigRational::operator/(const BigRational& o) const {
  assert(!o.IsZero() && "division by zero BigRational");
  return BigRational(num_ * o.den_, den_ * o.num_);
}

}  // namespace pfql
