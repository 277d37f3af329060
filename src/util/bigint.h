// Arbitrary-precision signed integers, implemented from scratch
// (sign-magnitude, base 2^32 limbs). Exact probability computation multiplies
// thousands of rational weights (e.g. 1/2^n for n >> 64), so fixed-width
// integers are insufficient for the exact evaluation engines.
//
// Every BigRational operation forms a product of two word-sized values and
// reduces it by a gcd, so the common case is kept off the heap and out of
// bit loops: magnitudes up to 128 bits (4 limbs, any product of two 64-bit
// values) live inside the object, division is Knuth's Algorithm D (TAOCP
// Vol. 2, §4.3.1), and Gcd finishes with a word gcd once both operands fit
// in 64 bits. docs/INTERNALS.md §10 has the details.
#ifndef PFQL_UTIL_BIGINT_H_
#define PFQL_UTIL_BIGINT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

#include "util/status.h"

namespace pfql {

/// Arbitrary-precision signed integer.
///
/// Representation: sign flag + little-endian 32-bit limbs with no trailing
/// zero limbs; zero has no limbs and a positive sign.
class BigInt {
 public:
  /// Zero.
  BigInt() = default;
  /// From a machine integer.
  BigInt(int64_t v);   // NOLINT: implicit by design, mirrors int literals.
  BigInt(uint64_t v, bool negative);

  BigInt(const BigInt&) = default;
  BigInt& operator=(const BigInt&) = default;
  /// A moved-from BigInt is zero.
  BigInt(BigInt&& o) noexcept
      : limbs_(std::move(o.limbs_)),
        negative_(std::exchange(o.negative_, false)) {}
  BigInt& operator=(BigInt&& o) noexcept {
    limbs_ = std::move(o.limbs_);
    negative_ = std::exchange(o.negative_, false);
    return *this;
  }

  /// Parses an optionally signed decimal string.
  static StatusOr<BigInt> FromString(std::string_view s);

  /// Decimal representation, e.g. "-1234".
  std::string ToString() const;

  /// Nearest double (may overflow to +/-inf for huge magnitudes).
  double ToDouble() const;

  /// Value as int64 if it fits.
  StatusOr<int64_t> ToInt64() const;

  bool IsZero() const { return limbs_.empty(); }
  bool IsNegative() const { return negative_; }
  bool IsOne() const {
    return !negative_ && limbs_.size() == 1 && limbs_[0] == 1;
  }

  /// Number of significant bits of the magnitude (0 for zero).
  size_t BitLength() const;

  /// Three-way comparison: -1, 0, or +1.
  int Compare(const BigInt& other) const;

  BigInt operator-() const;

  BigInt operator+(const BigInt& other) const;
  BigInt operator-(const BigInt& other) const;
  BigInt operator*(const BigInt& other) const;
  /// Truncated division (C++ semantics); other must be nonzero.
  BigInt operator/(const BigInt& other) const;

  BigInt& operator+=(const BigInt& other) { return *this = *this + other; }
  BigInt& operator-=(const BigInt& other) { return *this = *this - other; }
  BigInt& operator*=(const BigInt& other) { return *this = *this * other; }
  BigInt& operator/=(const BigInt& other) { return *this = *this / other; }

  bool operator==(const BigInt& o) const { return Compare(o) == 0; }
  bool operator!=(const BigInt& o) const { return Compare(o) != 0; }
  bool operator<(const BigInt& o) const { return Compare(o) < 0; }
  bool operator<=(const BigInt& o) const { return Compare(o) <= 0; }
  bool operator>(const BigInt& o) const { return Compare(o) > 0; }
  bool operator>=(const BigInt& o) const { return Compare(o) >= 0; }

  /// Greatest common divisor of |a| and |b| (always non-negative).
  static BigInt Gcd(BigInt a, BigInt b);

  /// base^exp for exp >= 0 (by repeated squaring).
  static BigInt Pow(const BigInt& base, uint64_t exp);

  /// Quotient and remainder in one pass; divisor must be nonzero.
  static void DivMod(const BigInt& dividend, const BigInt& divisor,
                     BigInt* quotient, BigInt* remainder);

 private:
  /// Limb storage: up to kInline limbs inside the object, the heap beyond.
  /// A moved-from Limbs is empty.
  class Limbs {
   public:
    static constexpr uint32_t kInline = 4;

    Limbs() = default;
    Limbs(const Limbs& o) { Assign(o); }
    Limbs(Limbs&& o) noexcept { Steal(&o); }
    Limbs& operator=(const Limbs& o) {
      if (this != &o) Assign(o);
      return *this;
    }
    Limbs& operator=(Limbs&& o) noexcept {
      if (this != &o) {
        Release();
        Steal(&o);
      }
      return *this;
    }
    ~Limbs() { Release(); }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    uint32_t* data() { return capacity_ > kInline ? heap_ : inline_; }
    const uint32_t* data() const {
      return capacity_ > kInline ? heap_ : inline_;
    }
    uint32_t& operator[](size_t i) { return data()[i]; }
    uint32_t operator[](size_t i) const { return data()[i]; }
    uint32_t back() const { return data()[size_ - 1]; }
    void push_back(uint32_t limb) {
      if (size_ == capacity_) Grow(size_ + 1);
      data()[size_++] = limb;
    }
    /// Limbs past the old size are zero.
    void resize(size_t n) {
      if (n > capacity_) Grow(n);
      uint32_t* limbs = data();
      for (size_t i = size_; i < n; ++i) limbs[i] = 0;
      size_ = static_cast<uint32_t>(n);
    }
    /// Drops high zero limbs.
    void Trim() {
      while (size_ > 0 && back() == 0) --size_;
    }

   private:
    // Moves the limbs to a heap block of at least n limbs.
    void Grow(size_t n);
    void Assign(const Limbs& o) {
      size_ = 0;
      if (o.size_ > capacity_) Grow(o.size_);
      std::copy_n(o.data(), o.size_, data());
      size_ = o.size_;
    }
    void Steal(Limbs* o) {
      size_ = o->size_;
      capacity_ = o->capacity_;
      if (capacity_ > kInline) {
        heap_ = o->heap_;
      } else {
        std::memcpy(inline_, o->inline_, sizeof(inline_));
      }
      o->size_ = 0;
      o->capacity_ = kInline;
    }
    void Release() {
      if (capacity_ > kInline) delete[] heap_;
      capacity_ = kInline;
    }

    uint32_t size_ = 0;
    uint32_t capacity_ = kInline;
    union {
      uint32_t inline_[kInline];
      uint32_t* heap_;
    };
  };

  // Magnitude comparison: -1/0/+1.
  static int CompareMagnitude(const Limbs& a, const Limbs& b);
  static void AddMagnitude(const Limbs& a, const Limbs& b, Limbs* out);
  // Requires |a| >= |b|.
  static void SubMagnitude(const Limbs& a, const Limbs& b, Limbs* out);
  static void MulMagnitude(const Limbs& a, const Limbs& b, Limbs* out);
  // |u| = q * |v| + r with 0 <= r < |v|; q may be null. v is nonzero.
  static void DivModMagnitude(const Limbs& u, const Limbs& v, Limbs* q,
                              Limbs* r);
  // a + b, with b's sign replaced by b_negative.
  static BigInt AddSigned(const BigInt& a, const BigInt& b, bool b_negative);
  void Trim();

  Limbs limbs_;  // little-endian, no trailing zeros
  bool negative_ = false;
};

inline std::ostream& operator<<(std::ostream& os, const BigInt& v) {
  return os << v.ToString();
}

}  // namespace pfql

#endif  // PFQL_UTIL_BIGINT_H_
