#include "util/bigint.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <numeric>
#include <vector>

namespace pfql {

namespace {
constexpr uint64_t kBase = 1ULL << 32;
}  // namespace

void BigInt::Limbs::Grow(size_t n) {
  const size_t capacity = std::max<size_t>(n, 2 * size_t{capacity_});
  uint32_t* grown = new uint32_t[capacity];
  std::copy_n(data(), size_, grown);
  Release();
  heap_ = grown;
  capacity_ = static_cast<uint32_t>(capacity);
}

BigInt::BigInt(int64_t v) : negative_(v < 0) {
  // Avoid UB on INT64_MIN: negate in unsigned space.
  uint64_t mag = v < 0 ? ~static_cast<uint64_t>(v) + 1 : static_cast<uint64_t>(v);
  while (mag != 0) {
    limbs_.push_back(static_cast<uint32_t>(mag & 0xffffffffULL));
    mag >>= 32;
  }
}

BigInt::BigInt(uint64_t v, bool negative) : negative_(negative) {
  while (v != 0) {
    limbs_.push_back(static_cast<uint32_t>(v & 0xffffffffULL));
    v >>= 32;
  }
  if (limbs_.empty()) negative_ = false;
}

void BigInt::Trim() {
  limbs_.Trim();
  if (limbs_.empty()) negative_ = false;
}

StatusOr<BigInt> BigInt::FromString(std::string_view s) {
  if (s.empty()) return Status::ParseError("empty integer literal");
  bool neg = false;
  size_t i = 0;
  if (s[0] == '+' || s[0] == '-') {
    neg = s[0] == '-';
    i = 1;
  }
  if (i == s.size()) return Status::ParseError("sign without digits");
  BigInt result;
  const BigInt ten(10);
  for (; i < s.size(); ++i) {
    char c = s[i];
    if (c < '0' || c > '9') {
      return Status::ParseError(std::string("invalid digit '") + c +
                                "' in integer literal");
    }
    result = result * ten + BigInt(static_cast<int64_t>(c - '0'));
  }
  result.negative_ = neg && !result.IsZero();
  return result;
}

std::string BigInt::ToString() const {
  if (IsZero()) return "0";
  // Repeated division by 10^9 to extract decimal chunks.
  Limbs mag = limbs_;
  std::string digits;
  constexpr uint32_t kChunk = 1000000000u;
  while (!mag.empty()) {
    uint64_t rem = 0;
    for (size_t i = mag.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | mag[i];
      mag[i] = static_cast<uint32_t>(cur / kChunk);
      rem = cur % kChunk;
    }
    mag.Trim();
    for (int d = 0; d < 9; ++d) {
      digits.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

double BigInt::ToDouble() const {
  double result = 0.0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    result = result * 4294967296.0 + static_cast<double>(limbs_[i]);
  }
  return negative_ ? -result : result;
}

StatusOr<int64_t> BigInt::ToInt64() const {
  if (limbs_.size() > 2) return Status::OutOfRange("BigInt exceeds int64");
  uint64_t mag = 0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    mag = (mag << 32) | limbs_[i];
  }
  if (negative_) {
    if (mag > 0x8000000000000000ULL) {
      return Status::OutOfRange("BigInt exceeds int64");
    }
    return static_cast<int64_t>(~mag + 1);
  }
  if (mag > 0x7fffffffffffffffULL) {
    return Status::OutOfRange("BigInt exceeds int64");
  }
  return static_cast<int64_t>(mag);
}

size_t BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  uint32_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 32;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

int BigInt::CompareMagnitude(const Limbs& a, const Limbs& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

int BigInt::Compare(const BigInt& other) const {
  if (negative_ != other.negative_) return negative_ ? -1 : 1;
  int mag = CompareMagnitude(limbs_, other.limbs_);
  return negative_ ? -mag : mag;
}

BigInt BigInt::operator-() const {
  BigInt result = *this;
  if (!result.IsZero()) result.negative_ = !result.negative_;
  return result;
}

void BigInt::AddMagnitude(const Limbs& a, const Limbs& b, Limbs* out) {
  const Limbs& longer = a.size() >= b.size() ? a : b;
  const Limbs& shorter = a.size() >= b.size() ? b : a;
  out->resize(longer.size());
  uint64_t carry = 0;
  for (size_t i = 0; i < longer.size(); ++i) {
    uint64_t sum = carry + longer[i];
    if (i < shorter.size()) sum += shorter[i];
    (*out)[i] = static_cast<uint32_t>(sum & 0xffffffffULL);
    carry = sum >> 32;
  }
  if (carry != 0) out->push_back(static_cast<uint32_t>(carry));
}

void BigInt::SubMagnitude(const Limbs& a, const Limbs& b, Limbs* out) {
  out->resize(a.size());
  uint64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const uint64_t sub = borrow + (i < b.size() ? b[i] : 0u);
    borrow = a[i] < sub;
    (*out)[i] = static_cast<uint32_t>(a[i] - sub);
  }
  out->Trim();
}

void BigInt::MulMagnitude(const Limbs& a, const Limbs& b, Limbs* out) {
  out->resize(0);
  if (a.empty() || b.empty()) return;
  out->resize(a.size() + b.size());
  uint32_t* o = out->data();
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t carry = 0;
    const uint64_t ai = a[i];
    for (size_t j = 0; j < b.size(); ++j) {
      uint64_t cur = o[i + j] + ai * b[j] + carry;
      o[i + j] = static_cast<uint32_t>(cur & 0xffffffffULL);
      carry = cur >> 32;
    }
    // Row i has not reached this limb yet, so it is still zero.
    o[i + b.size()] = static_cast<uint32_t>(carry);
  }
  out->Trim();
}

BigInt BigInt::AddSigned(const BigInt& a, const BigInt& b, bool b_negative) {
  BigInt result;
  if (a.negative_ == b_negative) {
    AddMagnitude(a.limbs_, b.limbs_, &result.limbs_);
    result.negative_ = b_negative;
  } else {
    int cmp = CompareMagnitude(a.limbs_, b.limbs_);
    if (cmp == 0) return result;
    if (cmp > 0) {
      SubMagnitude(a.limbs_, b.limbs_, &result.limbs_);
      result.negative_ = a.negative_;
    } else {
      SubMagnitude(b.limbs_, a.limbs_, &result.limbs_);
      result.negative_ = b_negative;
    }
  }
  result.Trim();
  return result;
}

BigInt BigInt::operator+(const BigInt& other) const {
  return AddSigned(*this, other, other.negative_);
}

BigInt BigInt::operator-(const BigInt& other) const {
  return AddSigned(*this, other, !other.negative_);
}

BigInt BigInt::operator*(const BigInt& other) const {
  BigInt result;
  MulMagnitude(limbs_, other.limbs_, &result.limbs_);
  result.negative_ = !result.limbs_.empty() && (negative_ != other.negative_);
  return result;
}

void BigInt::DivModMagnitude(const Limbs& u, const Limbs& v, Limbs* q,
                             Limbs* r) {
  const size_t n = v.size();
  if (CompareMagnitude(u, v) < 0) {
    if (q != nullptr) q->resize(0);
    *r = u;
    return;
  }
  const size_t m = u.size() - n;
  if (q != nullptr) q->resize(m + 1);
  // Single-limb fast path: one 64-by-32-bit division per limb.
  if (n == 1) {
    const uint64_t d = v[0];
    uint64_t rem = 0;
    for (size_t i = u.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | u[i];
      if (q != nullptr) (*q)[i] = static_cast<uint32_t>(cur / d);
      rem = cur % d;
    }
    r->resize(0);
    if (rem != 0) r->push_back(static_cast<uint32_t>(rem));
    if (q != nullptr) q->Trim();
    return;
  }
  // Algorithm D (Knuth, TAOCP Vol. 2, §4.3.1), one quotient limb per step.
  // D1: shift both operands left until the divisor's top bit is set; the
  // dividend gains a limb. Scratch lives on the stack for small operands.
  const int s = std::countl_zero(v.back());
  auto shifted = [s](uint32_t hi, uint32_t lo) {
    return static_cast<uint32_t>((((uint64_t{hi} << 32) | lo) << s) >> 32);
  };
  uint32_t stack[32];
  std::vector<uint32_t> spill;
  uint32_t* un = stack;
  if (m + 2 * n + 1 > std::size(stack)) {
    spill.resize(m + 2 * n + 1);
    un = spill.data();
  }
  uint32_t* vn = un + m + n + 1;
  for (size_t i = n - 1; i > 0; --i) vn[i] = shifted(v[i], v[i - 1]);
  vn[0] = v[0] << s;
  un[m + n] = shifted(0, u[m + n - 1]);
  for (size_t i = m + n - 1; i > 0; --i) un[i] = shifted(u[i], u[i - 1]);
  un[0] = u[0] << s;

  const uint64_t v1 = vn[n - 1];
  const uint64_t v2 = vn[n - 2];
  for (size_t j = m + 1; j-- > 0;) {
    // D3: estimate q̂ from the top two limbs and correct it with the third;
    // afterwards q̂ is exact or one too large.
    const uint64_t top = (uint64_t{un[j + n]} << 32) | un[j + n - 1];
    uint64_t qhat = top / v1;
    uint64_t rhat = top % v1;
    while (qhat >= kBase || qhat * v2 > ((rhat << 32) | un[j + n - 2])) {
      --qhat;
      rhat += v1;
      if (rhat >= kBase) break;
    }
    // D4: subtract q̂ times the divisor from the current window.
    uint64_t carry = 0;
    uint64_t borrow = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t product = qhat * vn[i] + carry;
      carry = product >> 32;
      const uint64_t sub = (product & 0xffffffffULL) + borrow;
      borrow = un[i + j] < sub;
      un[i + j] = static_cast<uint32_t>(un[i + j] - sub);
    }
    const uint64_t sub = carry + borrow;
    const bool overshot = un[j + n] < sub;
    un[j + n] = static_cast<uint32_t>(un[j + n] - sub);
    // D6: q̂ was one too large (probability about 2/2^32): add back.
    if (overshot) {
      --qhat;
      uint64_t c = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint64_t sum = uint64_t{un[i + j]} + vn[i] + c;
        un[i + j] = static_cast<uint32_t>(sum);
        c = sum >> 32;
      }
      un[j + n] = static_cast<uint32_t>(un[j + n] + c);
    }
    if (q != nullptr) (*q)[j] = static_cast<uint32_t>(qhat);
  }
  // D8: the remainder is the low n limbs, shifted back.
  r->resize(n);
  for (size_t i = 0; i < n; ++i) {
    (*r)[i] = static_cast<uint32_t>(((uint64_t{un[i + 1]} << 32) | un[i]) >> s);
  }
  r->Trim();
  if (q != nullptr) q->Trim();
}

void BigInt::DivMod(const BigInt& dividend, const BigInt& divisor,
                    BigInt* quotient, BigInt* remainder) {
  assert(!divisor.IsZero() && "division by zero BigInt");
  BigInt q, r;
  DivModMagnitude(dividend.limbs_, divisor.limbs_, &q.limbs_, &r.limbs_);
  q.negative_ = !q.IsZero() && (dividend.negative_ != divisor.negative_);
  r.negative_ = !r.IsZero() && dividend.negative_;
  *quotient = std::move(q);
  *remainder = std::move(r);
}

BigInt BigInt::operator/(const BigInt& other) const {
  BigInt q, r;
  DivMod(*this, other, &q, &r);
  return q;
}

BigInt BigInt::Gcd(BigInt a, BigInt b) {
  auto word = [](const Limbs& limbs) {
    uint64_t w = 0;
    for (size_t i = limbs.size(); i-- > 0;) w = (w << 32) | limbs[i];
    return w;
  };
  a.negative_ = false;
  b.negative_ = false;
  Limbs r;
  while (!b.IsZero()) {
    // Once both fit in a word, the word gcd finishes.
    if (a.limbs_.size() <= 2 && b.limbs_.size() <= 2) {
      return BigInt(std::gcd(word(a.limbs_), word(b.limbs_)), false);
    }
    // Euclid: (a, b) <- (b, a mod b), rotating the three buffers.
    DivModMagnitude(a.limbs_, b.limbs_, nullptr, &r);
    std::swap(a.limbs_, b.limbs_);
    std::swap(b.limbs_, r);
  }
  return a;
}

BigInt BigInt::Pow(const BigInt& base, uint64_t exp) {
  BigInt result(1);
  BigInt cur = base;
  while (exp != 0) {
    if (exp & 1) result *= cur;
    exp >>= 1;
    if (exp != 0) cur *= cur;
  }
  return result;
}

}  // namespace pfql
