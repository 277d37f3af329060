// Gaussian elimination over any field type (double or BigRational): the
// linear solver behind the double stationary distributions (πP = π),
// absorption probabilities and hitting times for Markov chains over database
// states (paper Prop 5.4 / Thm 5.5). The exact solves use the sparse state
// reduction in markov_chain.cc instead; the tests keep the BigRational
// instantiation as their oracle.
#ifndef PFQL_MARKOV_MATRIX_H_
#define PFQL_MARKOV_MATRIX_H_

#include <cmath>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "util/cancellation.h"
#include "util/rational.h"
#include "util/status.h"

namespace pfql {

namespace internal {
template <typename F>
bool FieldIsZero(const F& v) {
  if constexpr (std::is_same_v<F, double>) {
    return std::fabs(v) < 1e-12;
  } else {
    return v.IsZero();
  }
}
// Whether x - f * v == x for every x, so a row update can skip v: true for
// the zeros of an exact field. Doubles never skip, since x - f * 0.0 can
// flip the sign of a zero x and double results stay bit-identical.
template <typename F>
bool UpdateIsNoOp(const F& v) {
  if constexpr (std::is_same_v<F, double>) {
    return false;
  } else {
    return v.IsZero();
  }
}
template <typename F>
bool PivotBetter(const F& candidate, const F& incumbent) {
  if constexpr (std::is_same_v<F, double>) {
    return std::fabs(candidate) > std::fabs(incumbent);
  } else {
    // Exact fields need any nonzero pivot.
    return incumbent.IsZero() && !candidate.IsZero();
  }
}
}  // namespace internal

/// Solves A x = b over field F (double or BigRational) by Gauss-Jordan
/// elimination with partial pivoting. A is given as vector of rows and
/// consumed. Returns InvalidArgument on malformed or singular systems, and
/// Cancelled/DeadlineExceeded when `cancel` fires (polled per pivot column
/// and per row update, since one exact column can outlast a deadline).
template <typename F>
StatusOr<std::vector<F>> SolveLinearSystemField(
    std::vector<std::vector<F>> a, std::vector<F> b,
    const CancellationToken* cancel = nullptr) {
  const size_t n = a.size();
  for (const auto& row : a) {
    if (row.size() != n) {
      return Status::InvalidArgument("non-square system");
    }
  }
  if (b.size() != n) return Status::InvalidArgument("rhs size mismatch");

  for (size_t col = 0; col < n; ++col) {
    if (cancel != nullptr) PFQL_RETURN_NOT_OK(cancel->Check());
    size_t pivot = col;
    for (size_t r = col + 1; r < n; ++r) {
      if (internal::PivotBetter(a[r][col], a[pivot][col])) pivot = r;
    }
    if (internal::FieldIsZero(a[pivot][col])) {
      return Status::InvalidArgument("singular linear system");
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (size_t r = 0; r < n; ++r) {
      if (r == col || internal::FieldIsZero(a[r][col])) continue;
      if (cancel != nullptr) PFQL_RETURN_NOT_OK(cancel->Check());
      F factor = a[r][col] / a[col][col];
      for (size_t c = col; c < n; ++c) {
        if (internal::UpdateIsNoOp(a[col][c])) continue;
        a[r][c] = a[r][c] - factor * a[col][c];
      }
      if (!internal::UpdateIsNoOp(b[col])) b[r] = b[r] - factor * b[col];
    }
  }
  std::vector<F> x;
  x.reserve(n);
  for (size_t i = 0; i < n; ++i) x.push_back(b[i] / a[i][i]);
  return x;
}

}  // namespace pfql

#endif  // PFQL_MARKOV_MATRIX_H_
