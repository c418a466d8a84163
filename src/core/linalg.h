// Small dense linear algebra: row-major matrices with LU factorization
// (partial pivoting). Used for circuit capacitance-matrix solves in the
// oscillator engine and for small unitary checks in the quantum tests. Not a
// BLAS; sizes here are tens, not thousands.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/types.h"

namespace rebooting::core {

/// Dense row-major real matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, Real fill = 0.0);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  Real& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  Real operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  std::span<const Real> data() const { return data_; }

  Matrix operator*(const Matrix& other) const;
  std::vector<Real> operator*(std::span<const Real> v) const;

  /// Max absolute element difference; matrices must have equal shape.
  Real max_abs_diff(const Matrix& other) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Real> data_;
};

/// LU factorization with partial pivoting of a square matrix, reusable for
/// many right-hand sides (the oscillator network factors its capacitance
/// matrix once per simulation and solves every step).
class LuFactorization {
 public:
  /// Factors `m` (must be square). Throws std::invalid_argument if singular
  /// to working precision.
  explicit LuFactorization(const Matrix& m);

  std::size_t size() const { return n_; }

  /// Solves A x = b in place: `b` enters as the RHS, leaves as the solution.
  void solve_in_place(std::span<Real> b) const;

  /// As above with caller scratch of at least size() reals (e.g. a
  /// Workspace block), so a solve inside an integration loop allocates
  /// nothing. Same arithmetic, same result.
  void solve_in_place(std::span<Real> b, std::span<Real> scratch) const;

  std::vector<Real> solve(std::span<const Real> b) const;

  /// A^-1 via n solves against identity columns.
  Matrix inverse() const;

 private:
  std::size_t n_ = 0;
  std::vector<Real> lu_;          // packed L\U
  std::vector<std::size_t> piv_;  // row permutation
};

}  // namespace rebooting::core
