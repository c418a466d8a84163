#include "core/linalg.h"

#include <cmath>
#include <stdexcept>

namespace rebooting::core {

Matrix::Matrix(std::size_t rows, std::size_t cols, Real fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::operator*(const Matrix& other) const {
  if (cols_ != other.rows_)
    throw std::invalid_argument("Matrix::operator*: shape mismatch");
  Matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t k = 0; k < cols_; ++k) {
      const Real a = (*this)(i, k);
      if (a == 0.0) continue;
      for (std::size_t j = 0; j < other.cols_; ++j)
        out(i, j) += a * other(k, j);
    }
  return out;
}

std::vector<Real> Matrix::operator*(std::span<const Real> v) const {
  if (v.size() != cols_)
    throw std::invalid_argument("Matrix::operator*: vector size mismatch");
  std::vector<Real> out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out[i] += (*this)(i, j) * v[j];
  return out;
}

Real Matrix::max_abs_diff(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_)
    throw std::invalid_argument("Matrix::max_abs_diff: shape mismatch");
  Real m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    m = std::max(m, std::abs(data_[i] - other.data_[i]));
  return m;
}

LuFactorization::LuFactorization(const Matrix& m)
    : n_(m.rows()), lu_(m.data().begin(), m.data().end()), piv_(m.rows()) {
  if (m.rows() != m.cols())
    throw std::invalid_argument("LuFactorization: matrix must be square");
  for (std::size_t i = 0; i < n_; ++i) piv_[i] = i;

  for (std::size_t col = 0; col < n_; ++col) {
    // Partial pivot.
    std::size_t best = col;
    Real best_abs = std::abs(lu_[col * n_ + col]);
    for (std::size_t r = col + 1; r < n_; ++r) {
      const Real a = std::abs(lu_[r * n_ + col]);
      if (a > best_abs) {
        best = r;
        best_abs = a;
      }
    }
    if (best_abs < 1e-300)
      throw std::invalid_argument("LuFactorization: singular matrix");
    if (best != col) {
      for (std::size_t j = 0; j < n_; ++j)
        std::swap(lu_[col * n_ + j], lu_[best * n_ + j]);
      std::swap(piv_[col], piv_[best]);
    }
    const Real pivot = lu_[col * n_ + col];
    for (std::size_t r = col + 1; r < n_; ++r) {
      const Real factor = lu_[r * n_ + col] / pivot;
      lu_[r * n_ + col] = factor;
      for (std::size_t j = col + 1; j < n_; ++j)
        lu_[r * n_ + j] -= factor * lu_[col * n_ + j];
    }
  }
}

void LuFactorization::solve_in_place(std::span<Real> b) const {
  std::vector<Real> x(n_);
  solve_in_place(b, x);
}

void LuFactorization::solve_in_place(std::span<Real> b,
                                     std::span<Real> scratch) const {
  if (b.size() != n_)
    throw std::invalid_argument("LuFactorization::solve: size mismatch");
  if (scratch.size() < n_)
    throw std::invalid_argument("LuFactorization::solve: scratch too small");
  // Apply permutation.
  const std::span<Real> x = scratch.first(n_);
  for (std::size_t i = 0; i < n_; ++i) x[i] = b[piv_[i]];
  // Forward substitution (unit lower triangle).
  for (std::size_t i = 1; i < n_; ++i)
    for (std::size_t j = 0; j < i; ++j) x[i] -= lu_[i * n_ + j] * x[j];
  // Back substitution.
  for (std::size_t i = n_; i-- > 0;) {
    for (std::size_t j = i + 1; j < n_; ++j) x[i] -= lu_[i * n_ + j] * x[j];
    x[i] /= lu_[i * n_ + i];
  }
  for (std::size_t i = 0; i < n_; ++i) b[i] = x[i];
}

std::vector<Real> LuFactorization::solve(std::span<const Real> b) const {
  std::vector<Real> x(b.begin(), b.end());
  solve_in_place(x);
  return x;
}

Matrix LuFactorization::inverse() const {
  Matrix inv(n_, n_);
  std::vector<Real> col(n_);
  for (std::size_t j = 0; j < n_; ++j) {
    std::fill(col.begin(), col.end(), 0.0);
    col[j] = 1.0;
    solve_in_place(col);
    for (std::size_t i = 0; i < n_; ++i) inv(i, j) = col[i];
  }
  return inv;
}

}  // namespace rebooting::core
