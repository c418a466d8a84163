#include "core/linalg.h"

#include <gtest/gtest.h>

#include "core/random.h"

namespace rebooting::core {
namespace {

TEST(Matrix, IdentityActsTrivially) {
  const Matrix id = Matrix::identity(3);
  const std::vector<Real> v{1.0, -2.0, 3.0};
  EXPECT_EQ(id * v, v);
}

TEST(Matrix, MultiplyKnownProduct) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  Matrix b(3, 2);
  b(0, 0) = 7; b(0, 1) = 8;
  b(1, 0) = 9; b(1, 1) = 10;
  b(2, 0) = 11; b(2, 1) = 12;
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 2);
  EXPECT_THROW(a * b, std::invalid_argument);
  const std::vector<Real> v{1.0, 2.0};
  EXPECT_THROW(a * std::span<const Real>(v), std::invalid_argument);
}

TEST(Lu, SolvesKnownSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 3;
  const LuFactorization lu(a);
  const auto x = lu.solve(std::vector<Real>{5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, CallerScratchSolveMatchesAllocatingSolve) {
  Rng rng(29);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(8);
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
      a(i, i) += static_cast<Real>(n);
    }
    const LuFactorization lu(a);
    std::vector<Real> b(n);
    for (Real& v : b) v = rng.uniform(-5.0, 5.0);
    std::vector<Real> want = b;
    lu.solve_in_place(want);
    // Stale scratch contents must not leak into the solution.
    std::vector<Real> scratch(n + 3, 1e300);
    std::vector<Real> got = b;
    lu.solve_in_place(got, scratch);
    EXPECT_EQ(got, want);
  }
  const LuFactorization lu(Matrix::identity(3));
  std::vector<Real> b(3, 1.0);
  std::vector<Real> small(2);
  EXPECT_THROW(lu.solve_in_place(b, small), std::invalid_argument);
}

TEST(Lu, RandomRoundTrip) {
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(8);
    Matrix a(n, n);
    // Diagonally dominant => well conditioned and non-singular.
    for (std::size_t i = 0; i < n; ++i) {
      Real row = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        a(i, j) = rng.uniform(-1.0, 1.0);
        row += std::abs(a(i, j));
      }
      a(i, i) += row + 1.0;
    }
    std::vector<Real> x_true(n);
    for (auto& v : x_true) v = rng.uniform(-5.0, 5.0);
    const auto b = a * x_true;
    const LuFactorization lu(a);
    const auto x = lu.solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
  }
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  Matrix a(2, 2);
  a(0, 0) = 0; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 0;
  const LuFactorization lu(a);
  const auto x = lu.solve(std::vector<Real>{3.0, 4.0});
  EXPECT_NEAR(x[0], 4.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, SingularThrows) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 2; a(1, 1) = 4;
  EXPECT_THROW(LuFactorization{a}, std::invalid_argument);
}

TEST(Lu, NonSquareThrows) {
  Matrix a(2, 3);
  EXPECT_THROW(LuFactorization{a}, std::invalid_argument);
}

TEST(Lu, InverseTimesOriginalIsIdentity) {
  Rng rng(17);
  Matrix a(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    a(i, i) += 5.0;
  }
  const LuFactorization lu(a);
  const Matrix prod = a * lu.inverse();
  EXPECT_LT(prod.max_abs_diff(Matrix::identity(4)), 1e-10);
}

}  // namespace
}  // namespace rebooting::core
