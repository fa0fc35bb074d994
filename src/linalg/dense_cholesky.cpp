#include "linalg/dense_cholesky.hpp"

#include <cmath>
#include <stdexcept>

#include "parallel/parallel_for.hpp"

namespace tsunami {

namespace {

/// Shared multi-RHS driver: apply `solve_column` to each column of `b`
/// (parallel over columns, contiguous per-column scratch).
template <typename Solver>
void solve_columns(Matrix& b, const Solver& solve_column) {
  const std::size_t n = b.rows(), m = b.cols();
  parallel_for_min(m, 4, [&](std::size_t c) {
    std::vector<double> col(n);
    for (std::size_t i = 0; i < n; ++i) col[i] = b(i, c);
    solve_column(std::span<double>(col));
    for (std::size_t i = 0; i < n; ++i) b(i, c) = col[i];
  });
}

}  // namespace

DenseCholesky::DenseCholesky(const Matrix& a, std::size_t block) : l_(a) {
  if (a.rows() != a.cols())
    throw std::invalid_argument("DenseCholesky: matrix not square");
  const std::size_t n = l_.rows();
  double* lp = l_.data();

  for (std::size_t k0 = 0; k0 < n; k0 += block) {
    const std::size_t k1 = std::min(k0 + block, n);
    // Factor the diagonal block (unblocked).
    for (std::size_t k = k0; k < k1; ++k) {
      double d = lp[k * n + k];
      for (std::size_t j = k0; j < k; ++j) {
        const double v = lp[k * n + j];
        d -= v * v;
      }
      if (d <= 0.0)
        throw std::runtime_error("DenseCholesky: matrix not SPD (pivot <= 0)");
      const double diag = std::sqrt(d);
      lp[k * n + k] = diag;
      for (std::size_t i = k + 1; i < k1; ++i) {
        double s = lp[i * n + k];
        for (std::size_t j = k0; j < k; ++j)
          s -= lp[i * n + j] * lp[k * n + j];
        lp[i * n + k] = s / diag;
      }
    }
    if (k1 == n) break;
    // Panel solve: rows k1..n of columns k0..k1 (L21 = A21 L11^{-T}).
    parallel_for_min(n - k1, 8, [&](std::size_t ii) {
      const std::size_t i = k1 + ii;
      for (std::size_t k = k0; k < k1; ++k) {
        double s = lp[i * n + k];
        for (std::size_t j = k0; j < k; ++j)
          s -= lp[i * n + j] * lp[k * n + j];
        lp[i * n + k] = s / lp[k * n + k];
      }
    });
    // Trailing update: A22 -= L21 L21^T (lower triangle only).
    parallel_for_min(n - k1, 8, [&](std::size_t ii) {
      const std::size_t i = k1 + ii;
      for (std::size_t j = k1; j <= i; ++j) {
        double s = 0.0;
        for (std::size_t k = k0; k < k1; ++k)
          s += lp[i * n + k] * lp[j * n + k];
        lp[i * n + j] -= s;
      }
    });
  }
  // Zero the strict upper triangle so factor() is exactly L.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) lp[i * n + j] = 0.0;
}

DenseCholesky DenseCholesky::from_factor(Matrix l) {
  if (l.rows() != l.cols())
    throw std::invalid_argument("DenseCholesky::from_factor: not square");
  const std::size_t n = l.rows();
  for (std::size_t i = 0; i < n; ++i) {
    if (!(l(i, i) > 0.0))
      throw std::runtime_error(
          "DenseCholesky::from_factor: nonpositive diagonal (not a Cholesky "
          "factor)");
    for (std::size_t j = i + 1; j < n; ++j) l(i, j) = 0.0;
  }
  DenseCholesky c;
  c.l_ = std::move(l);
  return c;
}

TSUNAMI_HOT_PATH void DenseCholesky::forward_solve_range(
    std::span<double> b, std::size_t begin, std::size_t end) const {
  const std::size_t n = l_.rows();
  if (begin > end || end > n || b.size() < end)
    throw std::invalid_argument("DenseCholesky: bad forward-solve range");
  const double* lp = l_.data();
  double* x = b.data();
  // Four rows in lockstep: one load of x[j] feeds four independent
  // dependency chains. Each row still sums in ascending j, ending with the
  // rows of its own block, so every entry is bitwise the one-row result.
  std::size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    const double* r0 = lp + i * n;
    const double* r1 = r0 + n;
    const double* r2 = r1 + n;
    const double* r3 = r2 + n;
    double s0 = x[i], s1 = x[i + 1], s2 = x[i + 2], s3 = x[i + 3];
    for (std::size_t j = 0; j < i; ++j) {
      const double xj = x[j];
      s0 -= r0[j] * xj;
      s1 -= r1[j] * xj;
      s2 -= r2[j] * xj;
      s3 -= r3[j] * xj;
    }
    s0 /= r0[i];
    s1 -= r1[i] * s0;
    s1 /= r1[i + 1];
    s2 -= r2[i] * s0;
    s2 -= r2[i + 1] * s1;
    s2 /= r2[i + 2];
    s3 -= r3[i] * s0;
    s3 -= r3[i + 1] * s1;
    s3 -= r3[i + 2] * s2;
    s3 /= r3[i + 3];
    x[i] = s0;
    x[i + 1] = s1;
    x[i + 2] = s2;
    x[i + 3] = s3;
  }
  for (; i < end; ++i) {
    const double* row = lp + i * n;
    double s = x[i];
    for (std::size_t j = 0; j < i; ++j) s -= row[j] * x[j];
    x[i] = s / row[i];
  }
}

void DenseCholesky::forward_solve_in_place(std::span<double> b) const {
  const std::size_t n = l_.rows();
  if (b.size() != n)
    throw std::invalid_argument("DenseCholesky: rhs size mismatch");
  forward_solve_range(b, 0, n);
}

void DenseCholesky::forward_solve_in_place(Matrix& b) const {
  if (b.rows() != l_.rows())
    throw std::invalid_argument("DenseCholesky: rhs rows mismatch");
  solve_columns(b,
                [this](std::span<double> col) { forward_solve_in_place(col); });
}

TSUNAMI_HOT_PATH void DenseCholesky::backward_solve_prefix(
    std::span<double> b, std::size_t prefix) const {
  const std::size_t n = l_.rows();
  if (prefix > n || b.size() < prefix)
    throw std::invalid_argument("DenseCholesky: bad backward-solve prefix");
  const double* lp = l_.data();
  double* x = b.data();
  // Row sweep: once x_i is final, row i of L (contiguous) scatters it into
  // b[0:i). Blocks of four rows share one pass over b[0:i0); each b[j]
  // still takes its subtractions in descending row order.
  std::size_t i = prefix;
  for (; i >= 4; i -= 4) {
    const std::size_t i0 = i - 4;
    const double* r0 = lp + i0 * n;
    const double* r1 = r0 + n;
    const double* r2 = r1 + n;
    const double* r3 = r2 + n;
    const double x3 = x[i0 + 3] / r3[i0 + 3];
    const double x2 = (x[i0 + 2] - r3[i0 + 2] * x3) / r2[i0 + 2];
    const double x1 =
        (x[i0 + 1] - r3[i0 + 1] * x3 - r2[i0 + 1] * x2) / r1[i0 + 1];
    const double x0 =
        (x[i0] - r3[i0] * x3 - r2[i0] * x2 - r1[i0] * x1) / r0[i0];
    x[i0] = x0;
    x[i0 + 1] = x1;
    x[i0 + 2] = x2;
    x[i0 + 3] = x3;
    for (std::size_t j = 0; j < i0; ++j)
      x[j] = x[j] - r3[j] * x3 - r2[j] * x2 - r1[j] * x1 - r0[j] * x0;
  }
  while (i-- > 0) {
    const double* row = lp + i * n;
    const double xi = x[i] / row[i];
    x[i] = xi;
    for (std::size_t j = 0; j < i; ++j) x[j] -= row[j] * xi;
  }
}

void DenseCholesky::backward_solve_in_place(std::span<double> b) const {
  const std::size_t n = l_.rows();
  if (b.size() != n)
    throw std::invalid_argument("DenseCholesky: rhs size mismatch");
  backward_solve_prefix(b, n);
}

void DenseCholesky::solve_in_place(std::span<double> b) const {
  forward_solve_in_place(b);
  backward_solve_in_place(b);
}

void DenseCholesky::solve_in_place(Matrix& b) const {
  if (b.rows() != l_.rows())
    throw std::invalid_argument("DenseCholesky: rhs rows mismatch");
  solve_columns(b, [this](std::span<double> col) { solve_in_place(col); });
}

TSUNAMI_HOT_PATH void DenseCholesky::rank_update(std::span<double> u) {
  const std::size_t n = l_.rows();
  if (u.size() != n)
    throw std::invalid_argument("DenseCholesky::rank_update: size mismatch");
  double* lp = l_.data();
  // Givens rotations annihilate u against the diagonal of L, column by
  // column: [L u] Q^T = [L' 0] with Q orthogonal, so L' L'^T = L L^T + u u^T.
  for (std::size_t k = 0; k < n; ++k) {
    const double uk = u[k];
    if (uk == 0.0) continue;
    const double lkk = lp[k * n + k];
    const double r = std::hypot(lkk, uk);
    const double c = r / lkk;
    const double s = uk / lkk;
    lp[k * n + k] = r;
    for (std::size_t i = k + 1; i < n; ++i) {
      const double lik = lp[i * n + k];
      lp[i * n + k] = (lik + s * u[i]) / c;
      u[i] = c * u[i] - s * lp[i * n + k];
    }
  }
}

TSUNAMI_HOT_PATH void DenseCholesky::rank_downdate(std::span<double> u) {
  const std::size_t n = l_.rows();
  if (u.size() != n)
    throw std::invalid_argument("DenseCholesky::rank_downdate: size mismatch");
  double* lp = l_.data();
  // Hyperbolic rotations: [L u] H = [L' 0] with H J H^T = J for the
  // signature J = diag(I, -1), so L' L'^T = L L^T - u u^T. Each pivot
  // shrinks; a nonpositive pivot means L L^T - u u^T is not SPD.
  for (std::size_t k = 0; k < n; ++k) {
    const double uk = u[k];
    if (uk == 0.0) continue;
    const double lkk = lp[k * n + k];
    const double r2 = (lkk - uk) * (lkk + uk);
    if (r2 <= 0.0)
      throw std::runtime_error(
          "DenseCholesky::rank_downdate: downdated matrix not SPD");
    const double r = std::sqrt(r2);
    const double c = r / lkk;
    const double s = uk / lkk;
    lp[k * n + k] = r;
    for (std::size_t i = k + 1; i < n; ++i) {
      const double lik = lp[i * n + k];
      lp[i * n + k] = (lik - s * u[i]) / c;
      u[i] = c * u[i] - s * lp[i * n + k];
    }
  }
}

void DenseCholesky::rank_update_many(const Matrix& u_cols) {
  if (u_cols.rows() != l_.rows())
    throw std::invalid_argument("DenseCholesky::rank_update_many: rows mismatch");
  std::vector<double> col(u_cols.rows());
  for (std::size_t c = 0; c < u_cols.cols(); ++c) {
    for (std::size_t i = 0; i < col.size(); ++i) col[i] = u_cols(i, c);
    rank_update(col);
  }
}

void DenseCholesky::rank_downdate_many(const Matrix& u_cols) {
  if (u_cols.rows() != l_.rows())
    throw std::invalid_argument(
        "DenseCholesky::rank_downdate_many: rows mismatch");
  std::vector<double> col(u_cols.rows());
  for (std::size_t c = 0; c < u_cols.cols(); ++c) {
    for (std::size_t i = 0; i < col.size(); ++i) col[i] = u_cols(i, c);
    rank_downdate(col);
  }
}

void DenseCholesky::append_row(std::span<const double> a_col) {
  const std::size_t n = l_.rows();
  if (a_col.size() != n + 1)
    throw std::invalid_argument("DenseCholesky::append_row: size mismatch");
  // New factor row: L[n, 0:n] solves L l = a_col[0:n); the diagonal closes
  // the square. Solve first (against the old factor), then grow storage.
  std::vector<double> row(a_col.begin(), a_col.begin() + static_cast<std::ptrdiff_t>(n));
  forward_solve_in_place(std::span<double>(row));
  double d = a_col[n];
  for (std::size_t j = 0; j < n; ++j) d -= row[j] * row[j];
  if (d <= 0.0)
    throw std::runtime_error(
        "DenseCholesky::append_row: extended matrix not SPD");
  Matrix grown(n + 1, n + 1);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) grown(i, j) = l_(i, j);
  for (std::size_t j = 0; j < n; ++j) grown(n, j) = row[j];
  grown(n, n) = std::sqrt(d);
  l_ = std::move(grown);
}

double DenseCholesky::log_det() const {
  const std::size_t n = l_.rows();
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += std::log(l_(i, i));
  return 2.0 * s;
}

}  // namespace tsunami
