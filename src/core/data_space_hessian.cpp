#include "core/data_space_hessian.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/p2o_builder.hpp"
#include "parallel/parallel_for.hpp"

namespace tsunami {

NoiseModel relative_noise(std::span<const double> d, double level) {
  double dmax = 0.0;
  for (double v : d) dmax = std::max(dmax, std::abs(v));
  if (dmax == 0.0) dmax = 1.0;
  return NoiseModel{level * dmax};
}

namespace {

/// H_k = C B_k^T for every block of `b`, each stored as an Nm x b.nrows
/// row-major slab: h[(k * Nm + r) * b.nrows + c]. Row c of B_k is
/// contiguous in the map, so each prior apply reads it in place; the result
/// is scattered into column c so the recurrence's innermost loop runs along
/// a unit-stride row of H.
std::vector<double> prior_times_blocks_t(const P2oMap& b,
                                         const MaternPrior& prior) {
  const std::size_t nm = b.ncols, nb = b.nrows;
  std::vector<double> h(b.nt * nm * nb);
  std::vector<double> scratch(static_cast<std::size_t>(num_threads()) * nm);
  parallel_for_slotted(b.nt * nb, 2, [&](std::size_t kc, std::size_t slot) {
    const std::size_t k = kc / nb, c = kc % nb;
    const std::span<double> out(scratch.data() + slot * nm, nm);
    prior.apply(std::span<const double>(b.blocks).subspan(kc * nm, nm), out);
    double* hk = h.data() + k * nm * nb;
    for (std::size_t r = 0; r < nm; ++r) hk[r * nb + c] = out[r];
  });
  return h;
}

}  // namespace

Matrix prior_cross_gram(const P2oMap& a, const P2oMap& b,
                        const MaternPrior& prior) {
  if (a.ncols != prior.dim() || b.ncols != prior.dim() || a.nt != b.nt)
    throw std::invalid_argument("prior_cross_gram: map shape mismatch");
  const bool same = &a == &b;
  const std::size_t nt = a.nt, nm = a.ncols, na = a.nrows, nb = b.nrows;
  const std::vector<double> h = prior_times_blocks_t(b, prior);
  Matrix out(na * nt, nb * nt);
  // Signed offsets d = i - j ordered by falling length (0, +1, -1, +2, ...)
  // so the pool starts on the longest running sums.
  const std::size_t noffsets = nt == 0 ? 0 : (same ? nt : 2 * nt - 1);
  parallel_for(noffsets, [&](std::size_t o) {
    // The sum starts at block (d, 0) for d >= 0 and at (0, -d) for d < 0.
    std::size_t i0 = 0, j0 = 0;
    if (same)
      i0 = o;
    else if (o % 2 == 1)
      i0 = (o + 1) / 2;
    else
      j0 = o / 2;
    std::vector<double> acc(na * nb, 0.0);
    for (std::size_t i = i0, j = j0; i < nt && j < nt; ++i, ++j) {
      // acc += A_i H_j, the innermost loop an axpy along a row of H_j.
      const double* ai = a.blocks.data() + i * na * nm;
      const double* hj = h.data() + j * nm * nb;
      for (std::size_t s = 0; s < na; ++s) {
        double* acc_s = acc.data() + s * nb;
        for (std::size_t r = 0; r < nm; ++r) {
          const double asr = ai[s * nm + r];
          const double* hr = hj + r * nb;
          for (std::size_t c = 0; c < nb; ++c) acc_s[c] += asr * hr[c];
        }
      }
      for (std::size_t s = 0; s < na; ++s)
        for (std::size_t c = 0; c < nb; ++c) {
          const double v = acc[s * nb + c];
          out(i * na + s, j * nb + c) = v;
          if (same && i != j) out(j * nb + c, i * na + s) = v;
        }
    }
  });
  return out;
}

DataSpaceHessian::DataSpaceHessian(const P2oMap& f, const MaternPrior& prior,
                                   const NoiseModel& noise,
                                   TimerRegistry* timers)
    : noise_(noise) {
  Stopwatch form_watch;
  k_ = prior_cross_gram(f, f, prior);
  const std::size_t n = k_.rows(), nd = f.nrows;

  // Only the diagonal time blocks were summed without mirroring: measure
  // their asymmetry, then symmetrize them and add the noise diagonal.
  double asym = 0.0, kmax = 0.0;
  for (std::size_t i = 0; i < k_.size(); ++i)
    kmax = std::max(kmax, std::abs(k_.data()[i]));
  for (std::size_t t0 = 0; t0 < n; t0 += nd)
    for (std::size_t i = t0; i < t0 + nd; ++i)
      for (std::size_t j = i + 1; j < t0 + nd; ++j) {
        asym = std::max(asym, std::abs(k_(i, j) - k_(j, i)));
        const double v = 0.5 * (k_(i, j) + k_(j, i));
        k_(i, j) = v;
        k_(j, i) = v;
      }
  asymmetry_ = kmax > 0 ? asym / kmax : 0.0;
  for (std::size_t i = 0; i < n; ++i) k_(i, i) += noise_.variance();
  if (timers) timers->add("form K", form_watch.seconds());

  Stopwatch chol_watch;
  chol_ = std::make_unique<DenseCholesky>(k_);
  if (timers) timers->add("factorize K", chol_watch.seconds());
}

DataSpaceHessian DataSpaceHessian::from_factor(Matrix l_factor,
                                               const NoiseModel& noise) {
  DataSpaceHessian h;
  h.noise_ = noise;
  h.chol_ =
      std::make_unique<DenseCholesky>(DenseCholesky::from_factor(
          std::move(l_factor)));
  return h;
}

const Matrix& DataSpaceHessian::matrix() const {
  if (k_.rows() != dim())
    throw std::logic_error(
        "DataSpaceHessian::matrix: K not retained on a warm-started "
        "(from_factor) instance — only the Cholesky factor ships in the "
        "artifact bundle");
  return k_;
}

void DataSpaceHessian::decouple_channels(const SensorMask& mask,
                                         std::size_t channels_per_tick) {
  const std::size_t n = dim();
  if (channels_per_tick == 0 || n % channels_per_tick != 0)
    throw std::invalid_argument(
        "DataSpaceHessian::decouple_channels: dim not a multiple of "
        "channels_per_tick");
  if (mask.size() != channels_per_tick)
    throw std::invalid_argument(
        "DataSpaceHessian::decouple_channels: mask size mismatch");
  const double var = noise_.variance();
  std::vector<double> v(n), u(n);
  for (std::size_t p = 0; p < n; ++p) {
    if (!mask.masked(p % channels_per_tick)) continue;
    // Current column K e_p, straight from the factor: L^T e_p is row p of L
    // (nonzero only up to p), so K e_p = L (L^T e_p) costs O(n p).
    const Matrix& l = chol_->factor();
    for (std::size_t i = 0; i < n; ++i) {
      double s = 0.0;
      const std::size_t jmax = std::min(i, p);
      for (std::size_t j = 0; j <= jmax; ++j) s += l(i, j) * l(p, j);
      v[i] = s;
    }
    // Target row/col: sigma^2 e_p.  K' = K - e_p v^T - v e_p^T with
    //   v = K e_p - sigma^2 e_p - 1/2 (K_pp - sigma^2) e_p
    // touches exactly row/column p.  Off-diagonal entries of v are K_ip.
    const double kpp = v[p];
    v[p] = 0.5 * (kpp - var);
    double alpha2 = 0.0;
    for (double x : v) alpha2 += x * x;
    const double alpha = std::sqrt(alpha2);
    // Already-decoupled row (repeat call, or a channel whose rows were never
    // coupled): correction is numerically zero — skip, keeping the edit
    // idempotent and avoiding a degenerate hyperbolic rotation.
    if (alpha <= 1e-15 * std::max(std::abs(kpp), var)) continue;
    // Split the symmetric rank-2 term:  e v^T + v e^T =
    //   (1/2a)[(a e + v)(a e + v)^T - (a e - v)(a e - v)^T],   a = |v|.
    // Apply the SPD-safe order: grow first (update with (a e - v)), then
    // shrink (downdate with (a e + v)).
    const double scale = 1.0 / std::sqrt(2.0 * alpha);
    for (std::size_t i = 0; i < n; ++i)
      u[i] = ((i == p ? alpha : 0.0) - v[i]) * scale;
    chol_->rank_update(u);
    for (std::size_t i = 0; i < n; ++i)
      u[i] = ((i == p ? alpha : 0.0) + v[i]) * scale;
    chol_->rank_downdate(u);
    if (k_.rows() == n) {
      for (std::size_t i = 0; i < n; ++i) {
        k_(i, p) = 0.0;
        k_(p, i) = 0.0;
      }
      k_(p, p) = var;
    }
  }
}

void DataSpaceHessian::solve(std::span<const double> x,
                             std::span<double> y) const {
  if (x.size() != dim() || y.size() != dim())
    throw std::invalid_argument("DataSpaceHessian::solve: size mismatch");
  std::copy(x.begin(), x.end(), y.begin());
  chol_->solve_in_place(y);
}

}  // namespace tsunami
