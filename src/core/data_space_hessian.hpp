#pragma once

// Phase 2: the data-space Hessian.
//
// The Sherman-Morrison-Woodbury identity moves the inverse operator from the
// ~billion-dimensional parameter space to the data space (SecV-B):
//   Gamma_post = Gamma_prior - G* K^{-1} G,     G = F Gamma_prior,
//   K = Gamma_noise + F Gamma_prior F*          ("data-space Hessian"),
// and the MAP point becomes  m_map = G* K^{-1} d_obs.
//
// K is (Nd Nt) x (Nd Nt) dense. The paper forms it with one FFT Hessian
// matvec per unit data vector (Table III: "form K: 252k x 24 ms"); here it
// comes straight from the time-domain p2o blocks by the causal block
// recurrence of prior_cross_gram below — F is block lower-triangular
// Toeplitz and Gamma_prior block diagonal and time invariant, so every block
// diagonal of F Gamma_prior F^T is one running sum, O(Nt^2 Nd^2 Nm) flops
// after Nt Nd prior solves — then Cholesky-factorized (cuSOLVERMp ->
// DenseCholesky).

#include <cstddef>
#include <memory>
#include <span>

#include "core/sensor_mask.hpp"
#include "linalg/dense.hpp"
#include "linalg/dense_cholesky.hpp"
#include "prior/matern_prior.hpp"
#include "util/timer.hpp"

namespace tsunami {

struct P2oMap;

/// Gaussian observation-noise model: Gamma_noise = sigma^2 I.
struct NoiseModel {
  double sigma = 1.0;
  [[nodiscard]] double variance() const { return sigma * sigma; }
};

/// Relative noise calibration: sigma = level * max_i |d_i| (the paper's "1%
/// relative added noise").
[[nodiscard]] NoiseModel relative_noise(std::span<const double> d,
                                        double level);

class DataSpaceHessian {
 public:
  /// Forms K = Gamma_noise + prior_cross_gram(f, f, prior) and factorizes
  /// it. Records "form K" / "factorize K" timer samples.
  DataSpaceHessian(const P2oMap& f, const MaternPrior& prior,
                   const NoiseModel& noise, TimerRegistry* timers = nullptr);

  /// Rebuild from a previously computed Cholesky factor (the warm-start
  /// path: the artifact bundle ships L, not K). Solves are bit-identical to
  /// the cold-built object's; the formed K itself is not retained (it is
  /// redundant given L), so matrix() throws and asymmetry() reports 0.
  [[nodiscard]] static DataSpaceHessian from_factor(Matrix l_factor,
                                                    const NoiseModel& noise);

  [[nodiscard]] std::size_t dim() const { return chol_->dim(); }
  /// The formed K. Only retained on the cold (form + factorize) path;
  /// throws std::logic_error on a warm-started (from_factor) instance.
  [[nodiscard]] const Matrix& matrix() const;
  [[nodiscard]] const DenseCholesky& cholesky() const { return *chol_; }
  [[nodiscard]] const NoiseModel& noise() const { return noise_; }

  /// y = K^{-1} x.
  void solve(std::span<const double> x, std::span<double> y) const;

  /// Degraded-mode factor edit (ISSUE 10): replace every observation row of
  /// a dropped channel by a pure-noise row, in place on the Cholesky factor.
  /// Rows p with mask.masked(p % channels_per_tick) have K's row/column p
  /// rewritten to sigma^2 e_p — exactly the Hessian of the network that never
  /// had those channels, at full dimension — via one rank-2
  /// (update + hyperbolic downdate) pair per row: O(r n^2) for r dropped
  /// rows versus O(n^3) refactorization. Already-decoupled rows are skipped,
  /// so the edit is idempotent. Works on warm (from_factor) instances; the
  /// retained K of a cold instance is kept consistent.
  void decouple_channels(const SensorMask& mask, std::size_t channels_per_tick);

  /// Asymmetry of the formed K's diagonal time blocks before they are
  /// symmetrized: max |K_ij - K_ji| over those blocks / max |K|, a check on
  /// the prior solves' symmetry (should be ~1e-14). The off-diagonal blocks
  /// are formed once and mirrored, so they carry none.
  [[nodiscard]] double asymmetry() const { return asymmetry_; }

 private:
  DataSpaceHessian() = default;  ///< for from_factor

  Matrix k_;  ///< empty on the from_factor path
  std::unique_ptr<DenseCholesky> chol_;
  NoiseModel noise_;
  double asymmetry_ = 0.0;
};

/// A Gamma_prior B^T for two Phase-1 maps over the same parameter grid and
/// time window: (a.nrows Nt) x (b.nrows Nt), rows and columns time-major
/// (index t * nrows + s). With A, B causal block Toeplitz (blocks A_k, B_k
/// from the maps' time-domain `blocks`) and Gamma_prior = blockdiag(C),
/// block (i, j) is  sum_{l <= min(i,j)} A_{i-l} C B_{j-l}^T,  so along each
/// signed block offset i - j it is the running sum
///   block(i, j) = block(i-1, j-1) + A_i H_j,   H_j = C B_j^T.
/// The H_j take Nt * b.nrows MaternPrior::apply calls; the sums take
/// O(Nt^2 a.nrows b.nrows Nm) flops, one serial sum per offset and the
/// offsets spread over the pool, so the result is bitwise identical at any
/// worker count. When `a` and `b` are the same object the result is
/// symmetric by construction: only blocks i >= j are summed and those with
/// i > j are mirrored; the diagonal time blocks are left as summed.
[[nodiscard]] Matrix prior_cross_gram(const P2oMap& a, const P2oMap& b,
                                      const MaternPrior& prior);

}  // namespace tsunami
