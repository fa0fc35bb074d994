#pragma once

// Goal-oriented optimal sensor placement.
//
// The paper motivates using existing offshore records "to inform optimal
// sensor placement" (SecIII-A, NEPTUNE / SZ4D deployments). With the
// data-space machinery this is cheap: for a candidate pool of seafloor
// sensor locations, Phase 1 gives the pool's p2o rows once; selecting a
// subset S changes only which block rows/columns of the pool's data-space
// Gram matrix enter K_S, so the QoI posterior covariance
//   Gamma_post(q | S) = W - V_S^T K_S^{-1} V_S
// is evaluable by a small Cholesky per candidate set — no further PDE
// solves. We implement the classical greedy A-optimal design: repeatedly add
// the candidate that most reduces trace(Gamma_post(q)), which enjoys the
// usual supermodularity-style near-optimality in practice.

#include <cstddef>
#include <vector>

#include "core/data_space_hessian.hpp"
#include "linalg/dense.hpp"
#include "prior/matern_prior.hpp"

namespace tsunami {

/// Pool quantities precomputed once from Phase-1 maps of the CANDIDATE pool.
struct PlacementPool {
  std::size_t num_candidates = 0;  ///< Ncand
  std::size_t nt = 0;              ///< observation intervals
  /// Gram of the pool's data space WITHOUT noise: (F Gp F^T), time-major
  /// rows/cols indexed (t * Ncand + c). Size (Ncand Nt)^2.
  Matrix gram;
  /// V = F Gp Fq^T for the pool, (Ncand Nt) x (Nq Nt).
  Matrix v;
  /// Prior QoI covariance W = Fq Gp Fq^T, (Nq Nt)^2.
  Matrix w;
  double noise_variance = 1.0;
};

/// Build the pool from the candidate p2o map and the QoI map: the Gram, V
/// and W each by one prior_cross_gram.
[[nodiscard]] PlacementPool build_placement_pool(const P2oMap& f_pool,
                                                 const P2oMap& fq,
                                                 const MaternPrior& prior,
                                                 const NoiseModel& noise);

struct PlacementResult {
  std::vector<std::size_t> selected;    ///< candidate indices, pick order
  std::vector<double> qoi_trace;        ///< trace(Gamma_post(q)) after each pick
  double prior_qoi_trace = 0.0;         ///< trace(W): no sensors at all
};

/// Greedy A-optimal selection of `budget` sensors from the pool.
[[nodiscard]] PlacementResult greedy_sensor_placement(
    const PlacementPool& pool, std::size_t budget);

/// trace(Gamma_post(q)) for an explicit sensor subset (evaluation utility).
[[nodiscard]] double qoi_posterior_trace(
    const PlacementPool& pool, const std::vector<std::size_t>& sensors);

}  // namespace tsunami
