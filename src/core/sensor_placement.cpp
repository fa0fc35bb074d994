#include "core/sensor_placement.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/forecast.hpp"
#include "core/p2o_builder.hpp"
#include "linalg/blas.hpp"
#include "linalg/dense_cholesky.hpp"

namespace tsunami {

PlacementPool build_placement_pool(const P2oMap& f_pool, const P2oMap& fq,
                                   const MaternPrior& prior,
                                   const NoiseModel& noise) {
  PlacementPool pool;
  pool.num_candidates = f_pool.nrows;
  pool.nt = f_pool.nt;
  pool.noise_variance = noise.variance();
  // No noise on the Gram's diagonal: it enters per subset in K_S.
  pool.gram = prior_cross_gram(f_pool, f_pool, prior);
  pool.v = prior_cross_gram(f_pool, fq, prior);
  pool.w = prior_cross_gram(fq, fq, prior);
  return pool;
}

namespace {

/// Row/col indices of the pool Gram matrix covered by sensor subset S
/// (time-major data layout: index = t * Ncand + sensor).
std::vector<std::size_t> subset_indices(const PlacementPool& pool,
                                        const std::vector<std::size_t>& s) {
  std::vector<std::size_t> idx;
  idx.reserve(s.size() * pool.nt);
  for (std::size_t t = 0; t < pool.nt; ++t)
    for (std::size_t c : s) idx.push_back(t * pool.num_candidates + c);
  return idx;
}

}  // namespace

double qoi_posterior_trace(const PlacementPool& pool,
                           const std::vector<std::size_t>& sensors) {
  double trace_w = 0.0;
  for (std::size_t i = 0; i < pool.w.rows(); ++i) trace_w += pool.w(i, i);
  if (sensors.empty()) return trace_w;
  for (std::size_t c : sensors)
    if (c >= pool.num_candidates)
      throw std::out_of_range("qoi_posterior_trace: candidate index");

  const auto idx = subset_indices(pool, sensors);
  const std::size_t n = idx.size();
  const std::size_t nq = pool.v.cols();

  Matrix k_s(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) k_s(i, j) = pool.gram(idx[i], idx[j]);
    k_s(i, i) += pool.noise_variance;
  }
  Matrix v_s(n, nq);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < nq; ++j) v_s(i, j) = pool.v(idx[i], j);

  const DenseCholesky chol(k_s);
  Matrix kinv_v(v_s);
  chol.solve_in_place(kinv_v);
  // trace(W - V^T K^{-1} V) = trace(W) - sum_ij V_s(i,j) * kinv_v(i,j).
  double correction = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < nq; ++j)
      correction += v_s(i, j) * kinv_v(i, j);
  return trace_w - correction;
}

PlacementResult greedy_sensor_placement(const PlacementPool& pool,
                                        std::size_t budget) {
  PlacementResult result;
  result.prior_qoi_trace = qoi_posterior_trace(pool, {});
  budget = std::min(budget, pool.num_candidates);

  std::vector<bool> used(pool.num_candidates, false);
  for (std::size_t pick = 0; pick < budget; ++pick) {
    double best_trace = std::numeric_limits<double>::max();
    std::size_t best = pool.num_candidates;
    for (std::size_t c = 0; c < pool.num_candidates; ++c) {
      if (used[c]) continue;
      auto trial = result.selected;
      trial.push_back(c);
      const double tr = qoi_posterior_trace(pool, trial);
      if (tr < best_trace) {
        best_trace = tr;
        best = c;
      }
    }
    if (best == pool.num_candidates) break;
    used[best] = true;
    result.selected.push_back(best);
    result.qoi_trace.push_back(best_trace);
  }
  return result;
}

}  // namespace tsunami
