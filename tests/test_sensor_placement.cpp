// Tests for greedy A-optimal sensor placement: monotone uncertainty
// reduction, consistency with direct subset evaluation, and preference for
// informative locations.

#include <gtest/gtest.h>

#include "core/p2o_builder.hpp"
#include "core/sensor_placement.hpp"
#include "util/rng.hpp"

namespace tsunami {
namespace {

struct PlacementProblem {
  PlacementProblem()
      : bathy(flat_basin(1500.0, 40e3, 40e3)),
        mesh(bathy, 3, 3, 1),
        model(mesh, 1) {
    // Candidate pool: a coarse grid of 6 possible seafloor sensor sites.
    candidates = sensor_grid(6, 5e3, 35e3, 5e3, 35e3);
    pool_obs = std::make_unique<ObservationOperator>(
        ObservationOperator::seafloor_sensors(model, candidates));
    gauges = std::make_unique<ObservationOperator>(
        ObservationOperator::surface_gauges(model, {{20e3, 20e3}}));
    grid.num_intervals = 3;
    grid.substeps = 3;
    grid.dt = model.cfl_timestep(0.4);
    f_pool = build_p2o_map(model, *pool_obs, grid);
    fq = build_p2o_map(model, *gauges, grid);

    MaternPriorConfig pcfg;
    pcfg.sigma = 0.3;
    pcfg.correlation_length = 12e3;
    prior = std::make_unique<MaternPrior>(4, 4, 40e3 / 3.0, 40e3 / 3.0, pcfg);

    // Pressure-scale noise.
    Rng rng(1);
    std::vector<double> m(f_pool.toeplitz->input_dim());
    for (auto& x : m) x = 0.1 * rng.normal();
    std::vector<double> d(f_pool.toeplitz->output_dim());
    f_pool.toeplitz->apply(m, std::span<double>(d));
    noise = relative_noise(d, 0.05);

    pool = build_placement_pool(f_pool, fq, *prior, noise);
  }

  Bathymetry bathy;
  HexMesh mesh;
  AcousticGravityModel model;
  std::vector<std::array<double, 2>> candidates;
  std::unique_ptr<ObservationOperator> pool_obs, gauges;
  TimeGrid grid;
  P2oMap f_pool, fq;
  std::unique_ptr<MaternPrior> prior;
  NoiseModel noise;
  PlacementPool pool;
};

TEST(SensorPlacement, PoolDimensionsMatch) {
  PlacementProblem pp;
  EXPECT_EQ(pp.pool.num_candidates, 6u);
  EXPECT_EQ(pp.pool.nt, 3u);
  EXPECT_EQ(pp.pool.gram.rows(), 18u);
  EXPECT_EQ(pp.pool.v.rows(), 18u);
  EXPECT_EQ(pp.pool.v.cols(), 3u);
  EXPECT_EQ(pp.pool.w.rows(), 3u);
}

TEST(SensorPlacement, EmptySubsetGivesPriorTrace) {
  PlacementProblem pp;
  double trace_w = 0.0;
  for (std::size_t i = 0; i < pp.pool.w.rows(); ++i)
    trace_w += pp.pool.w(i, i);
  EXPECT_DOUBLE_EQ(qoi_posterior_trace(pp.pool, {}), trace_w);
}

TEST(SensorPlacement, AnySensorReducesQoiTrace) {
  PlacementProblem pp;
  const double prior_trace = qoi_posterior_trace(pp.pool, {});
  for (std::size_t c = 0; c < pp.pool.num_candidates; ++c) {
    const double tr = qoi_posterior_trace(pp.pool, {c});
    EXPECT_LE(tr, prior_trace * (1.0 + 1e-12)) << "candidate " << c;
  }
}

TEST(SensorPlacement, GreedyTraceIsMonotone) {
  PlacementProblem pp;
  const auto result = greedy_sensor_placement(pp.pool, 5);
  ASSERT_EQ(result.selected.size(), 5u);
  double prev = result.prior_qoi_trace;
  for (double tr : result.qoi_trace) {
    EXPECT_LE(tr, prev * (1.0 + 1e-12));
    prev = tr;
  }
}

TEST(SensorPlacement, GreedySelectsDistinctSensors) {
  PlacementProblem pp;
  const auto result = greedy_sensor_placement(pp.pool, 6);
  std::vector<std::size_t> sorted = result.selected;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(SensorPlacement, FirstPickBeatsOrTiesEveryAlternative) {
  PlacementProblem pp;
  const auto result = greedy_sensor_placement(pp.pool, 1);
  ASSERT_EQ(result.selected.size(), 1u);
  const double best = result.qoi_trace[0];
  for (std::size_t c = 0; c < pp.pool.num_candidates; ++c)
    EXPECT_GE(qoi_posterior_trace(pp.pool, {c}), best * (1.0 - 1e-12));
}

TEST(SensorPlacement, FullBudgetMatchesFullPoolTrace) {
  PlacementProblem pp;
  const auto result = greedy_sensor_placement(pp.pool, 6);
  std::vector<std::size_t> all(pp.pool.num_candidates);
  for (std::size_t c = 0; c < all.size(); ++c) all[c] = c;
  EXPECT_NEAR(result.qoi_trace.back(), qoi_posterior_trace(pp.pool, all),
              1e-9 * std::abs(result.qoi_trace.back()));
}

TEST(SensorPlacement, BudgetClampedToPoolSize) {
  PlacementProblem pp;
  const auto result = greedy_sensor_placement(pp.pool, 100);
  EXPECT_EQ(result.selected.size(), pp.pool.num_candidates);
}

TEST(SensorPlacement, RejectsBadCandidateIndex) {
  PlacementProblem pp;
  EXPECT_THROW((void)qoi_posterior_trace(pp.pool, {99}), std::out_of_range);
}

}  // namespace
}  // namespace tsunami
