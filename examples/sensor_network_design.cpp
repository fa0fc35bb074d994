// Sensor-network design study (the paper's SecVIII point: warning skill is
// limited by the sparsity of offshore sensors; NEPTUNE-style arrays vs
// denser future deployments).
//
//   $ ./examples/sensor_network_design
//
// Sweeps the number of seafloor pressure sensors, rebuilding the offline
// phases for each network, and reports how posterior uncertainty and
// forecast error shrink as coverage improves.

#include <cstdio>

#include "core/digital_twin.hpp"
#include "core/sensor_placement.hpp"
#include "util/table.hpp"

int main() {
  using namespace tsunami;

  TwinConfig base = TwinConfig::tiny();
  base.num_intervals = 12;
  base.num_gauges = 3;

  // A fixed rupture scenario shared by all networks.
  RuptureConfig rupture_cfg;
  Asperity asperity;
  asperity.x0 = 0.35 * base.bathymetry.length_x;
  asperity.y0 = 0.45 * base.bathymetry.length_y;
  asperity.rx = 14e3;
  asperity.ry = 20e3;
  asperity.peak_uplift = 1.8;
  rupture_cfg.asperities.push_back(asperity);
  rupture_cfg.hypocenter_x = asperity.x0;
  rupture_cfg.hypocenter_y = asperity.y0;
  const RuptureScenario scenario(rupture_cfg);

  TextTable table({"sensors", "mean posterior sigma / prior sigma",
                   "displacement rel. error", "mean QoI CI width [m]"});

  for (std::size_t sensors : {3, 6, 12, 24}) {
    TwinConfig config = base;
    config.num_sensors = sensors;
    DigitalTwin twin(config);

    Rng rng(11);  // same noise realization pattern for comparability
    const SyntheticEvent event = twin.synthesize(scenario, rng);
    twin.run_offline(event.noise);
    const InversionResult result = twin.infer(event.d_obs);

    // Posterior-vs-prior uncertainty, averaged over a coarse probe set.
    const auto& src = twin.model().source_map();
    const std::size_t nm = src.parameter_dim();
    double ratio = 0.0;
    std::size_t count = 0;
    for (std::size_t r = 0; r < nm; r += nm / 12 + 1) {
      const double post = twin.posterior().pointwise_variance(r, 0);
      const double pri = twin.prior().pointwise_variance(r);
      ratio += std::sqrt(std::max(0.0, post) / pri);
      ++count;
    }
    ratio /= static_cast<double>(count);

    const auto b_true = twin.displacement_field(event.m_true);
    const auto b_map = twin.displacement_field(result.m_map);
    const double err = DigitalTwin::relative_error(b_map, b_true);

    double ci = 0.0;
    for (double s : result.forecast.stddev) ci += 2.0 * 1.96 * s;
    ci /= static_cast<double>(result.forecast.stddev.size());

    table.row()
        .cell(static_cast<long>(sensors))
        .cell(ratio, 3)
        .cell(err, 3)
        .cell(ci, 4);
  }

  std::printf("=== Sensor network design study ===\n");
  std::printf("(denser offshore arrays -> smaller posterior uncertainty and "
              "better source recovery)\n\n%s",
              table.str().c_str());

  // --- Part 2: greedy A-optimal placement from a candidate pool -----------
  // Where SHOULD the next sensors go? Build the pool's p2o map once (one
  // adjoint solve per candidate), then greedy selection needs no further
  // PDE work (src/core/sensor_placement).
  std::printf("\n=== Greedy A-optimal placement (12-candidate pool) ===\n");
  {
    TwinConfig config = base;
    config.num_sensors = 1;  // twin only provides model/gauges here
    DigitalTwin twin(config);
    const auto candidates =
        sensor_grid(12, 0.08 * base.bathymetry.length_x,
                    0.62 * base.bathymetry.length_x,
                    0.06 * base.bathymetry.length_y,
                    0.94 * base.bathymetry.length_y);
    const ObservationOperator pool_obs =
        ObservationOperator::seafloor_sensors(twin.model(), candidates);
    const P2oMap f_pool =
        build_p2o_map(twin.model(), pool_obs, twin.time_grid());
    const P2oMap fq =
        build_p2o_map(twin.model(), twin.gauges(), twin.time_grid());

    Rng rng(11);
    const SyntheticEvent event = twin.synthesize(scenario, rng);
    const PlacementPool pool =
        build_placement_pool(f_pool, fq, twin.prior(), event.noise);
    const PlacementResult placement = greedy_sensor_placement(pool, 6);

    TextTable ptable({"pick", "candidate", "x [km]", "y [km]",
                      "QoI trace / prior trace"});
    for (std::size_t i = 0; i < placement.selected.size(); ++i) {
      const auto& xy = candidates[placement.selected[i]];
      ptable.row()
          .cell(static_cast<long>(i + 1))
          .cell(static_cast<long>(placement.selected[i]))
          .cell(xy[0] / 1e3, 1)
          .cell(xy[1] / 1e3, 1)
          .cell(placement.qoi_trace[i] / placement.prior_qoi_trace, 3);
    }
    std::printf("%s", ptable.str().c_str());
    std::printf("(diminishing returns per added sensor -- the submodular "
                "shape of optimal design)\n");
  }
  return 0;
}
