// The warning-center side of the paper's deployment split (SecVIII): boot
// Phase 4 from the shipped artifact bundle — no HPC, no PDE solves, no
// factorization — and run the streaming alert loop on the live feed. Run
// examples/offline_build first; it writes the bundle and a telemetry replay:
//
//   $ ./examples/offline_build [dir]     # HPC side, done once
//   $ ./examples/warning_center [dir]    # this program; default dir:
//                                        # twin_artifacts
//
// The boot is a warm start: DigitalTwin::load_offline verifies the bundle's
// checksum and config fingerprint, rebuilds the posterior/predictor from
// the shipped Cholesky factor and Q, and is ready to stream in milliseconds
// (bench/bench_warmstart.cpp measures the ratio to a cold boot). The timer
// registry proves the claim at the end: zero adjoint-solve and zero
// Hessian-factorization samples.

#include <algorithm>
#include <cstdio>

#include "core/digital_twin.hpp"
#include "util/io.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace tsunami;

  const std::string dir = argc > 1 ? argv[1] : "twin_artifacts";
  const std::string bundle_path = dir + "/cascadia.bundle";

  std::printf("=== Warning center (online side of the deployment split) ===\n");
  Stopwatch boot;
  DigitalTwin twin = DigitalTwin::load_offline(bundle_path);
  const StreamingEngine engine = twin.make_streaming(&twin.timers());
  const double boot_seconds = boot.seconds();

  const std::size_t nt = engine.num_ticks();
  const std::size_t nd = engine.block_size();
  const double dt = twin.config().observation_dt;
  std::printf(
      "warm boot from %s: %s to streaming-ready (%zu sensors x %zu ticks, "
      "%zu parameters)\n",
      bundle_path.c_str(), format_duration(boot_seconds).c_str(), nd, nt,
      engine.parameter_dim());
  std::printf(
      "PDE solves during boot: %ld adjoint, %ld Hessian factorizations "
      "(warm start skips Phases 1-3 entirely)\n\n",
      twin.timers().count("Adjoint p2o") +
          twin.timers().count("Adjoint p2o (parallel)"),
      twin.timers().count("factorize K"));

  // The telemetry replay stands in for the live seafloor-cable feed.
  const std::vector<double> d_obs = load_vector(dir + "/telemetry_d_obs.bin");
  const std::vector<double> q_true = load_vector(dir + "/telemetry_q_true.bin");
  if (d_obs.size() != engine.data_dim()) {
    std::printf("telemetry does not match the bundle's sensor network "
                "(got %zu values, need %zu) — re-run offline_build\n",
                d_obs.size(), engine.data_dim());
    return 1;
  }

  // Demo warning threshold: half the eventual observed peak (a deployed
  // center uses fixed hazard levels per gauge).
  double peak_true = 0.0;
  std::size_t peak_true_idx = 0;
  for (std::size_t j = 0; j < q_true.size(); ++j)
    if (q_true[j] > peak_true) {
      peak_true = q_true[j];
      peak_true_idx = j;
    }
  const double threshold = 0.5 * peak_true;
  const std::size_t peak_tick = peak_true_idx / twin.config().num_gauges;

  // --- streaming alert loop (the PR-2 real-time front door) -----------------
  StreamingAssimilator assim = engine.start();
  TextTable table(
      {"t [s]", "push", "peak fc [m]", "95% band", "MAP uplift [m]", "state"});
  // The seafloor field is a display product, off the alert path: refresh it
  // on demand every few ticks (and at the end), never per push.
  constexpr std::size_t kDisplayEvery = 4;
  double alert_seconds = -1.0;
  std::size_t above_threshold_streak = 0;
  for (std::size_t tick = 0; tick < nt; ++tick) {
    assim.push(tick, std::span<const double>(d_obs).subspan(tick * nd, nd));
    const Forecast fc = assim.forecast();

    std::size_t jmax = 0;
    for (std::size_t j = 0; j < fc.mean.size(); ++j)
      if (fc.mean[j] > fc.mean[jmax]) jmax = j;
    above_threshold_streak =
        fc.mean[jmax] > threshold ? above_threshold_streak + 1 : 0;
    const bool alert = alert_seconds >= 0.0 || above_threshold_streak >= 2;
    if (alert && alert_seconds < 0.0)
      alert_seconds = static_cast<double>(tick + 1) * dt;

    char band[48];
    std::snprintf(band, sizeof(band), "[%+.3f, %+.3f]", fc.lower95[jmax],
                  fc.upper95[jmax]);
    char uplift[32] = "";
    if ((tick + 1) % kDisplayEvery == 0 || tick + 1 == nt) {
      const auto b = twin.displacement_field(assim.map_snapshot());
      std::snprintf(uplift, sizeof(uplift), "%+.3f",
                    *std::max_element(b.begin(), b.end()));
    }
    table.row()
        .cell(static_cast<double>(tick + 1) * dt, 0)
        .cell(format_duration(assim.last_push_seconds()))
        .cell(fc.mean[jmax], 3)
        .cell(band)
        .cell(uplift)
        .cell(alert ? (alert_seconds == static_cast<double>(tick + 1) * dt
                           ? ">>> ALERT <<<"
                           : "alert")
                    : "watch");
  }
  std::printf("%s\n", table.str().c_str());

  if (alert_seconds >= 0.0) {
    const double lead = static_cast<double>(peak_tick + 1) * dt - alert_seconds;
    if (lead > 0.0) {
      std::printf("ALERT raised at t = %.0f s: %.0f s of warning before the "
                  "peak wave — from a machine that never ran a PDE solve.\n",
                  alert_seconds, lead);
    } else {
      std::printf("ALERT raised at t = %.0f s — %.0f s after the peak wave "
                  "(the peak landed inside the debounce window).\n",
                  alert_seconds, -lead);
    }
  } else {
    std::printf("no alert: the best-estimate peak never held above %.3f m.\n",
                threshold);
  }

  const Forecast final_fc = assim.forecast();
  std::printf(
      "final forecast vs truth: rel err %.3f | mean push latency %s against "
      "a %.0f s cadence.\n",
      DigitalTwin::relative_error(final_fc.mean, q_true),
      format_duration(assim.total_push_seconds() / static_cast<double>(nt))
          .c_str(),
      dt);
  return 0;
}
