// Streaming early-warning monitor: the online phase as it would actually run
// in a warning center. Observations arrive one interval at a time; each
// arrival is pushed into a StreamingAssimilator, which maintains the *exact*
// truncated posterior — rolling QoI forecast and credible intervals that
// shrink as data accumulates — with no PDE solves and no refactorization
// (src/core/streaming_assimilator.hpp). The MAP seafloor field is a display
// product: map_snapshot() recovers it exactly on demand every few ticks.
//
//   $ ./examples/realtime_monitor
//
// The replay is in simulated real time: each tick prints the data-time
// stamp, the per-tick assimilation latency (the compute budget is the
// observation cadence — here seconds; paper: 1 s), the rolling peak
// wave-height forecast with its 95% band, the peak MAP seafloor uplift (at
// display cadence), and the alert state. An alert is
// raised once the best-estimate (posterior-mean) peak forecast exceeds the
// warning threshold on two consecutive ticks — the debounced best-estimate
// criterion operational centers use — and the lead time over the wave's
// actual arrival is reported at the end. (At seed scale the credible band
// stays prior-dominated — a handful of sensors over a short window only
// weakly contracts the QoI variance — so a band-based criterion cannot fire
// here; the band and its tick-by-tick contraction are printed anyway, and
// at paper scale, 600 sensors x 420 s, the same code alerts on the lower
// bound.) For contrast, the naive alternative (full-window operator Q on
// zero-padded data, the pre-streaming front door) is shown alongside: its
// mean is biased and erratic early in the event and its intervals never
// tighten.

#include <algorithm>
#include <cstdio>

#include "core/digital_twin.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main() {
  using namespace tsunami;

  // --- offline (in production: done once on the HPC system) ---------------
  TwinConfig config = TwinConfig::tiny();
  config.num_intervals = 24;  // a longer window makes the sharpening visible
  config.observation_dt = 4.0;
  DigitalTwin twin(config);
  RuptureConfig rupture_cfg;
  Asperity asperity;
  asperity.x0 = 0.3 * config.bathymetry.length_x;
  asperity.y0 = 0.5 * config.bathymetry.length_y;
  asperity.rx = 16e3;
  asperity.ry = 24e3;
  asperity.peak_uplift = 2.2;
  rupture_cfg.asperities.push_back(asperity);
  rupture_cfg.hypocenter_x = asperity.x0;
  rupture_cfg.hypocenter_y = asperity.y0;
  const RuptureScenario scenario(rupture_cfg);
  Rng rng(3);
  const SyntheticEvent event = twin.synthesize(scenario, rng);
  twin.run_offline(event.noise);
  const StreamingEngine engine = twin.make_streaming(&twin.timers());

  const std::size_t nt = engine.num_ticks();
  const std::size_t nd = engine.block_size();
  const double dt = config.observation_dt;

  std::printf("=== Streaming early-warning monitor ===\n");
  std::printf(
      "window: %zu intervals x %.0f s | sensors: %zu | gauges: %zu | "
      "streaming precompute: %s (once per network)\n\n",
      nt, dt, nd, static_cast<std::size_t>(config.num_gauges),
      format_duration(engine.precompute_seconds()).c_str());

  // Warning threshold: for the demo, half the eventual observed peak (a
  // deployed center uses fixed hazard levels per gauge).
  double peak_true = 0.0;
  std::size_t peak_true_idx = 0;
  for (std::size_t j = 0; j < event.q_true.size(); ++j)
    if (event.q_true[j] > peak_true) {
      peak_true = event.q_true[j];
      peak_true_idx = j;
    }
  const double threshold = 0.5 * peak_true;
  const std::size_t peak_tick = peak_true_idx / config.num_gauges;
  std::printf("warning threshold: %.3f m | true peak %.3f m, reached at "
              "t = %.0f s\n\n",
              threshold, peak_true,
              static_cast<double>(peak_tick + 1) * dt);

  // --- streaming replay -----------------------------------------------------
  StreamingAssimilator assim = engine.start();
  TextTable table({"t [s]", "push", "peak fc [m]", "95% band", "naive Q fc",
                   "MAP uplift [m]", "state"});
  // The parameter field is not on the alert path: refresh it on demand
  // every few ticks (and at the end) instead of tracking it per push.
  constexpr std::size_t kDisplayEvery = 4;
  double alert_seconds = -1.0;
  std::size_t above_threshold_streak = 0;
  for (std::size_t tick = 0; tick < nt; ++tick) {
    assim.push(tick,
               std::span<const double>(event.d_obs).subspan(tick * nd, nd));
    const Forecast fc = assim.forecast();

    // Peak of the rolling forecast and its band; debounced alert on the
    // best-estimate peak.
    std::size_t jmax = 0;
    for (std::size_t j = 0; j < fc.mean.size(); ++j)
      if (fc.mean[j] > fc.mean[jmax]) jmax = j;
    above_threshold_streak =
        fc.mean[jmax] > threshold ? above_threshold_streak + 1 : 0;
    const bool alert = alert_seconds >= 0.0 || above_threshold_streak >= 2;
    if (alert && alert_seconds < 0.0)
      alert_seconds = static_cast<double>(tick + 1) * dt;

    // The naive baseline: full-window Q on zero-padded data.
    const Forecast naive = twin.predictor().predict_prefix(
        std::span<const double>(event.d_obs).first((tick + 1) * nd),
        tick + 1);
    const double naive_peak =
        *std::max_element(naive.mean.begin(), naive.mean.end());

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
        .cell(naive_peak, 3)
        .cell(uplift)
        .cell(alert ? (alert_seconds == static_cast<double>(tick + 1) * dt
                           ? ">>> ALERT <<<"
                           : "alert")
                    : "watch");
  }
  std::printf("%s\n", table.str().c_str());

  // --- wrap-up --------------------------------------------------------------
  if (alert_seconds >= 0.0) {
    const double lead =
        static_cast<double>(peak_tick + 1) * dt - alert_seconds;
    if (lead > 0.0) {
      std::printf("ALERT raised at t = %.0f s (best-estimate peak above the "
                  "%.3f m threshold, debounced): %.0f s of warning before "
                  "the peak wave.\n",
                  alert_seconds, threshold, lead);
    } else {
      std::printf("ALERT raised at t = %.0f s — %.0f s AFTER the peak wave "
                  "(no usable lead time; the peak landed inside the "
                  "debounce window).\n",
                  alert_seconds, -lead);
    }
  } else {
    std::printf("no alert: the best-estimate peak never held above %.3f m.\n",
                threshold);
  }
  double prior_w = 0.0, final_w = 0.0;
  for (double s : engine.stddev_after(0)) prior_w += s;
  for (double s : engine.stddev_after(nt)) final_w += s;
  std::printf("credible band contraction over the window: %.1f%% (prior-"
              "dominated at seed scale; grows with sensors x window toward "
              "the paper's setup).\n",
              100.0 * (1.0 - final_w / prior_w));

  // The streaming state at the final tick IS the batch answer.
  const InversionResult batch = twin.infer(event.d_obs);
  const double q_diff =
      DigitalTwin::relative_error(assim.forecast().mean, batch.forecast.mean);
  const double m_diff =
      DigitalTwin::relative_error(assim.map_snapshot(), batch.m_map);
  std::printf(
      "final-tick check vs batch infer(): forecast rel diff %.2e, m_map rel "
      "diff %.2e (exact truncated posterior, not an approximation).\n",
      q_diff, m_diff);
  std::printf(
      "mean push latency %s against a %.0f s observation cadence — the "
      "assimilator keeps up in real time on a laptop (paper SecVIII).\n",
      format_duration(assim.total_push_seconds() / static_cast<double>(nt))
          .c_str(),
      dt);
  return 0;
}
