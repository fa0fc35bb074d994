// Per-tick cost of the streaming assimilation engine, layer by layer, and
// against the two re-solve alternatives it replaces.
//
// A push does two things (StreamingAssimilator::push):
//   forward subst    — extend z = L^{-1} d by one block row:
//                      forward_solve_range over L[p0:p1, 0:p1], O(t Nd^2)
//                      bytes, so it grows linearly in the tick index t;
//   slab accumulate  — q += R[p0:p1, :]^T z[p0:p1] over the forecast slab
//                      R = L^{-1} V: O(Nd Nq) bytes, flat in t.
// Each layer is timed on its own (same kernels, same order as the push)
// and reported with its computed bytes and achieved GB/s. The batch solve's
// two full-factor sweeps (forward and backward substitution) are timed too,
// each against an in-process triad bandwidth probe of the same working set.
//
// Two networks:
//   demo twin        — the 8-sensor, 48-tick seed-scale twin, with the whole
//                      push and the two re-solve alternatives alongside:
//                      truncated solve (prefix forward + backward
//                      substitution on the cached factor plus the G* lift —
//                      the cheapest non-incremental exact alternative) and
//                      full re-solve (batch DigitalTwin::infer on the
//                      zero-padded window every tick);
//   synthetic        — the paper's network size, Nd = 600 sensors and 21
//                      gauges, over a random SPD block factor (no PDE
//                      solves) with Nt chosen so the factor stays within
//                      256 MB. Prints per-tick cost against tick index,
//                      whether a 1 s tick budget holds at that size, which
//                      layer grows first, and the measured rates carried out
//                      to the paper's 420-tick window (labelled as such).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/digital_twin.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using tsunami::DenseCholesky;
using tsunami::Matrix;

constexpr std::size_t kAccTile = 1024;  // StreamingAssimilator's column tile

/// out += slab[p0:p1, :]^T z[p0:p1], column-tiled exactly as the push does.
void accumulate(const Matrix& slab, const std::vector<double>& z,
                std::size_t p0, std::size_t p1, std::vector<double>& out) {
  const std::size_t ncols = slab.cols();
  const double* w = slab.data();
  for (std::size_t c0 = 0; c0 < ncols; c0 += kAccTile) {
    const std::size_t c1 = std::min(c0 + kAccTile, ncols);
    for (std::size_t j = p0; j < p1; ++j) {
      const double* row = w + j * ncols;
      const double zj = z[j];
      for (std::size_t c = c0; c < c1; ++c) out[c] += zj * row[c];
    }
  }
}

/// Computed bytes of tick t's forward substitution: the factor rows
/// L[p0:p1, 0:p1] (lower triangle), p0 = t Nd.
double fwd_bytes(std::size_t nd, std::size_t t) {
  const auto d = static_cast<double>(nd);
  return 8.0 * d * (static_cast<double>(t) * d + (d + 1.0) / 2.0);
}

/// Computed bytes of one tick's slab accumulation: Nd rows of R.
double slab_bytes(std::size_t nd, std::size_t nq) {
  return 8.0 * static_cast<double>(nd) * static_cast<double>(nq);
}

struct LayerTimes {
  std::vector<double> fwd_s;   ///< per tick, min over replays
  std::vector<double> slab_s;  ///< per tick, min over replays
};

/// Replays one event through the two push layers, timing each per tick.
LayerTimes time_layers(const DenseCholesky& chol, const Matrix& slab,
                       std::size_t nd, std::size_t nt,
                       std::span<const double> d, int replays) {
  LayerTimes out{std::vector<double>(nt, 1e300),
                 std::vector<double>(nt, 1e300)};
  std::vector<double> z(nd * nt), q(slab.cols());
  for (int r = 0; r < replays; ++r) {
    std::fill(q.begin(), q.end(), 0.0);
    for (std::size_t t = 0; t < nt; ++t) {
      const std::size_t p0 = t * nd, p1 = p0 + nd;
      std::copy(d.begin() + static_cast<std::ptrdiff_t>(p0),
                d.begin() + static_cast<std::ptrdiff_t>(p1),
                z.begin() + static_cast<std::ptrdiff_t>(p0));
      tsunami::Stopwatch fwd;
      chol.forward_solve_range(std::span<double>(z), p0, p1);
      out.fwd_s[t] = std::min(out.fwd_s[t], fwd.seconds());
      tsunami::Stopwatch acc;
      accumulate(slab, z, p0, p1, q);
      out.slab_s[t] = std::min(out.slab_s[t], acc.seconds());
    }
  }
  return out;
}

/// One substitution sweep over a whole factor: the n(n+1)/2 lower-triangle
/// entries are the computed bytes, each read once.
struct SweepTime {
  tsunami::benchutil::Stat stat;
  double bytes = 0.0;
  double gbps = 0.0;
};

/// Forward (L y = d) and backward (L^T x = d) substitution over the full
/// factor — the two sweeps of every batch solve (map_point, map_snapshot,
/// Phase 3's K^{-1} V) — each timed on its own.
std::pair<SweepTime, SweepTime> time_full_solves(const DenseCholesky& chol,
                                                 std::span<const double> d,
                                                 int reps) {
  const std::size_t n = chol.dim();
  std::vector<double> u(n);
  const auto sweep = [&](bool forward) {
    SweepTime s;
    s.bytes = 4.0 * static_cast<double>(n) * static_cast<double>(n + 1);
    s.stat = tsunami::benchutil::time_reps(reps, [&] {
      std::copy(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(n),
                u.begin());
      if (forward)
        chol.forward_solve_range(std::span<double>(u), 0, n);
      else
        chol.backward_solve_prefix(std::span<double>(u), n);
    });
    s.gbps = s.bytes / s.stat.median_ns;  // bytes per ns = GB/s
    return s;
  };
  return {sweep(true), sweep(false)};
}

/// Whole-event achieved rate of a layer: computed bytes over measured time.
double gbps(const std::vector<double>& secs,
            const std::vector<double>& bytes) {
  double b = 0.0, s = 0.0;
  for (std::size_t t = 0; t < secs.size(); ++t) {
    b += bytes[t];
    s += secs[t];
  }
  return s > 0.0 ? b / s / 1e9 : 0.0;
}

}  // namespace

int main() {
  using namespace tsunami;
  namespace bu = tsunami::benchutil;

  TwinConfig config = TwinConfig::tiny();
  config.num_sensors = 8;
  config.num_gauges = 3;
  config.num_intervals = 48;  // enough ticks to see the growth law
  config.observation_dt = 2.0;
  DigitalTwin twin(config);

  RuptureConfig rc;
  Asperity a;
  a.x0 = 0.3 * twin.mesh().length_x();
  a.y0 = 0.5 * twin.mesh().length_y();
  a.rx = 16e3;
  a.ry = 24e3;
  a.peak_uplift = 2.2;
  rc.asperities.push_back(a);
  rc.hypocenter_x = a.x0;
  rc.hypocenter_y = a.y0;
  Rng rng(9);
  const SyntheticEvent event = twin.synthesize(RuptureScenario(rc), rng);
  twin.run_offline(event.noise);
  const StreamingEngine engine = twin.make_streaming();

  const std::size_t nt = engine.num_ticks();
  const std::size_t nd = engine.block_size();
  const std::size_t nq = engine.qoi_dim();
  std::printf("=== Streaming assimilation: per-tick cost, layer by layer ===\n");
  std::printf(
      "demo twin: data dim %zu (%zu sensors x %zu ticks) | QoI %zu | "
      "parameters %zu | streaming precompute %s (offline, once per "
      "network)\n\n",
      engine.data_dim(), nd, nt, nq, engine.parameter_dim(),
      format_duration(engine.precompute_seconds()).c_str());

  // Per-tick push latency: min over replays (the usual microbenchmark
  // discipline — scheduling noise only ever adds time).
  const int replays = bu::reps(7);
  std::vector<double> push_s(nt, 1e300);
  StreamingAssimilator assim = engine.start();
  for (int r = 0; r < replays; ++r) {
    assim.reset();
    for (std::size_t t = 0; t < nt; ++t) {
      assim.push(t, std::span<const double>(event.d_obs).subspan(t * nd, nd));
      push_s[t] = std::min(push_s[t], assim.last_push_seconds());
    }
  }
  const LayerTimes demo =
      time_layers(twin.hessian().cholesky(), engine.forecast_slab(), nd, nt,
                  event.d_obs, replays);
  std::vector<double> demo_fwd_bytes(nt), demo_slab_bytes(nt);
  for (std::size_t t = 0; t < nt; ++t) {
    demo_fwd_bytes[t] = fwd_bytes(nd, t);
    demo_slab_bytes[t] = slab_bytes(nd, nq);
  }

  // Trace A/B: the same replay with the flight recorder off (the default —
  // TRACE_SCOPE must cost one relaxed load) vs on (two clock reads + four
  // relaxed stores per span). Alternating off/on within each round (the
  // bench_fftmatvec discipline) so neither mode systematically runs colder,
  // with at least two rounds so each mode gets a warm pass even in quick
  // mode. The off-median matching the untraced push medians above is the
  // "disabled tracing adds zero overhead" guard; both medians land in
  // BENCH_streaming.json.
  const bool was_tracing = obs::trace_enabled();
  std::vector<double> ab_off(nt, 1e300);
  std::vector<double> ab_on(nt, 1e300);
  for (int r = 0; r < std::max(2, replays); ++r) {
    for (const bool traced : {false, true}) {
      obs::set_trace_enabled(traced);
      std::vector<double>& dst = traced ? ab_on : ab_off;
      assim.reset();
      for (std::size_t t = 0; t < nt; ++t) {
        assim.push(t,
                   std::span<const double>(event.d_obs).subspan(t * nd, nd));
        dst[t] = std::min(dst[t], assim.last_push_seconds());
      }
    }
  }
  obs::set_trace_enabled(was_tracing);
  if (!was_tracing) obs::clear_trace();  // keep the A/B out of TSUNAMI_TRACE
  const double push_off_ns = percentile(ab_off, 50.0) * 1e9;
  const double push_on_ns = percentile(ab_on, 50.0) * 1e9;
  std::printf("trace A/B median push: off %s | on %s (%.3fx)\n\n",
              format_duration(push_off_ns / 1e9).c_str(),
              format_duration(push_on_ns / 1e9).c_str(),
              push_on_ns / push_off_ns);

  // Truncated exact re-solve at tick t (prefix solves + prefix G* + Fq m).
  const DenseCholesky& chol = twin.hessian().cholesky();
  std::vector<double> trunc_s(nt, 1e300);
  std::vector<double> u(engine.data_dim());
  std::vector<double> m(engine.parameter_dim());
  std::vector<double> q(nq);
  for (int r = 0; r < std::max(2, replays / 2); ++r) {
    for (std::size_t t = 0; t < nt; ++t) {
      const std::size_t p = (t + 1) * nd;
      Stopwatch w;
      std::copy(event.d_obs.begin(),
                event.d_obs.begin() + static_cast<std::ptrdiff_t>(p),
                u.begin());
      chol.forward_solve_range(std::span<double>(u), 0, p);
      chol.backward_solve_prefix(std::span<double>(u), p);
      twin.posterior().apply_gstar_prefix(
          std::span<const double>(u).first(p), t + 1, std::span<double>(m));
      twin.predictor().apply_fq_mean(m, std::span<double>(q));
      trunc_s[t] = std::min(trunc_s[t], w.seconds());
    }
  }

  // Full zero-padded batch re-solve per tick (the pre-streaming approach).
  std::vector<double> full_s(nt, 1e300);
  std::vector<double> window(engine.data_dim(), 0.0);
  for (std::size_t t = 0; t < nt; ++t) {
    std::copy(event.d_obs.begin() + static_cast<std::ptrdiff_t>(t * nd),
              event.d_obs.begin() + static_cast<std::ptrdiff_t>((t + 1) * nd),
              window.begin() + static_cast<std::ptrdiff_t>(t * nd));
    const InversionResult inv = twin.infer(window);
    full_s[t] = inv.infer_seconds + inv.predict_seconds;
  }

  TextTable table({"tick", "push", "fwd subst", "slab acc", "truncated solve",
                   "full re-solve", "push/trunc"});
  for (std::size_t t = 0; t < nt; ++t) {
    if (t % 4 != 3 && t != 0) continue;  // print every 4th tick
    table.row()
        .cell(static_cast<long>(t + 1))
        .cell(format_duration(push_s[t]))
        .cell(format_duration(demo.fwd_s[t]))
        .cell(format_duration(demo.slab_s[t]))
        .cell(format_duration(trunc_s[t]))
        .cell(format_duration(full_s[t]))
        .cell(push_s[t] / trunc_s[t], 3);
  }
  std::printf("%s\n", table.str().c_str());

  const auto quarter_mean = [&](const std::vector<double>& s, bool late) {
    const std::size_t q4 = nt / 4;
    double sum = 0.0;
    for (std::size_t t = 0; t < q4; ++t) sum += s[late ? nt - 1 - t : t];
    return sum / static_cast<double>(q4);
  };
  double push_total = 0.0, trunc_total = 0.0, full_total = 0.0;
  for (std::size_t t = 0; t < nt; ++t) {
    push_total += push_s[t];
    trunc_total += trunc_s[t];
    full_total += full_s[t];
  }
  const double demo_fwd_gbps = gbps(demo.fwd_s, demo_fwd_bytes);
  const double demo_slab_gbps = gbps(demo.slab_s, demo_slab_bytes);

  std::printf("growth, last-quarter / first-quarter mean latency:\n");
  for (const auto& [label, col] :
       {std::pair<const char*, const std::vector<double>*>{"push", &push_s},
        {"fwd subst", &demo.fwd_s},
        {"slab acc", &demo.slab_s},
        {"truncated solve", &trunc_s}}) {
    const double early = quarter_mean(*col, false);
    const double late = quarter_mean(*col, true);
    std::printf("  %-16s %s -> %s  (%.2fx)\n", label,
                format_duration(early).c_str(), format_duration(late).c_str(),
                late / early);
  }
  std::printf(
      "layer rates over the event: fwd subst %.2f GB/s (%.1f KB at the last "
      "tick) | slab acc %.2f GB/s (%.1f KB per tick) — cache-resident at "
      "this size\n",
      demo_fwd_gbps, demo_fwd_bytes.back() / 1e3, demo_slab_gbps,
      demo_slab_bytes.back() / 1e3);
  std::printf("whole-event totals: stream %s | truncated re-solves %s "
              "(%.1fx) | full re-solves %s (%.1fx)\n\n",
              format_duration(push_total).c_str(),
              format_duration(trunc_total).c_str(), trunc_total / push_total,
              format_duration(full_total).c_str(), full_total / push_total);

  // ---- synthetic factor at the paper's network size -----------------------
  // A random lower-triangular L with a dominant diagonal is the Cholesky
  // factor of the SPD K = L L^T, and keeps every forward solve bounded (no
  // overflow or denormals to skew the timing). Values do not matter to the
  // cost; shapes do.
  constexpr std::size_t kSensors = 600;  // paper: 600 pressure sensors
  constexpr std::size_t kGauges = 21;    // paper: 21 forecast locations
  constexpr std::size_t kPaperTicks = 420;
  constexpr double kFactorCapBytes = 256e6;
  constexpr double kTickBudgetS = 1.0;
  const auto max_ticks = static_cast<std::size_t>(
      std::sqrt(kFactorCapBytes / 8.0) / static_cast<double>(kSensors));
  const std::size_t syn_nt = bu::quick_mode() ? 3 : max_ticks;
  const std::size_t syn_n = kSensors * syn_nt;
  const std::size_t syn_nq = kGauges * syn_nt;
  Rng syn_rng(17);
  Matrix l(syn_n, syn_n);
  for (std::size_t i = 0; i < syn_n; ++i) {
    auto row = l.row(i);
    for (std::size_t j = 0; j < i; ++j)
      row[j] = 0.5 * syn_rng.normal() / static_cast<double>(syn_n);
    row[i] = 2.0;
  }
  const DenseCholesky syn_chol = DenseCholesky::from_factor(std::move(l));
  Matrix syn_slab(syn_n, syn_nq);
  for (std::size_t i = 0; i < syn_n; ++i)
    for (double& v : syn_slab.row(i)) v = syn_rng.normal();
  std::vector<double> syn_d(syn_n);
  for (double& v : syn_d) v = syn_rng.normal();

  const LayerTimes syn = time_layers(syn_chol, syn_slab, kSensors, syn_nt,
                                     syn_d, bu::reps(5));
  std::vector<double> syn_fwd_bytes(syn_nt), syn_slab_bytes(syn_nt);
  for (std::size_t t = 0; t < syn_nt; ++t) {
    syn_fwd_bytes[t] = fwd_bytes(kSensors, t);
    syn_slab_bytes[t] = slab_bytes(kSensors, syn_nq);
  }
  std::printf(
      "synthetic factor at the paper's network size: %zu sensors x %zu "
      "ticks (factor %.0f MB, cap %.0f MB) | QoI %zu (%zu gauges x %zu "
      "ticks)\n",
      kSensors, syn_nt, 8.0 * static_cast<double>(syn_n * syn_n) / 1e6,
      kFactorCapBytes / 1e6, syn_nq, kGauges, syn_nt);
  TextTable syn_table({"tick", "fwd subst", "fwd MB", "fwd GB/s", "slab acc",
                       "slab MB", "slab GB/s", "tick total"});
  double worst_tick = 0.0;
  for (std::size_t t = 0; t < syn_nt; ++t) {
    const double total = syn.fwd_s[t] + syn.slab_s[t];
    worst_tick = std::max(worst_tick, total);
    syn_table.row()
        .cell(static_cast<long>(t + 1))
        .cell(format_duration(syn.fwd_s[t]))
        .cell(syn_fwd_bytes[t] / 1e6, 1)
        .cell(syn_fwd_bytes[t] / syn.fwd_s[t] / 1e9, 2)
        .cell(format_duration(syn.slab_s[t]))
        .cell(syn_slab_bytes[t] / 1e6, 2)
        .cell(syn_slab_bytes[t] / syn.slab_s[t] / 1e9, 2)
        .cell(format_duration(total));
  }
  std::printf("%s\n", syn_table.str().c_str());

  const double syn_fwd_gbps = gbps(syn.fwd_s, syn_fwd_bytes);
  const double syn_slab_gbps = gbps(syn.slab_s, syn_slab_bytes);
  const double fwd_growth = syn.fwd_s.back() / syn.fwd_s.front();
  const double slab_growth = syn.slab_s.back() / syn.slab_s.front();
  const bool budget_holds = worst_tick <= kTickBudgetS;
  std::printf(
      "1 s tick budget at this size: %s (worst tick %s, %.2f%% of the "
      "budget)\n",
      budget_holds ? "HOLDS" : "EXCEEDED",
      format_duration(worst_tick).c_str(), 100.0 * worst_tick / kTickBudgetS);
  std::printf(
      "grows first: %s (tick 1 -> %zu: fwd subst %.2fx, slab acc %.2fx; the "
      "forward substitution reads O(t Nd^2) bytes per tick, the slab a "
      "constant O(Nd Nq))\n",
      fwd_growth >= slab_growth ? "forward substitution" : "slab accumulation",
      syn_nt, fwd_growth, slab_growth);
  // Carried out at the measured whole-event rates (not measured at that size:
  // the 420-tick factor alone would be 8 (600 * 420)^2 bytes).
  const double paper_slab_s =
      slab_bytes(kSensors, kGauges * kPaperTicks) / (syn_slab_gbps * 1e9);
  const double paper_fwd_last_s =
      fwd_bytes(kSensors, kPaperTicks - 1) / (syn_fwd_gbps * 1e9);
  const double d = static_cast<double>(kSensors);
  const double budget_tick =
      ((kTickBudgetS - paper_slab_s) * syn_fwd_gbps * 1e9 / (8.0 * d) -
       (d + 1.0) / 2.0) /
      d;
  std::printf(
      "carried to the paper's %zu-tick window at these rates (an "
      "extrapolation; the factor would be %.0f GB): last tick = %s forward "
      "substitution + %s slab accumulation; the 1 s budget breaks at tick "
      "~%.0f%s\n",
      kPaperTicks,
      8.0 * std::pow(d * static_cast<double>(kPaperTicks), 2.0) / 1e9,
      format_duration(paper_fwd_last_s).c_str(),
      format_duration(paper_slab_s).c_str(), budget_tick + 1.0,
      budget_tick + 1.0 > static_cast<double>(kPaperTicks)
          ? " (beyond the window: the budget holds throughout)"
          : "");

  // Machine-readable trajectory. Every case has a distinct (name, shape):
  // the two layers appear at both network sizes, told apart by shape.
  bu::JsonReport report("streaming");
  report.add("push",
             {{"sensors", static_cast<double>(nd)},
              {"ticks", static_cast<double>(nt)},
              {"parameters", static_cast<double>(engine.parameter_dim())}},
             bu::from_seconds(push_s));
  const auto add_layers = [&](const LayerTimes& lt, std::size_t sensors,
                              std::size_t ticks, std::size_t qoi,
                              bool synthetic, double fwd_rate,
                              double slab_rate) {
    const std::vector<std::pair<std::string, double>> shape = {
        {"sensors", static_cast<double>(sensors)},
        {"ticks", static_cast<double>(ticks)},
        {"qoi", static_cast<double>(qoi)},
        {"synthetic", synthetic ? 1.0 : 0.0}};
    report.add("forward_subst", shape, bu::from_seconds(lt.fwd_s),
               {{"last_tick_bytes", fwd_bytes(sensors, ticks - 1)},
                {"last_tick_ns", lt.fwd_s.back() * 1e9},
                {"gbps", fwd_rate}});
    report.add("slab_accumulate", shape, bu::from_seconds(lt.slab_s),
               {{"tick_bytes", slab_bytes(sensors, qoi)},
                {"last_tick_ns", lt.slab_s.back() * 1e9},
                {"gbps", slab_rate}});
  };
  add_layers(demo, nd, nt, nq, false, demo_fwd_gbps, demo_slab_gbps);
  add_layers(syn, kSensors, syn_nt, syn_nq, true, syn_fwd_gbps, syn_slab_gbps);

  // ---- full-factor triangular solves --------------------------------------
  // Each rate is read against the in-process triad probe sized to the same
  // working set (the factor's lower triangle), i.e. as a fraction of what a
  // pure streaming kernel achieves at that level of the memory hierarchy.
  // The sweeps only read the factor, while a third of the triad's bytes are
  // writes (each also paying an uncounted read-for-ownership), so a sweep
  // can exceed 1.
  std::printf("\nfull-factor substitution (one sweep = the n(n+1)/2 lower "
              "triangle):\n");
  const auto add_solves = [&](const char* label, const DenseCholesky& c,
                              std::span<const double> rhs, bool synthetic,
                              int solve_reps) {
    const auto [fwd, bwd] = time_full_solves(c, rhs, solve_reps);
    const double triad = bu::triad_gbps(static_cast<std::size_t>(fwd.bytes),
                                        bu::reps(5));
    std::printf(
        "  %-9s n=%5zu (%6.1f MB): forward %s %.2f GB/s (%.2f of triad) | "
        "backward %s %.2f GB/s (%.2f of triad) | triad %.2f GB/s\n",
        label, c.dim(), fwd.bytes / 1e6,
        format_duration(fwd.stat.median_ns / 1e9).c_str(), fwd.gbps,
        fwd.gbps / triad, format_duration(bwd.stat.median_ns / 1e9).c_str(),
        bwd.gbps, bwd.gbps / triad, triad);
    const std::vector<std::pair<std::string, double>> shape = {
        {"n", static_cast<double>(c.dim())},
        {"synthetic", synthetic ? 1.0 : 0.0}};
    for (const auto& [name, sw] :
         {std::pair<const char*, const SweepTime*>{"forward_solve_full", &fwd},
          {"backward_solve_full", &bwd}})
      report.add(name, shape, sw->stat,
                 {{"bytes", sw->bytes},
                  {"gbps", sw->gbps},
                  {"triad_gbps", triad},
                  {"fraction_of_triad", sw->gbps / triad}});
  };
  add_solves("demo", chol, event.d_obs, false, bu::reps(25));
  add_solves("synthetic", syn_chol, syn_d, true, bu::reps(7));
  report.add("truncated_solve",
             {{"sensors", static_cast<double>(nd)},
              {"ticks", static_cast<double>(nt)}},
             bu::from_seconds(trunc_s));
  report.add("full_resolve",
             {{"sensors", static_cast<double>(nd)},
              {"ticks", static_cast<double>(nt)}},
             bu::from_seconds(full_s));
  report.note("whole_event_push_s", push_total);
  report.note("precompute_s", engine.precompute_seconds());
  report.note("push_trace_off_ns", push_off_ns);
  report.note("push_trace_on_ns", push_on_ns);
  report.note("synthetic_worst_tick_s", worst_tick);
  report.note("synthetic_budget_holds", budget_holds ? 1.0 : 0.0);
  report.note("paper_window_budget_tick", budget_tick + 1.0);
  report.write();
  return 0;
}
