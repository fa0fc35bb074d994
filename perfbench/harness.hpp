#pragma once

// Measurement helpers of the end-to-end benchmark, kept free of the twin's
// types so the self-tests (selftest.cpp) can pin them down in isolation:
//
//   * summarize(): median plus the "tail" — the highest percentile of a
//     fixed ladder that still has at least ten samples beyond it, over
//     every sample of the run;
//   * DueLedger: open-loop latency accounting, timed from when each tick was
//     DUE (not when the generator got round to sending it);
//   * SpanRecorder / self_times(): the benchmark's own span recorder and the
//     per-span self time (duration minus the part its children cover).
//
// Every timestamp is tsunami::obs::monotonic_ns(), the clock the service's
// event journal stamps its records with, so journal rows and benchmark spans
// share one time base.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------
//
// Values come from the library's own estimator (util/stats.hpp: linear
// interpolation between closest ranks), so the benchmark's p50 and tail read
// the same as the service telemetry. What this header adds is the choice of
// the tail rung.

/// Samples ranked strictly beyond both ranks the interpolating estimator
/// reads for percentile `per10k` (per ten thousand, 9900 = p99) of n
/// samples: the estimate sits at rank (n - 1) * per10k / 10000, 0-based.
inline std::uint64_t samples_beyond(std::uint64_t n, std::uint32_t per10k) {
  if (n == 0) return 0;
  const std::uint64_t hi = ((n - 1) * per10k + 9999) / 10000;
  return n - 1 - hi;
}

/// The tail ladder, highest first. The tail of n samples is the first entry
/// with at least kTailMinBeyond samples beyond it; with 20 samples or fewer
/// none qualifies and the tail falls back to the median.
inline constexpr std::uint32_t kTailLadder[] = {9999, 9990, 9900, 9500,
                                                9000, 7500, 5000};
inline constexpr std::uint64_t kTailMinBeyond = 10;

inline std::uint32_t tail_per10k(std::uint64_t n) {
  for (const std::uint32_t p : kTailLadder)
    if (samples_beyond(n, p) >= kTailMinBeyond) return p;
  return 5000;
}

/// "p99", "p99.9", "p50" ...
inline std::string percentile_label(std::uint32_t per10k) {
  // Appends, not "p" + std::string&&: GCC 12 reports a false -Wrestrict on
  // the inlined operator+.
  std::string s = "p";
  s += std::to_string(per10k / 100);
  std::uint32_t frac = per10k % 100;
  if (frac != 0) {
    s += '.';
    s += static_cast<char>('0' + frac / 10);
    if (frac % 10 != 0) s += static_cast<char>('0' + frac % 10);
  }
  return s;
}

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  std::uint32_t tail_per10k = 5000;
  [[nodiscard]] std::string tail_label() const {
    return percentile_label(tail_per10k);
  }
};

/// Median and tail over every sample of a run.
inline Summary summarize(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("summarize: no samples");
  std::sort(v.begin(), v.end());
  Summary s;
  s.n = v.size();
  s.p50 = tsunami::percentile_sorted(v, 50.0);
  s.tail_per10k = tail_per10k(v.size());
  s.tail = tsunami::percentile_sorted(v, s.tail_per10k / 100.0);
  return s;
}

inline double median(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("median: no samples");
  return tsunami::percentile(v, 50.0);
}

// ---------------------------------------------------------------------------
// Open-loop latency accounting
// ---------------------------------------------------------------------------

/// Per-tick due times of a set of event streams, and when each tick became
/// visible. A tick's latency is visible - due: a generator that runs late
/// delays every later tick, and that stall is charged to the system under
/// test's latency as a user would see it, instead of vanishing because the
/// clock started at the (late) send. A tick meets its deadline when it is
/// visible no later than `deadline` (the next tick's due time).
class DueLedger {
 public:
  /// Registers an event whose tick t is due at due[t] with deadline
  /// deadline[t]. Returns the event's ledger index.
  std::size_t add_event(std::vector<std::int64_t> due,
                        std::vector<std::int64_t> deadline) {
    if (due.size() != deadline.size())
      throw std::invalid_argument("DueLedger: due/deadline size mismatch");
    Stream s;
    s.visible.assign(due.size(), kNever);
    s.due = std::move(due);
    s.deadline = std::move(deadline);
    streams_.push_back(std::move(s));
    return streams_.size() - 1;
  }

  /// A read at `now_ns` saw `assimilated` ticks of event `e`: every tick
  /// below that count not yet seen becomes visible at now_ns.
  void observe(std::size_t e, std::size_t assimilated, std::int64_t now_ns) {
    Stream& s = streams_.at(e);
    assimilated = std::min(assimilated, s.due.size());
    for (; s.seen < assimilated; ++s.seen) s.visible[s.seen] = now_ns;
  }

  /// Ticks of event `e` seen so far.
  [[nodiscard]] std::size_t seen(std::size_t e) const { return streams_.at(e).seen; }

  /// Latency (ns) of every visible tick, in order of due time.
  [[nodiscard]] std::vector<double> latencies_ns() const {
    std::vector<std::pair<std::int64_t, double>> by_due;
    for (const Stream& s : streams_)
      for (std::size_t t = 0; t < s.seen; ++t)
        by_due.emplace_back(s.due[t],
                            static_cast<double>(s.visible[t] - s.due[t]));
    std::stable_sort(by_due.begin(), by_due.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<double> out;
    out.reserve(by_due.size());
    for (const auto& [due, lat] : by_due) out.push_back(lat);
    return out;
  }

  /// Ticks registered, and ticks that missed their deadline (never seen
  /// counts as missed).
  [[nodiscard]] std::pair<std::size_t, std::size_t> deadline_tally() const {
    std::size_t total = 0, missed = 0;
    for (const Stream& s : streams_)
      for (std::size_t t = 0; t < s.due.size(); ++t) {
        ++total;
        if (t >= s.seen || s.visible[t] > s.deadline[t]) ++missed;
      }
    return {total, missed};
  }

 private:
  static constexpr std::int64_t kNever = INT64_MAX;
  struct Stream {
    std::vector<std::int64_t> due, deadline, visible;
    std::size_t seen = 0;
  };
  std::vector<Stream> streams_;
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One call into a library layer, as the benchmark saw it from outside.
/// `event`/`tick` form the request id (-1 = not tied to an event or tick).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 at the root
  std::int64_t event = -1;
  std::int64_t tick = -1;
};

/// Single-threaded span recorder: every span is opened and closed on the
/// benchmark's driving thread, so nesting is a stack. Spans stay in memory
/// until the run ends. A disabled recorder records nothing and reads no
/// clock.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span starting at `start_ns`; returns its index (-1 if disabled).
  std::int32_t open(const char* name, std::int64_t start_ns,
                    std::int64_t event = -1, std::int64_t tick = -1) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.start_ns = start_ns;
    s.end_ns = start_ns;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.event = event;
    s.tick = tick;
    spans_.push_back(s);
    const auto idx = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
  }

  /// Closes the innermost open span, which must be `idx`.
  void close(std::int32_t idx, std::int64_t end_ns) {
    if (idx < 0) return;
    if (stack_.empty() || stack_.back() != idx)
      throw std::logic_error("SpanRecorder: spans closed out of order");
    stack_.pop_back();
    spans_[static_cast<std::size_t>(idx)].end_ns = end_ns;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Self time (ns) of every span: its duration minus the part of its interval
/// covered by its direct children (child intervals are clipped to the parent
/// and overlapping children are counted once).
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0) {
      const Span& p = spans.at(static_cast<std::size_t>(s.parent));
      const std::int64_t a = std::max(s.start_ns, p.start_ns);
      const std::int64_t b = std::min(s.end_ns, p.end_ns);
      if (b > a) kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
    }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
      } else {
        if (open) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
      }
    }
    if (open) covered += cur_b - cur_a;
    out[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns - covered);
  }
  return out;
}

/// Layer of a span name: the part before the first '.' ("service.submit" ->
/// "service").
inline std::string layer_of(const char* name) {
  const std::string s(name);
  const auto dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

}  // namespace perfbench
