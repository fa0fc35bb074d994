// Self-tests of the benchmark's measurement rules (harness.hpp): the tail
// percentile, due-time latency accounting and span self time. run.py runs
// them before every benchmark run; a failure stops the run without a result.
//
//   .bench_build/perfbench/perfbench_selftest

#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "util/stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  ++failures;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void test_tail_rule() {
  using perfbench::samples_beyond;
  using perfbench::tail_per10k;
  // The interpolating estimator reads p99 of 1001 samples at rank 990
  // exactly (ten beyond); of 1000 samples between ranks 989 and 990 (nine).
  expect(samples_beyond(1001, 9900) == 10, "1001 samples: 10 beyond p99");
  expect(samples_beyond(1000, 9900) == 9, "1000 samples: 9 beyond p99");
  expect(tail_per10k(1001) == 9900, "1001 samples -> p99");
  expect(tail_per10k(1000) == 9500, "1000 samples -> p95 (p99 has 9 beyond)");
  expect(tail_per10k(10000) == 9900, "10000 samples -> p99 (p99.9 has 9)");
  expect(tail_per10k(10001) == 9990, "10001 samples -> p99.9");
  expect(tail_per10k(100001) == 9999, "100001 samples -> p99.99");
  expect(tail_per10k(201) == 9500, "201 samples -> p95");
  expect(tail_per10k(200) == 9000, "200 samples -> p90");
  expect(tail_per10k(21) == 5000, "21 samples -> p50");
  expect(tail_per10k(5) == 5000, "5 samples fall back to the median");

  // Values are the library's interpolating estimator: p99 of 1..1001 is
  // 991, the median of 1..4 is 2.5, and at least ten samples really lie
  // beyond the reported tail.
  const perfbench::Summary s = perfbench::summarize(ramp(1001));
  expect(s.p50 == 501.0 && s.tail == 991.0 && s.tail_label() == "p99",
         "summary of 1..1001");
  expect(s.tail == tsunami::percentile(ramp(1001), 99.0),
         "tail agrees with util/stats.hpp");
  expect(perfbench::summarize(ramp(4)).p50 == 2.5, "median of 1..4");
  expect(perfbench::median(ramp(4)) == 2.5, "median() is the same estimator");
  for (std::size_t n : {21u, 57u, 120u, 999u, 1000u, 4321u, 20000u}) {
    const perfbench::Summary t = perfbench::summarize(ramp(n));
    std::size_t beyond = 0;
    for (const double v : ramp(n)) beyond += v > t.tail;
    expect(beyond >= perfbench::kTailMinBeyond,
           "at least ten samples beyond the tail of " + std::to_string(n));
  }
  // Input order does not matter.
  std::vector<double> shuffled = {5, 1, 4, 2, 3};
  expect(perfbench::summarize(shuffled).p50 == 3.0, "unsorted input");
  expect(perfbench::percentile_label(9990) == "p99.9" &&
             perfbench::percentile_label(9999) == "p99.99" &&
             perfbench::percentile_label(9500) == "p95",
         "percentile labels");
}

void test_tail_is_run_wide() {
  // 5000 samples, p99 has 49 beyond. A regression that slows 2 % of them
  // (100 samples, all in one fifth of the run) moves the tail: the tail is
  // read over the whole run, not per window.
  std::vector<double> calm;
  for (int w = 0; w < 5; ++w)
    for (double x : ramp(1000)) calm.push_back(x);
  std::vector<double> slowed = calm;
  for (std::size_t i = 2000; i < 2100; ++i) slowed[i] = 100000.0;
  const perfbench::Summary a = perfbench::summarize(calm);
  const perfbench::Summary b = perfbench::summarize(slowed);
  expect(a.tail_label() == "p99" && b.tail_label() == "p99",
         "5000 samples -> p99");
  expect(a.tail < 1000.0 && b.tail == 100000.0,
         "a 2 % slowdown in one part of the run moves the run-wide tail");
}

void test_due_time_accounting() {
  perfbench::DueLedger ledger;
  // Ticks due at 100, 200, 300 with deadlines one cadence later.
  const std::size_t e = ledger.add_event({100, 200, 300}, {200, 300, 400});
  // The generator sent tick 0 late (at 150); the forecast showed at 180.
  // Latency is charged from the due time: 80, not 30.
  ledger.observe(e, 1, 180);
  // One read sees ticks 1 and 2 together at 390: tick 1 missed its deadline
  // (300), tick 2 made it (400).
  ledger.observe(e, 3, 390);
  const std::vector<double> lat = ledger.latencies_ns();
  expect(lat.size() == 3 && lat[0] == 80.0 && lat[1] == 190.0 &&
             lat[2] == 90.0,
         "latency runs from due time to first visible read");
  const auto [total, missed] = ledger.deadline_tally();
  expect(total == 3 && missed == 1, "one of three ticks missed its deadline");
  // A later read never moves an earlier visibility stamp.
  ledger.observe(e, 3, 1000);
  expect(ledger.latencies_ns()[2] == 90.0, "visibility is stamped once");

  // Samples come out in due-time order across events.
  perfbench::DueLedger two;
  const std::size_t a = two.add_event({0, 20}, {20, 40});
  const std::size_t b = two.add_event({10, 30}, {30, 50});
  two.observe(a, 2, 25);
  two.observe(b, 2, 35);
  const std::vector<double> order = two.latencies_ns();
  expect(order.size() == 4 && order[0] == 25.0 && order[1] == 25.0 &&
             order[2] == 5.0 && order[3] == 5.0,
         "latencies ordered by due time");

  // A tick never seen is a miss and contributes no latency sample.
  perfbench::DueLedger partial;
  const std::size_t p = partial.add_event({0, 10}, {10, 20});
  partial.observe(p, 1, 5);
  expect(partial.latencies_ns().size() == 1, "unseen tick has no latency");
  expect(partial.deadline_tally().second == 1, "unseen tick is a miss");
}

void test_self_time() {
  perfbench::SpanRecorder rec(true);
  // root [0, 100] with children [10, 30] and [20, 50] (overlapping, so they
  // cover 40) and [60, 70]; grandchild [12, 14] inside the first child.
  const auto root = rec.open("stage.root", 0);
  const auto a = rec.open("service.a", 10);
  const auto g = rec.open("core.g", 12);
  rec.close(g, 14);
  rec.close(a, 30);
  // Recorded spans are strictly nested; an overlapping sibling can only be
  // built by hand, which the self-time rule must still handle.
  const auto c = rec.open("service.c", 60);
  rec.close(c, 70);
  rec.close(root, 100);
  std::vector<perfbench::Span> spans = rec.spans();
  perfbench::Span overlap;
  overlap.name = "service.b";
  overlap.start_ns = 20;
  overlap.end_ns = 50;
  overlap.parent = 0;
  spans.push_back(overlap);
  // A child that leaks past its parent is clipped to the parent.
  perfbench::Span leak;
  leak.name = "core.leak";
  leak.start_ns = 25;
  leak.end_ns = 40;
  leak.parent = 3;  // service.c [60, 70]: no overlap, contributes nothing
  spans.push_back(leak);

  const std::vector<double> self = perfbench::self_times(spans);
  expect(self[0] == 100.0 - 40.0 - 10.0, "root self time excludes children");
  expect(self[1] == 20.0 - 2.0, "child self time excludes grandchild");
  expect(self[2] == 2.0 && self[3] == 10.0, "leaf self time is its duration");
  expect(perfbench::layer_of("service.latest_forecast") == "service" &&
             perfbench::layer_of("plain") == "plain",
         "layer of a span name");

  bool threw = false;
  perfbench::SpanRecorder bad(true);
  const auto outer = bad.open("x.outer", 0);
  bad.open("x.inner", 1);
  try {
    bad.close(outer, 2);
  } catch (const std::logic_error&) {
    threw = true;
  }
  expect(threw, "closing spans out of order throws");

  perfbench::SpanRecorder off(false);
  expect(off.open("x.y", 0) == -1 && off.spans().empty(),
         "a disabled recorder records nothing");
}

}  // namespace

int main() {
  test_tail_rule();
  test_tail_is_run_wide();
  test_due_time_accounting();
  test_self_time();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
