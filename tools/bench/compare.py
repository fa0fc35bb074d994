#!/usr/bin/env python3
"""Compare two BENCH_*.json reports (bench/bench_util.hpp JsonReport schema).

Matches cases between a baseline and a current report by identity: the case
name plus its canonical (key-sorted) shape, so one name swept over several
shapes is compared shape by shape. Per-case "extra" entries are measured
side values, not identity. Prints the median delta per case with the
p10/p90 spread of both runs, and flags regressions. A case REGRESSES when its median slowed down by more than
--fail-above percent AND the runs' [p10, p90] intervals do not overlap —
the overlap test keeps noisy quick-mode runs (TSUNAMI_BENCH_QUICK=1) from
tripping the gate on jitter alone.

Usage:
    tools/bench/compare.py baseline.json current.json [--fail-above 10]

Exit status: 0 when no case regresses past the threshold, 1 otherwise,
2 on malformed input: an unreadable report, a case key that appears twice
in one report, or a case present on only one side. CI archives every run's BENCH_*.json under a stable
name (bench-history/BENCH_<bench>.<sha>.json) so any two points of the
trajectory can be compared after the fact.
"""

import argparse
import json
import sys


def fail_input(msg):
    print(f"compare: {msg}", file=sys.stderr)
    sys.exit(2)


def case_key(case):
    """(name, canonical shape): shape entries sorted by key, so the order a
    bench happened to emit them in does not change a case's identity."""
    shape = case.get("shape", {})
    if not isinstance(shape, dict):
        raise ValueError(f"shape is not an object: {shape!r}")
    for k, v in shape.items():
        if isinstance(v, bool) or not isinstance(v, (int, float, str)):
            raise ValueError(f"shape entry {k} is not a number or string")
    return case["name"], tuple(sorted(shape.items()))


def key_label(key):
    name, shape = key
    if not shape:
        return name
    return name + "[" + ",".join(
        f"{k}={v:g}" if isinstance(v, (int, float)) else f"{k}={v}"
        for k, v in shape) + "]"


def load_cases(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail_input(f"cannot read {path}: {e}")
    cases = report.get("cases") if isinstance(report, dict) else None
    if not isinstance(cases, list):
        fail_input(f"{path} has no 'cases' array")
    out = {}
    for case in cases:
        if not isinstance(case, dict) or not case.get("name") \
                or "median_ns" not in case:
            fail_input(f"{path} case missing name/median_ns: {case}")
        try:
            key = case_key(case)
        except (ValueError, TypeError) as e:
            fail_input(f"{path} case {case.get('name')}: {e}")
        if key in out:
            fail_input(f"{path} has duplicate case {key_label(key)}")
        out[key] = case
    return report, out


def fmt_ns(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.3g} {unit}"
    return f"{ns:.3g} ns"


def intervals_overlap(a, b):
    """[p10, p90] interval overlap; missing percentiles count as overlap
    (no spread information -> never escalate to a hard failure)."""
    lo_a, hi_a = a.get("p10_ns"), a.get("p90_ns")
    lo_b, hi_b = b.get("p10_ns"), b.get("p90_ns")
    if None in (lo_a, hi_a, lo_b, hi_b):
        return True
    return lo_a <= hi_b and lo_b <= hi_a


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="baseline BENCH_*.json")
    ap.add_argument("current", help="current BENCH_*.json")
    ap.add_argument(
        "--fail-above",
        type=float,
        default=10.0,
        metavar="PCT",
        help="median slowdown percent that fails the gate when the "
        "p10/p90 intervals also separate (default: 10)",
    )
    args = ap.parse_args()

    base_report, base = load_cases(args.baseline)
    curr_report, curr = load_cases(args.current)

    if base_report.get("quick") != curr_report.get("quick"):
        print("compare: WARNING: mixing quick and full runs; deltas are "
              "indicative only", file=sys.stderr)

    only_base = sorted(set(base) - set(curr))
    only_curr = sorted(set(curr) - set(base))
    if only_base or only_curr:
        for key in only_base:
            print(f"compare: {key_label(key)} only in baseline",
                  file=sys.stderr)
        for key in only_curr:
            print(f"compare: {key_label(key)} only in current",
                  file=sys.stderr)
        fail_input(f"{len(only_base) + len(only_curr)} case(s) unmatched")
    shared = list(base)
    if not shared:
        fail_input("no cases to compare")

    labels = {key: key_label(key) for key in shared}
    width = max(len(label) for label in labels.values())
    regressions = []
    print(f"{'case':<{width}}  {'baseline':>10}  {'current':>10}  "
          f"{'delta':>8}  spread")
    for key in shared:
        label = labels[key]
        b, c = base[key], curr[key]
        mb, mc = b["median_ns"], c["median_ns"]
        delta_pct = (mc - mb) / mb * 100.0 if mb > 0 else 0.0
        overlap = intervals_overlap(b, c)
        slower = delta_pct > args.fail_above
        flag = ""
        if slower:
            flag = " SLOWER (p10/p90 overlap)" if overlap else " REGRESSION"
            if not overlap:
                regressions.append((label, delta_pct))
        elif delta_pct < -args.fail_above and not overlap:
            flag = " improved"
        print(f"{label:<{width}}  {fmt_ns(mb):>10}  {fmt_ns(mc):>10}  "
              f"{delta_pct:>+7.1f}%  "
              f"{'overlaps' if overlap else 'separated'}{flag}")

    if regressions:
        worst = ", ".join(f"{n} {d:+.1f}%" for n, d in regressions)
        print(f"\nFAIL: {len(regressions)} case(s) regressed beyond "
              f"{args.fail_above:.0f}% with separated spreads: {worst}",
              file=sys.stderr)
        return 1
    print(f"\nOK: no case regressed beyond {args.fail_above:.0f}% "
          f"with separated spreads ({len(shared)} compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
