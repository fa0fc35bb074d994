#!/usr/bin/env python3
"""Alternating A/B of the end-to-end benchmark between two checkouts.

Runs `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
(T is BENCHMARK.json's `run_seconds`) inside a parent checkout and a change
checkout, one pair of runs per seed, alternating which side runs first
(pair 0 parent first, pair 1 change first, ...) so slow drift of the host
does not favour one side. The last
stdout line of each run is its result JSON
({"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}).

Per workload and end-to-end metric it prints both sides' median and
quartiles (statistics.quantiles, n=4), the pairs each side won (ties count
for neither), and two verdicts:

  gain   the change wins at least 9 of every 10 pairs AND its median beats
         the parent's by more than the parent's interquartile range;
  bound  the change's median is worse than the parent's by no more than the
         metric's relative bound from BENCHMARK.json.

Every run must be correct, and the change may not fail a larger share of
its operations than the parent.

Usage:
    tools/bench/ab_perfbench.py --parent DIR --change DIR \\
        --workload cold_build --seeds 701-710 [--claim cold_build:build_s]

Exit status: 0 when every run is correct, no metric breaks its bound, the
failure share did not grow and every --claim passes the gain rule; 1
otherwise; 2 on a run without a result line. The script only reads the
change checkout's BENCHMARK.json and never touches either checkout's
perfbench/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

GAIN_WIN_SHARE = 0.9


def last_json_line(text: str) -> dict:
    """The result object: the last non-empty stdout line, parsed."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError("last line is not a result object")
    return result


def metric(result: dict, name: str) -> float:
    return float(result["metrics"][name]["value"])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) by statistics.quantiles(n=4); one value is all
    three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def better(a: float, b: float, direction: str) -> bool:
    """True when a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def wins(parent: list[float], change: list[float],
         direction: str) -> tuple[int, int]:
    """(change wins, parent wins) over the pairs; ties count for neither."""
    if len(parent) != len(change):
        raise ValueError("unpaired runs")
    c = sum(better(y, x, direction) for x, y in zip(parent, change))
    p = sum(better(x, y, direction) for x, y in zip(parent, change))
    return c, p


def gain_holds(parent: list[float], change: list[float],
               direction: str) -> bool:
    """The change wins >= 9/10 of the pairs and its median beats the
    parent's by more than the parent's interquartile range."""
    change_wins, _ = wins(parent, change, direction)
    if change_wins < GAIN_WIN_SHARE * len(parent):
        return False
    q1, pmed, q3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gap = pmed - cmed if direction == "lower" else cmed - pmed
    return gap > q3 - q1


def worse_fraction(parent: list[float], change: list[float],
                   direction: str) -> float:
    """How much worse the change's median is, relative to the parent's
    (negative when it is better)."""
    _, pmed, _ = quartiles(parent)
    _, cmed, _ = quartiles(change)
    if pmed == 0:
        return 0.0 if cmed == 0 else float("inf")
    diff = cmed - pmed if direction == "lower" else pmed - cmed
    return diff / abs(pmed)


def within_bound(parent: list[float], change: list[float], direction: str,
                 bound: float) -> bool:
    return worse_fraction(parent, change, direction) <= bound


def failed_share(results: list[dict]) -> float:
    attempted = sum(int(r["attempted"]) for r in results)
    failed = sum(int(r["failed"]) for r in results)
    return failed / attempted if attempted else 1.0


def load_benchmark(path: Path) -> dict:
    """BENCHMARK.json: `run_seconds` and the end-to-end metrics (name,
    unit, better, bound)."""
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def report(workload: str, parent: list[dict], change: list[dict],
           end_to_end: list[dict], claims: set[str]) -> tuple[list[str], bool]:
    """Printable lines for one workload and whether it passes."""
    ok = True
    lines = [f"== {workload}: {len(parent)} pairs"]
    for side, runs in (("parent", parent), ("change", change)):
        bad = [i for i, r in enumerate(runs)
               if not r.get("correct") or int(r.get("failed", 1)) != 0]
        if bad:
            ok = False
            lines.append(f"  {side}: runs {bad} not correct or failed ops")
    if failed_share(change) > failed_share(parent):
        ok = False
        lines.append("  change fails a larger share of operations")
    for m in end_to_end:
        name, direction = m["name"], m["better"]
        p = [metric(r, name) for r in parent]
        c = [metric(r, name) for r in change]
        pq1, pmed, pq3 = quartiles(p)
        cq1, cmed, cq3 = quartiles(c)
        cw, pw = wins(p, c, direction)
        gain = gain_holds(p, c, direction)
        bounded = within_bound(p, c, direction, float(m["bound"]))
        claimed = f"{workload}:{name}" in claims
        if not bounded or (claimed and not gain):
            ok = False
        lines.append(
            f"  {name:<22} parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}]  "
            f"change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}] {m['unit']}  "
            f"wins {cw}/{len(p)} (parent {pw})  "
            f"worse {100 * worse_fraction(p, c, direction):+.1f}% "
            f"(bound {100 * float(m['bound']):.0f}%: "
            f"{'ok' if bounded else 'BROKEN'})  "
            f"gain {'yes' if gain else 'no'}"
            + ("  [claimed]" if claimed else ""))
    return lines, ok


def parse_seeds(spec: str) -> list[int]:
    """'701-710' or '1,5,9' (ranges and lists may mix)."""
    seeds: list[int] = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    try:
        return last_json_line(proc.stdout)
    except ValueError as e:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"ab_perfbench: {checkout} {workload} seed {seed}: {e} "
              f"(exit {proc.returncode})", file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload", action="append", required=True,
                    choices=["cold_build", "live_feed"])
    ap.add_argument("--seeds", required=True,
                    help="seed list, e.g. 701-710 or 1,2,3")
    ap.add_argument("--claim", action="append", default=[],
                    help="workload:metric that must pass the gain rule")
    args = ap.parse_args(argv)

    bench = load_benchmark(args.change / "BENCHMARK.json")
    end_to_end, seconds = bench["end_to_end"], float(bench["run_seconds"])
    seeds = parse_seeds(args.seeds)
    ok = True
    for workload in args.workload:
        parent, change = [], []
        for k, seed in enumerate(seeds):
            order = [("parent", args.parent), ("change", args.change)]
            if k % 2:
                order.reverse()
            for side, checkout in order:
                r = run_once(checkout, workload, seed, seconds)
                (parent if side == "parent" else change).append(r)
                print(f"{workload} seed {seed} {side}: " + json.dumps(
                    {n: v["value"] for n, v in r["metrics"].items()}),
                    flush=True)
        lines, passed = report(workload, parent, change, end_to_end,
                               set(args.claim))
        print("\n".join(lines), flush=True)
        ok = ok and passed
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
