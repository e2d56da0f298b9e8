"""Compare two sets of benchmark records.

  python3 bench/run.py compare BEFORE.jsonl AFTER.jsonl

Each file holds the JSON lines that `run.py --out FILE` appends, one per
run.  For every workload and every end-to-end metric of BENCHMARK.json
this prints the quartiles and median of both sides, the spread (the
distance between the quartiles as a share of the median) and a verdict:

  regression   the after-median is worse than the before-median by more
               than the metric's bound, however wide the spreads;
  unresolved   not a regression, but either side's quartile spread, as a
               share of its median, is wider than the bound, and not every
               after-run beats every before-run;
  ok           neither of these.

Runs of the same workload and seed whose output digests differ are
flagged as "output changed": a speed-up only counts when the output stays
the same.  The exit code is 1 if anything regressed or changed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as the benchmark's
    acceptance rule takes them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(before: list[float], after: list[float], bound: float,
            lower_is_better: bool) -> tuple[str, float]:
    """(verdict, relative change of the median, positive = worse)."""
    b, a = statistics.median(before), statistics.median(after)
    worse = (a - b) / b if lower_is_better else (b - a) / b
    if lower_is_better:
        all_better = max(after) < min(before)
    else:
        all_better = min(after) > max(before)
    if worse > bound:
        return "regression", worse
    if max(spread(before), spread(after)) > bound and not all_better:
        return "unresolved", worse
    return "ok", worse


def _by_workload(records: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = defaultdict(list)
    for r in records:
        out[r["workload"]].append(r)
    return out


def compare(before: list[dict], after: list[dict],
            metrics: list[dict]) -> tuple[list[str], bool]:
    """Report lines, and whether anything regressed or changed output."""
    lines = []
    bad = False
    plain_b = _by_workload([r for r in before if r["trace"] == 0])
    plain_a = _by_workload([r for r in after if r["trace"] == 0])
    digests_b = {(r["workload"], r["seed"]): r["digest"] for r in before}
    head = (f"{'workload':20s} {'metric':12s} "
            f"{'before q1/med/q3 (spread)':>38s} "
            f"{'after q1/med/q3 (spread)':>38s} {'change':>8s}  verdict")
    lines.append(head)
    for wl in sorted(set(plain_b) | set(plain_a)):
        rb, ra = plain_b.get(wl, []), plain_a.get(wl, [])
        if not rb or not ra:
            lines.append(f"{wl:20s} missing on the "
                         f"{'before' if not rb else 'after'} side")
            bad = True
            continue
        for m in metrics:
            name = m["name"]
            vb = [r["metrics"][name] for r in rb]
            va = [r["metrics"][name] for r in ra]
            v, worse = verdict(vb, va, m["bound"], m["better"] == "lower")
            bad |= v == "regression"
            fb = "/".join(f"{x:.4g}" for x in quartiles(vb)) + \
                f" ({100 * spread(vb):.1f}%)"
            fa = "/".join(f"{x:.4g}" for x in quartiles(va)) + \
                f" ({100 * spread(va):.1f}%)"
            lines.append(f"{wl:20s} {name:12s} {fb:>38s} {fa:>38s} "
                         f"{100 * worse:+7.1f}%  {v} (bound "
                         f"{100 * m['bound']:.0f}%, {len(vb)} vs {len(va)} "
                         f"runs)")
        changed = sorted({r["seed"] for r in after
                          if r["workload"] == wl
                          and digests_b.get((wl, r["seed"]),
                                            r["digest"]) != r["digest"]})
        shared = {r["seed"] for r in after if r["workload"] == wl
                  and (wl, r["seed"]) in digests_b}
        if changed:
            bad = True
            lines.append(f"{wl:20s} {'digest':12s} output changed on seeds "
                         f"{changed}")
        else:
            lines.append(f"{wl:20s} {'digest':12s} same on {len(shared)} "
                         f"shared seeds")
    return lines, bad


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare BEFORE.jsonl AFTER.jsonl",
              file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    lines, bad = compare(load(argv[0]), load(argv[1]), metrics)
    print("\n".join(lines))
    return 1 if bad else 0
