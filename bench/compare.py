"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py A B

``A`` (the baseline) and ``B`` are each a result file written by
``run.py --out``, or a directory of them.  Runs are grouped by workload.
For every (metric, workload) pair present on both sides, one row shows
each side's median and quartiles and a verdict:

``better`` / ``worse`` / ``same``
    judged against the metric's bound in ``BENCHMARK.json``: B is worse
    when its median is worse than A's by more than the bound; B is
    better when its median beats A's by more than A's quartile spread
    and B wins at least nine tenths of all (A run, B run) pairs;
``unresolved``
    A's own spread (quartile distance over median) is wider than the
    bound, and not every run of B beats every run of A;
``info``
    per-layer metrics, which have no bound: only the change is shown.

The ``seeds`` column compares runs made with the same seed on both
sides: ``identical`` when every such pair reads exactly the same value.
A simulated (``sim``) metric must stay identical under a change that
only speeds up the simulator.

Exit status is 1 when any end-to-end metric is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: str) -> list:
    """Every run in a result file, or in every ``*.json`` of a directory."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    runs = []
    for f in files:
        with open(f) as fh:
            runs += json.load(fh)["runs"]
    return runs


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def beats(x: float, y: float, better: str) -> bool:
    return x < y if better == "lower" else x > y


def verdict(a: list, b: list, better: str, bound) -> str:
    """The comparison rule described in the module docstring."""
    a_q1, a_med, a_q3 = quartiles(a)
    _, b_med, _ = quartiles(b)
    if bound is None:
        return "info"
    if a == b:
        return "same"
    scale = abs(a_med) or 1.0
    spread = (a_q3 - a_q1) / scale
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b_med - a_med) / scale
    if spread > bound:
        dominates = all(beats(y, x, better) for x in a for y in b)
        return "better" if dominates else "unresolved"
    if worse_by > bound:
        return "worse"
    wins = sum(beats(y, x, better) for x in a for y in b)
    if -worse_by > spread and wins >= 0.9 * len(a) * len(b):
        return "better"
    return "same"


def same_seeds(a_runs: list, b_runs: list, metric: str) -> str:
    a = {r["seed"]: r["metrics"][metric]["value"] for r in a_runs}
    b = {r["seed"]: r["metrics"][metric]["value"] for r in b_runs}
    common = sorted(set(a) & set(b))
    if not common:
        return "-"
    return ("identical" if all(a[s] == b[s] for s in common)
            else "changed")


def compare(a_runs: list, b_runs: list, spec: dict) -> list:
    """One row per (metric, workload) present on both sides."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        a_w = [r for r in a_runs if r["workload"] == workload]
        b_w = [r for r in b_runs if r["workload"] == workload]
        if not a_w or not b_w:
            continue
        for name, m in declared.items():
            if not all(name in r["metrics"] for r in a_w + b_w):
                continue
            a = [r["metrics"][name]["value"] for r in a_w]
            b = [r["metrics"][name]["value"] for r in b_w]
            rows.append({
                "metric": name, "workload": workload, "unit": m["unit"],
                "a": quartiles(a), "b": quartiles(b),
                "bound": m.get("bound"),
                "verdict": verdict(a, b, m["better"], m.get("bound")),
                "seeds": same_seeds(a_w, b_w, name),
            })
    return rows


def render(rows: list) -> str:
    def q(t):
        return f"{t[1]:.6g} [{t[0]:.6g}, {t[2]:.6g}]"

    lines = [f"{'metric':30s} {'workload':16s} {'A median [q1, q3]':36s} "
             f"{'B median [q1, q3]':36s} {'change':>8s} {'bound':>6s} "
             f"{'verdict':10s} seeds"]
    for r in rows:
        base = r["a"][1]
        change = (f"{(r['b'][1] - base) / abs(base):+.1%}" if base
                  else ("+0.0%" if r["b"][1] == base else "n/a"))
        bound = f"{r['bound']:.0%}" if r["bound"] is not None else "-"
        lines.append(f"{r['metric']:30s} {r['workload']:16s} {q(r['a']):36s} "
                     f"{q(r['b']):36s} {change:>8s} {bound:>6s} "
                     f"{r['verdict']:10s} {r['seeds']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two sets of benchmark runs.")
    parser.add_argument("a", help="baseline result file or directory")
    parser.add_argument("b", help="candidate result file or directory")
    args = parser.parse_args(argv)
    with open(SPEC) as fh:
        spec = json.load(fh)
    rows = compare(load_runs(args.a), load_runs(args.b), spec)
    print(render(rows))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
