#!/usr/bin/env python3
"""Benchmark regression gate: diff fresh BENCH_*.json against baselines.

Usage::

    python tools/bench_gate.py --fresh bench-out \
        [--baseline benchmarks/baselines] [--max-regress 15]

Compares per-figure ``events_per_sec`` from a fresh ``python -m repro
bench`` run against the committed baselines and exits nonzero when any
figure regresses by more than ``--max-regress`` percent (or when a
baselined figure is missing from the fresh run).  Faster-than-baseline
results always pass — the gate is one-sided.

Reads BENCH schema v2 (``schema_version``/``events``/``events_per_sec``)
and refuses any other shape with a ``ValueError``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"


def load_bench(path: Path) -> dict:
    """Read one BENCH_*.json (schema v2)."""
    raw = json.loads(path.read_text())
    missing = [key for key in ("schema_version", "events", "events_per_sec")
               if key not in raw]
    if missing:
        raise ValueError(f"{path}: not a BENCH schema v2 file "
                         f"(missing {', '.join(missing)})")
    return {
        "experiment": raw.get("experiment", path.stem.replace("BENCH_", "")),
        "schema_version": raw["schema_version"],
        "events": raw["events"],
        "events_per_sec": raw["events_per_sec"],
        "wall_seconds": raw.get("wall_seconds", 0.0),
        "scale": raw.get("scale", "quick"),
    }


def load_dir(directory: Path) -> dict[str, dict]:
    return {
        bench["experiment"]: bench
        for bench in (load_bench(p) for p in sorted(directory.glob("BENCH_*.json")))
    }


def compare(baseline: dict[str, dict], fresh: dict[str, dict],
            max_regress: float) -> list[str]:
    """Return a list of failure messages (empty = gate passes)."""
    failures = []
    for name, base in sorted(baseline.items()):
        if name not in fresh:
            failures.append(f"{name}: missing from fresh bench run")
            continue
        base_eps = base["events_per_sec"]
        fresh_eps = fresh[name]["events_per_sec"]
        if base_eps <= 0:
            continue
        delta_pct = 100.0 * (fresh_eps - base_eps) / base_eps
        status = "OK" if delta_pct >= -max_regress else "REGRESSION"
        print(f"{name:>6}: {base_eps:>10,} -> {fresh_eps:>10,} events/s "
              f"({delta_pct:+6.1f}%)  {status}")
        if status != "OK":
            failures.append(
                f"{name}: events/sec fell {-delta_pct:.1f}% "
                f"(> {max_regress:.0f}% allowed): "
                f"{base_eps:,} -> {fresh_eps:,}")
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fresh", required=True, type=Path,
                    help="directory with the fresh BENCH_*.json files")
    ap.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                    help=f"baseline directory (default {DEFAULT_BASELINE})")
    ap.add_argument("--max-regress", type=float, default=15.0, metavar="PCT",
                    help="allowed events/sec drop per figure, percent (default 15)")
    args = ap.parse_args(argv)

    baseline = load_dir(args.baseline)
    fresh = load_dir(args.fresh)
    if not baseline:
        print(f"bench-gate: no BENCH_*.json baselines in {args.baseline}",
              file=sys.stderr)
        return 2
    if not fresh:
        print(f"bench-gate: no BENCH_*.json files in {args.fresh}",
              file=sys.stderr)
        return 2

    failures = compare(baseline, fresh, args.max_regress)
    if failures:
        print("\nbench-gate: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nbench-gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
