"""The repository benchmark: five closed-loop NFS/RDMA workloads.

    python3 bench/run.py [--workload NAME] [--seed S] [--seconds T]
                         [--trace [0|1]] [--out FILE]

Each selected workload (all five by default, one after another) runs
in a fresh single-threaded worker process (``worker.py``) on the
compiled simulation core.  The command prints every metric by name with
its unit, and its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace``
reports the per-layer metrics instead of the end-to-end ones.
``BENCHMARK.json`` at the repository root holds every metric's name,
unit, direction and bound.

Exit status: 0 when every workload ran and passed its correctness
checks; 1 when a check failed; 2 when a worker could not run at all.
In the last case no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SPEC = REPO / "BENCHMARK.json"
WORKER = Path(__file__).resolve().with_name("worker.py")
#: a worker still running after this long is killed (runs are capped
#: at 180 s).
WORKER_TIMEOUT_S = 170


def load_spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


def declared(spec: dict, trace: int) -> dict:
    """``{metric name: entry}`` for the metrics a run must report."""
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def run_worker(workload: str, seed: int, seconds: float, trace: int):
    """Run one workload in a fresh process; its result dict, or None."""
    env = dict(
        os.environ,
        REPRO_SIM_CORE="c",
        # The compiled core is built next to its source; a read-only
        # checkout falls back to this cache, which stays inside it.
        XDG_CACHE_HOME=str(REPO / ".bench_build" / "cache"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=REPO, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run: {workload} did not finish in {WORKER_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run: {workload} worker exited with {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def attach_units(result: dict, metrics: dict) -> None:
    """Label each value with its declared unit; flag undeclared names."""
    values = result["metrics"]
    for name in sorted(set(values) - set(metrics)):
        result["violations"].append(f"metric {name} is not in BENCHMARK.json")
    for name in sorted(set(metrics) - set(values)):
        result["violations"].append(f"metric {name} was not reported")
    result["metrics"] = {name: {"value": values[name], "unit": m["unit"]}
                         for name, m in metrics.items() if name in values}
    result["correct"] = not result["violations"]


def report(result: dict, metrics: dict) -> None:
    detail = result["detail"]
    status = "correct" if result["correct"] else "INCORRECT"
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"{detail['rounds']} rounds  {status} ==")
    for name, entry in result["metrics"].items():
        spec = metrics[name]
        bound = (f"  bound {spec['bound']:.0%}" if "bound" in spec else "")
        print(f"  {name:34s} {entry['value']:>16.6g} {entry['unit']:8s}"
              f" {spec['better']} is better{bound}")
    samples = detail["samples"]
    print(f"  samples per round: {samples['read']} reads, "
          f"{samples['write']} writes; {result['attempted']} ops attempted, "
          f"{result['failed']} failed, {detail['checked']} reads "
          f"content-checked")
    final = detail["final"]
    print(f"  server stags exposed {final['stags_exposed']}, "
          f"registered receive buffers {final['server_registered_kb']:g} KB")
    for line in result["violations"]:
        print(f"  violation: {line}")


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.")
    parser.add_argument("--workload", choices=names,
                        help="run only this workload (default: all)")
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long each workload measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report the per-layer metrics from a traced, "
                             "profiled extra round")
    parser.add_argument("--out", help="also write the full results here")
    args = parser.parse_args(argv)

    metrics = declared(spec, args.trace)
    results = []
    for name in [args.workload] if args.workload else names:
        result = run_worker(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 2
        attach_units(result, metrics)
        report(result, metrics)
        results.append(result)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"runs": results}, fh, indent=1)
            fh.write("\n")
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": (results[0]["metrics"] if args.workload else
                    {r["workload"]: r["metrics"] for r in results}),
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
