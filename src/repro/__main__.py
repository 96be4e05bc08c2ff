"""Command-line entry point.

::

    python -m repro list
    python -m repro run fig5 [--scale quick|full] [--jobs N]
    python -m repro attack --figure fig12 [--scale quick|full] [--jobs N]
    python -m repro check [--figure fig5] [--perturb-seed S ...] [--jobs N]
    python -m repro report [--scale quick|full] [--jobs N] [--output EXPERIMENTS.md]
    python -m repro bench [--scale quick|full] [--jobs N] [--output-dir .]
    python -m repro health --experiment fig5 [--slo slo/quick.toml] [--sink stdout|json|otel]
    python -m repro stats --figure fig5 --quick [--point N] [--json]
    python -m repro trace --figure fig5 --quick --out trace.json
    python -m repro iozone --transport rdma-rw --strategy cache --threads 8
    python -m repro oltp --strategy cache --readers 50
    python -m repro postmark --transactions 400 [--client-cache]

``--jobs N`` fans independent figure points across N worker processes;
results are bit-identical to ``--jobs 1`` (see repro.experiments.sweep).
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import PROFILES
from repro.experiments import Cluster
from repro.experiments.cluster import STRATEGIES, TRANSPORTS
from repro.experiments.figures import EXPERIMENTS, FIGURES
from repro.experiments.registry import run as run_experiment, telemetry_points
from repro.experiments.topology import config_from_spec
from repro.workloads import (
    IozoneParams,
    OltpParams,
    PostmarkParams,
    run_iozone,
    run_oltp,
    run_postmark,
)


def _add_cluster_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--transport", choices=TRANSPORTS, default="rdma-rw")
    parser.add_argument("--strategy", choices=STRATEGIES, default="dynamic")
    parser.add_argument("--profile", choices=sorted(PROFILES), default="solaris-sdr")
    parser.add_argument("--backend", choices=("tmpfs", "raid"), default="tmpfs")
    parser.add_argument("--clients", type=int, default=1)
    parser.add_argument("--seed", type=int, default=2007)


def _cluster(args) -> Cluster:
    return Cluster(config_from_spec({
        "transport": args.transport,
        "strategy": args.strategy,
        "profile": args.profile,
        "backend": args.backend,
        "nclients": args.clients,
        "seed": args.seed,
    }))


def cmd_list(args) -> int:
    print("experiments (python -m repro run <name>):")
    for name, entry in EXPERIMENTS.items():
        print(f"  {name:<10} {entry.doc}")
    print("\nworkload drivers: iozone, oltp, postmark (see --help on each)")
    return 0


def cmd_run(args) -> int:
    result = run_experiment(args.experiment, args.scale, jobs=args.jobs)
    print(result)
    chart = _chart_for(result)
    if chart:
        print(chart)
    return 0


#: BENCH_*.json schema: schema_version, events, events_per_sec, core;
#: tools/bench_gate.py reads only this version.
BENCH_SCHEMA_VERSION = 2


def _bench_profile(name: str, scale: str, jobs: int, top: int = 25) -> object:
    """Run one figure under cProfile and print the top-N hot spots."""
    import cProfile
    import pstats

    holder: dict = {}
    prof = cProfile.Profile()
    prof.enable()
    try:
        holder["result"] = run_experiment(name, scale, jobs=jobs)
    finally:
        prof.disable()
    stats = pstats.Stats(prof, stream=sys.stdout)
    for sort in ("cumulative", "tottime"):
        print(f"\n--- {name}: cProfile top {top} by {sort} ---")
        stats.sort_stats(sort).print_stats(top)
    return holder["result"]


def cmd_bench(args) -> int:
    """Benchmark the simulator itself: wall time and events/sec per figure.

    Each figure of the table writes BENCH_<name>.json to --output-dir.
    """
    import json
    import os
    import time

    from repro.sim.engine import ACTIVE_CORE

    os.makedirs(args.output_dir, exist_ok=True)
    for name in FIGURES:
        t0 = time.perf_counter()  # lint-sim: allow[wallclock] (host bench timing)
        if args.profile:
            result = _bench_profile(name, args.scale, args.jobs, top=args.profile_top)
        else:
            result = run_experiment(name, args.scale, jobs=args.jobs)
        wall = time.perf_counter() - t0  # lint-sim: allow[wallclock] (host bench timing)
        payload = {
            "schema_version": BENCH_SCHEMA_VERSION,
            "experiment": name,
            "scale": args.scale,
            "jobs": args.jobs,
            "core": ACTIVE_CORE,
            "wall_seconds": round(wall, 3),
            "events": result.events,
            "events_per_sec": round(result.events / wall) if wall else 0,
            "points": len(result.rows),
        }
        path = os.path.join(args.output_dir, f"BENCH_{name}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"{name}: {wall:6.1f}s wall  {result.events:>10,} events  "
              f"{payload['events_per_sec']:>10,} events/s  -> {path}")
    return 0


def _chart_for(result) -> str:
    """Bar-chart the figure's primary metric, grouped by series."""
    from repro.analysis.plot import series_chart

    rows = result.rows
    if not rows or not isinstance(rows[0][-1], (int, float)):
        return ""
    if isinstance(rows[0][1], (int, float)) or len(rows[0]) >= 3:
        series: dict[str, dict] = {}
        for row in rows:
            series.setdefault(str(row[0]), {})[str(row[-3] if len(row) > 3 else row[1])] = (
                float(row[2]) if len(row) > 3 else float(row[-1])
            )
        try:
            return "\n" + series_chart(series, unit="")
        except (TypeError, ValueError):
            return ""
    return ""


def cmd_check(args) -> int:
    """Correctness suite: static analyzer + sanitized + perturbed grids."""
    if args.static:
        from repro.check.static import analyze

        try:
            report = analyze(rules=args.rule or None)
        except ValueError as exc:
            print(f"repro check --static: {exc}", file=sys.stderr)
            return 2
        out = (report.render_json() if args.format == "json"
               else report.render_text())
        print(out)
        return 0 if report.ok else 1
    if args.rule or args.format != "text":
        print("--rule/--format require --static", file=sys.stderr)
        return 2
    from repro.check.runner import run_check

    report = run_check(
        figures=args.figure or None,
        perturb_seeds=tuple(args.perturb_seed or (1, 2, 3)),
        scale=args.scale,
        jobs=args.jobs,
        lint=not args.no_lint,
        progress=print,
    )
    print(report.summary())
    return 0 if report.passed else 1


def cmd_attack(args) -> int:
    """Run the adversary-campaign figure through the experiments registry."""
    result = run_experiment(args.figure, args.scale, jobs=args.jobs)
    print(result)
    return 0


def cmd_report(args) -> int:
    from repro.experiments.report import generate

    content = generate(args.scale, jobs=args.jobs)
    with open(args.output, "w") as fh:
        fh.write(content)
    print(f"wrote {args.output} ({len(content)} bytes)")
    return 0


def cmd_iozone(args) -> int:
    cluster = _cluster(args)
    result = run_iozone(cluster, IozoneParams(
        nthreads=args.threads,
        record_bytes=args.record_kb * 1024,
        ops_per_thread=args.ops,
    ))
    print(f"read  {result.read_mb_s:8.1f} MB/s   latency {result.read_latency}")
    print(f"write {result.write_mb_s:8.1f} MB/s   latency {result.write_latency}")
    print(f"client CPU {result.client_cpu_read * 100:.1f}%  "
          f"server CPU {result.server_cpu_read * 100:.1f}%")
    return 0


def cmd_oltp(args) -> int:
    cluster = _cluster(args)
    result = run_oltp(cluster, OltpParams(
        readers=args.readers, writers=args.writers,
        ops_per_thread=args.ops,
    ))
    print(f"{result.ops_per_s:.0f} ops/s, {result.client_cpu_us_per_op:.1f} "
          f"client-CPU us/op over {result.elapsed_us / 1e6:.2f}s simulated")
    return 0


def _telemetry_point(args):
    """Run the one figure point ``--point`` names with telemetry on."""
    scale = "quick" if args.quick else args.scale
    try:
        points = telemetry_points(args.figure, scale, args.point)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    return next(points)


def cmd_stats(args) -> int:
    from repro.telemetry.nfsstat import render_stats, stats_dict

    label, cluster = _telemetry_point(args)
    if args.json:
        import json

        payload = {"figure": args.figure, "point": args.point,
                   "label": label, **stats_dict(cluster)}
        print(json.dumps(payload, indent=2))
    else:
        print(f"== {args.figure} point {args.point} ({label}) ==")
        print(render_stats(cluster))
        print()
        print("see also: repro health (SLO gate), repro check (sanitizer"
              " + perturbation), repro check --static (contract analyzer)")
    return 0


def cmd_health(args) -> int:
    """Health checks + SLO gate; exit code is the worst verdict (0/1/2)."""
    from repro.health import SINKS, run_health

    report = run_health(
        args.experiment,
        scale=args.scale,
        slo_path=args.slo,
        point=args.point,
        seed=args.seed,
        crashes=args.crashes,
    )
    out = SINKS[args.sink](report)
    if not out.endswith("\n"):
        out += "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
        print(f"{args.experiment}/{args.scale}: {report.status.name} "
              f"-> {args.out}")
    else:
        sys.stdout.write(out)
    return report.exit_code


def cmd_trace(args) -> int:
    label, cluster = _telemetry_point(args)
    tracer = cluster.telemetry.tracer
    tracer.write_chrome(args.out)
    print(f"{args.figure} point {args.point} ({label}): "
          f"{len(tracer.spans)} spans, {len(tracer.instants)} instants "
          f"-> {args.out}")
    return 0


def cmd_postmark(args) -> int:
    cluster = _cluster(args)
    result = run_postmark(cluster, PostmarkParams(
        initial_files=args.files, transactions=args.transactions,
        nthreads=args.threads, use_client_cache=args.client_cache,
    ))
    print(f"{result.txns_per_s:.0f} txns/s "
          f"({result.created} created, {result.deleted} deleted)")
    print(f"latency: {result.latency}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="NFS/RDMA reproduction: experiments and workload drivers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(fn=cmd_list)

    p = sub.add_parser("run", help="run one paper experiment")
    p.add_argument("experiment", choices=sorted(EXPERIMENTS))
    p.add_argument("--scale", choices=("quick", "full"), default="quick")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the point sweep (default 1)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "check",
        help="correctness suite: lint + sanitizer + schedule perturbation")
    p.add_argument("--figure", action="append", choices=tuple(FIGURES),
                   help="restrict to one figure grid (repeatable; "
                        "default: all)")
    p.add_argument("--perturb-seed", action="append", type=int, default=None,
                   help="schedule-perturbation seed (repeatable; "
                        "default: 1 2 3)")
    p.add_argument("--scale", choices=("quick", "full"), default="quick")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--no-lint", action="store_true",
                   help="skip the static analyzer pass")
    p.add_argument("--static", action="store_true",
                   help="run only the static contract analyzer "
                        "(repro.check.static) and exit")
    p.add_argument("--rule", action="append", default=None,
                   help="with --static: restrict to one rule or pack "
                        "name (repeatable)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="with --static: output format (default text)")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "attack",
        help="adversary campaign vs the mitigation ladder (fig12)")
    p.add_argument("--figure", choices=("fig12",), default="fig12")
    p.add_argument("--scale", choices=("quick", "full"), default="quick")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    p.add_argument("--scale", choices=("quick", "full"), default="quick")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--output", default="EXPERIMENTS.md")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("bench", help="benchmark the simulator (BENCH_*.json)")
    p.add_argument("--scale", choices=("quick", "full"), default="quick")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--output-dir", default=".")
    p.add_argument("--profile", action="store_true",
                   help="run each figure under cProfile and print the "
                        "top-N hot spots (cumulative + tottime); wall "
                        "numbers then include profiler overhead")
    p.add_argument("--profile-top", type=int, default=25, metavar="N",
                   help="rows per cProfile table (default 25)")
    p.set_defaults(fn=cmd_bench)

    def _add_point_args(p):
        p.add_argument("--figure", choices=tuple(FIGURES),
                       default=next(iter(FIGURES)))
        p.add_argument("--scale", choices=("quick", "full"), default="quick")
        p.add_argument("--quick", action="store_true",
                       help="force the quick grid (alias for --scale quick)")
        p.add_argument("--point", type=int, default=0,
                       help="index into the figure's point grid (default 0)")

    p = sub.add_parser(
        "health",
        help="health checks + SLO gate; exit 0 OK / 1 WARN / 2 CRITICAL")
    p.add_argument("--experiment", choices=(*FIGURES, "chaos"),
                   default=next(iter(FIGURES)))
    p.add_argument("--scale", choices=("quick", "full"), default="quick")
    p.add_argument("--point", type=int, default=None,
                   help="grade one grid index instead of the whole figure")
    p.add_argument("--slo", default=None, metavar="FILE",
                   help="TOML/JSON SLO thresholds layered over defaults")
    p.add_argument("--sink", choices=("stdout", "json", "otel"),
                   default="stdout")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write sink output to FILE instead of stdout")
    p.add_argument("--seed", type=int, default=2007,
                   help="(chaos) soak seed")
    p.add_argument("--crashes", type=int, default=0,
                   help="(chaos) seeded server crash-restarts to inject")
    p.set_defaults(fn=cmd_health)

    p = sub.add_parser("stats",
                       help="nfsstat-style report for one figure point")
    _add_point_args(p)
    p.add_argument("--json", action="store_true",
                   help="machine-readable dump (stats_dict) instead of text")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("trace",
                       help="Chrome trace_event JSON for one figure point")
    _add_point_args(p)
    p.add_argument("--out", default="trace.json")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("iozone", help="IOzone-style bandwidth run")
    _add_cluster_args(p)
    p.add_argument("--threads", type=int, default=8)
    p.add_argument("--record-kb", type=int, default=128)
    p.add_argument("--ops", type=int, default=60)
    p.set_defaults(fn=cmd_iozone)

    p = sub.add_parser("oltp", help="FileBench OLTP run")
    _add_cluster_args(p)
    p.add_argument("--readers", type=int, default=50)
    p.add_argument("--writers", type=int, default=10)
    p.add_argument("--ops", type=int, default=5)
    p.set_defaults(fn=cmd_oltp)

    p = sub.add_parser("postmark", help="PostMark small-file run")
    _add_cluster_args(p)
    p.add_argument("--files", type=int, default=100)
    p.add_argument("--transactions", type=int, default=400)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--client-cache", action="store_true")
    p.set_defaults(fn=cmd_postmark)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
