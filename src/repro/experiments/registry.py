"""Run the experiments of :mod:`repro.experiments.figures` by name.

The CLI (and any embedding code) runs experiments through :func:`run`,
and per-point tooling re-runs figure points through
:func:`telemetry_points`; adding an experiment is one table entry in
:data:`~repro.experiments.figures.EXPERIMENTS`, not dispatch code here
or in ``__main__``.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.experiments.cluster import Cluster
from repro.experiments.figures import EXPERIMENTS, ExperimentResult, figure_grid
from repro.experiments.sweep import run_point, sweep
from repro.experiments.topology import config_from_spec

__all__ = ["EXPERIMENTS", "run", "telemetry_points"]


def run(name: str, scale: str = "quick", jobs: int = 1, **opts) -> ExperimentResult:
    """Run one experiment by name — the single public entry point.

    ``opts`` pass through to the entry's grid (e.g. ``cache_bytes`` for
    fig10); ``jobs > 1`` fans the grid across worker processes with
    bit-identical results.  Unknown names raise ``KeyError`` listing the
    table.
    """
    try:
        entry = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    if entry.measure is not None:
        rows, note = entry.measure(scale, **opts)
        events = 0
    else:
        grid = entry.grid(scale, **opts)
        results = sweep([point for _, _, point in grid], jobs)
        rows = [entry.row(keys, r) for (_, keys, _), r in zip(grid, results)]
        note = ""
        events = sum(r["events"] for r in results)
    return ExperimentResult(
        experiment=entry.title,
        headers=list(entry.headers),
        rows=rows,
        paper_reference=entry.paper_reference + note,
        events=events,
    )


def telemetry_points(name: str, scale: str = "quick",
                     index: Optional[int] = None) -> Iterator[tuple]:
    """Run a figure's points, each on a fresh telemetry-enabled cluster.

    The returned iterator runs one point per step and yields ``(label,
    cluster)``, in grid order; ``index`` restricts the figure to one
    grid point, and a bad name or index raises ``ValueError`` here,
    before anything runs.  Metrics are identical to ``repro run``: the
    same :func:`~repro.experiments.sweep.run_point` executes.
    """
    grid = figure_grid(name, scale)
    if index is not None:
        if not 0 <= index < len(grid):
            raise ValueError(
                f"--point must be in [0, {len(grid)}) for {name}/{scale}")
        grid = [grid[index]]
    return ((label, _run_with_telemetry(point)) for label, point in grid)


def _run_with_telemetry(point) -> Cluster:
    cluster = Cluster(config_from_spec({**point.cluster, "telemetry": True}))
    run_point(point, cluster=cluster)
    return cluster
