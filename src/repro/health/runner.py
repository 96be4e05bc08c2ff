"""Drive the health checks against experiments and soaks.

The runner owns the only cluster-aware code in the package: it builds a
telemetry-enabled cluster, runs the requested experiment on it, derives
the few structural facts the checks need (node count, dispatcher
bound), then hands the registry to :func:`repro.health.checks.run_checks`
and folds the verdicts into a :class:`HealthReport` whose worst status
is the Nagios exit code.

Two attachment modes, both grading each cluster through
:func:`health_of_cluster`:

* ``figN`` — every point of the figure's quick/full grid, each on a
  fresh telemetry-enabled cluster (results identical to ``repro run``:
  the same :func:`~repro.experiments.sweep.run_point` executes);
* ``chaos`` — one :func:`~repro.experiments.chaos.run_chaos_soak` run,
  optionally with seeded server crash-restarts, graded after the soak's
  own invariant sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.health.checks import (
    CheckContext,
    CheckResult,
    Status,
    run_checks,
)
from repro.health.slo import SloPolicy, load_slo_file, resolve_slo

__all__ = [
    "HealthReport",
    "PointHealth",
    "health_of_cluster",
    "load_policy",
    "run_health",
]

@dataclass
class PointHealth:
    """One graded run: its label, verdicts, and the registry dump."""

    label: str
    results: list[CheckResult]
    #: ``stats_dict(cluster)`` at grading time (the JSON-sink payload).
    stats: dict = field(default_factory=dict)
    sim_us: float = 0.0

    @property
    def status(self) -> Status:
        return max((r.status for r in self.results), default=Status.OK)


@dataclass
class HealthReport:
    """All graded points of one experiment, worst status = exit code."""

    experiment: str
    scale: str
    slo: SloPolicy
    points: list[PointHealth] = field(default_factory=list)

    @property
    def status(self) -> Status:
        return max((p.status for p in self.points), default=Status.OK)

    @property
    def exit_code(self) -> int:
        return int(self.status)

    def failing(self) -> list[tuple[str, CheckResult]]:
        """(point label, result) for every non-OK verdict."""
        return [(p.label, r) for p in self.points for r in p.results
                if r.status is not Status.OK]


def health_of_cluster(cluster: Any, slo: SloPolicy,
                      label: str = "cluster") -> PointHealth:
    """Grade one already-run, telemetry-enabled cluster."""
    from repro.telemetry.nfsstat import stats_dict

    telemetry = cluster.telemetry
    if telemetry is None:
        raise ValueError(
            "health checks need telemetry; build the cluster with "
            "ClusterConfig(telemetry=True)")
    ctx = CheckContext(
        registry=telemetry.registry,
        slo=slo,
        experiment=slo.experiment,
        label=label,
        nodes=len(cluster.server_nodes) + len(cluster.client_nodes),
        queue_depth=cluster.config.server_queue_depth,
    )
    return PointHealth(
        label=label,
        results=run_checks(ctx),
        stats=stats_dict(cluster),
        sim_us=cluster.sim.now,
    )


def load_policy(slo_path: Optional[str], experiment: str) -> SloPolicy:
    """Resolve the SLO for ``experiment``: file layers over defaults."""
    if slo_path:
        return resolve_slo(load_slo_file(slo_path), experiment,
                           source=slo_path)
    return resolve_slo(None, experiment)


def _figure_points(experiment: str, scale: str, slo: SloPolicy,
                   point_index: Optional[int],
                   progress: Optional[Callable[[str], None]] = None,
                   ) -> list[PointHealth]:
    from repro.experiments.registry import telemetry_points

    points = []
    for label, cluster in telemetry_points(experiment, scale, point_index):
        ph = health_of_cluster(cluster, slo, label=label)
        points.append(ph)
        if progress:
            progress(f"{label}: {ph.status.name}")
    return points


def _chaos_point(scale: str, slo: SloPolicy, seed: int, crashes: int,
                 progress: Optional[Callable[[str], None]] = None,
                 ) -> list[PointHealth]:
    from repro.experiments.chaos import run_chaos_soak

    outcome = run_chaos_soak(scale, seed=seed, crashes=crashes,
                             telemetry=True)
    ph = health_of_cluster(outcome.cluster, slo,
                           label=f"chaos seed={seed} crashes={crashes}")
    # The soak's own invariants ride along as a tenth verdict: lost
    # acknowledged writes or duplicate non-idempotent executions are
    # CRITICAL regardless of any SLO file.
    if not outcome.completed or outcome.lost_writes \
            or outcome.duplicate_executions:
        status, message = Status.CRITICAL, "soak invariants violated"
    else:
        status, message = Status.OK, "exactly-once and durability held"
    ph.results.append(CheckResult(
        "soak", status,
        f"{message}: {outcome.verified_files} files verified, "
        f"{outcome.lost_writes} lost writes, "
        f"{outcome.duplicate_executions} duplicate executions",
        {"completed": outcome.completed,
         "verified_files": outcome.verified_files,
         "lost_writes": outcome.lost_writes,
         "duplicate_executions": outcome.duplicate_executions}))
    if progress:
        progress(f"{ph.label}: {ph.status.name}")
    return [ph]


def run_health(
    experiment: str,
    scale: str = "quick",
    slo_path: Optional[str] = None,
    point: Optional[int] = None,
    seed: int = 2007,
    crashes: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> HealthReport:
    """Run ``experiment`` with telemetry on and grade every point.

    ``experiment`` is a :data:`~repro.experiments.figures.FIGURES` name
    or ``chaos``.  ``point`` restricts a figure to one grid index.
    ``crashes`` only applies to the chaos soak.
    """
    from repro.experiments.figures import FIGURES

    slo = load_policy(slo_path, experiment)
    if experiment == "chaos":
        points = _chaos_point(scale, slo, seed, crashes, progress)
    elif experiment in FIGURES:
        points = _figure_points(experiment, scale, slo, point, progress)
    else:
        raise ValueError(
            f"unknown experiment {experiment!r}; pick one of "
            f"{', '.join(FIGURES)} or chaos")
    return HealthReport(experiment=experiment, scale=scale, slo=slo,
                        points=points)
