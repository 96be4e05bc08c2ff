"""Parallel experiment sweeps over independent figure points.

Every figure in the paper's evaluation is a grid of *independent*
simulations: each point builds a fresh :class:`Cluster` from a fixed
seed and runs one workload, so no state crosses points.  That makes the
grid embarrassingly parallel — this module fans the points out across a
``ProcessPoolExecutor`` while guaranteeing results **bit-identical** to
the serial order:

* each point is a picklable :class:`Point` spec (profiles ride by name,
  not object identity) executed by the module-level :func:`run_point`;
* the per-point seed is carried in the spec itself (the cluster default
  or an explicit override), never derived from worker identity;
* ``pool.map`` preserves submission order, so row assembly is the same
  with ``jobs=8`` as with ``jobs=1``.

Process-global counters (RPC xids) differ between serial and parallel
runs, but they are fixed-width header fields — they never change a
message size or a simulated timestamp.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from repro.experiments.cluster import Cluster
from repro.experiments.topology import config_from_spec

__all__ = ["Point", "run_point", "sweep"]


@dataclass(frozen=True)
class Point:
    """One independent simulation: cluster kwargs + workload kwargs."""

    kind: str                         # "iozone" | "oltp" | "security" | "attack"
    cluster: dict = field(default_factory=dict)  # a config_from_spec spec
    params: dict = field(default_factory=dict)   # workload parameter kwargs


def run_point(point: Point, cluster=None) -> dict:
    """Execute one point; returns plain-data metrics (picklable).

    Always includes ``events`` (simulator events stepped) and
    ``sim_us`` (simulated time covered) so callers can report the
    simulator's own throughput.  ``cluster`` lets a caller supply a
    pre-built cluster (e.g. one with telemetry enabled) and inspect it
    after the run; by default each point builds its own.
    """
    if cluster is None:
        cluster = Cluster(config_from_spec(point.cluster))
    if point.kind == "iozone":
        from repro.workloads import IozoneParams, run_iozone

        r = run_iozone(cluster, IozoneParams(**point.params))
        out = {
            "read_mb_s": r.read_mb_s,
            "write_mb_s": r.write_mb_s,
            "write_elapsed_us": r.write_elapsed_us,
            "read_elapsed_us": r.read_elapsed_us,
            "bytes_per_phase": r.bytes_per_phase,
            "client_cpu_read": r.client_cpu_read,
            "client_cpu_write": r.client_cpu_write,
            "server_cpu_read": r.server_cpu_read,
            "read_p99_us": r.read_latency.p99,
            # Fig 11's memory axis: bytes of registered receive buffers
            # the server holds for this client population.
            "recv_registered_bytes": cluster.server_recv_buffer_bytes(),
            # Fig 13's connection axis: live server-side connections
            # (each one costs QP context on both ends).
            "qp_total": cluster.qp_count(),
        }
    elif point.kind == "oltp":
        from repro.workloads import OltpParams, run_oltp

        r = run_oltp(cluster, OltpParams(**point.params))
        out = {
            "ops_total": r.ops_total,
            "elapsed_us": r.elapsed_us,
            "ops_per_s": r.ops_per_s,
            "client_cpu_us_per_op": r.client_cpu_us_per_op,
            "bytes_read": r.bytes_read,
            "bytes_written": r.bytes_written,
        }
    elif point.kind == "attack":
        from repro.security.campaign import CampaignParams, run_campaign

        # run_campaign captures its metrics before draining the
        # malicious connections, so the dict is already teardown-safe.
        out = run_campaign(cluster, CampaignParams(**point.params)).as_dict()
    elif point.kind == "security":
        from repro.security import audit_server_exposure
        from repro.workloads import IozoneParams, run_iozone

        run_iozone(cluster, IozoneParams(**point.params))
        cluster.sim.run(until=cluster.sim.now + 100_000.0)
        report = audit_server_exposure(cluster.server_nodes,
                                       cluster.server_transports)
        out = {
            "stags_exposed_ever": report["stags_exposed_ever"],
            "exposed_regions_now": report["exposed_regions_now"],
            "pending_done_ops": report["pending_done_ops"],
            "protection_faults": report["protection_faults"],
        }
    else:
        raise ValueError(f"unknown point kind {point.kind!r}")
    out["events"] = cluster.sim.steps
    out["sim_us"] = cluster.sim.now
    san = cluster.sim.sanitizer
    if san is not None:
        # Leak audit AFTER the metrics are captured: draining in-flight
        # DONEs moves sim time but can no longer change the result dict,
        # so sanitized runs stay bit-identical to baseline.
        cluster.sim.run(until=cluster.sim.now + 1_000_000.0)
        san.check_teardown(cluster)
    return out


def sweep(points: list[Point], jobs: int = 1,
          timeout: Optional[float] = None) -> list[dict]:
    """Run every point; results in submission order.

    ``jobs <= 1`` runs inline (no pool, no pickling).  Workers use the
    spawn start method so each point sees a pristine interpreter — the
    same conditions as a standalone serial run.
    """
    if jobs <= 1 or len(points) <= 1:
        return [run_point(p) for p in points]
    import multiprocessing as mp

    ctx = mp.get_context("spawn")
    with ProcessPoolExecutor(max_workers=min(jobs, len(points)),
                             mp_context=ctx) as pool:
        return list(pool.map(run_point, points, timeout=timeout))
