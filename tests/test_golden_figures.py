"""Golden-equivalence tests for the zero-copy / sparse-store refactor.

The JSON files under ``tests/golden/`` were captured from the seed
implementation (real-bytes data plane, bytearray inodes) *before* the
zero-copy refactor landed.  These tests re-run the same grid of
workload points through the current code and assert that every
simulated metric — elapsed microseconds, bandwidth, CPU utilization,
operation counts — is bit-identical.  The data plane may move payload
descriptors instead of bytes, but simulated time must not move by a
nanosecond.

Regenerate (only when deliberately changing simulated behaviour)::

    PYTHONPATH=src python -m tests.test_golden_figures --capture

``test_full_figure_tables`` re-runs the complete quick-scale fig 5-13
tables (a few minutes of CPU); it is skipped unless
``REPRO_GOLDEN_FULL=1`` so the tier-1 suite stays fast.  The small grid
below covers every transport (RR, RW, IPoIB, GigE), every registration
strategy, both backends, multi-client, OLTP, PostMark and the security
audit in a few seconds.
"""

from __future__ import annotations

import json
import os
import pathlib

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: The equivalence grid.  Every entry is picklable/JSON-able so the
#: capture script, this test, and the parallel-sweep equivalence test
#: can all share it verbatim.
GRID = [
    {"name": "rr-dyn-128k-t1", "kind": "iozone",
     "cluster": {"transport": "rdma-rr", "strategy": "dynamic", "profile": "solaris-sdr"},
     "params": {"nthreads": 1, "record_bytes": 128 * 1024, "ops_per_thread": 10}},
    {"name": "rr-dyn-1m-t2", "kind": "iozone",
     "cluster": {"transport": "rdma-rr", "strategy": "dynamic", "profile": "solaris-sdr"},
     "params": {"nthreads": 2, "record_bytes": 1 << 20, "ops_per_thread": 8}},
    {"name": "rw-dyn-128k-t2", "kind": "iozone",
     "cluster": {"transport": "rdma-rw", "strategy": "dynamic", "profile": "solaris-sdr"},
     "params": {"nthreads": 2, "record_bytes": 128 * 1024, "ops_per_thread": 10}},
    {"name": "rw-dyn-1m-t1", "kind": "iozone",
     "cluster": {"transport": "rdma-rw", "strategy": "dynamic", "profile": "solaris-sdr"},
     "params": {"nthreads": 1, "record_bytes": 1 << 20, "ops_per_thread": 8}},
    {"name": "rw-fmr-128k-t2", "kind": "iozone",
     "cluster": {"transport": "rdma-rw", "strategy": "fmr", "profile": "solaris-sdr"},
     "params": {"nthreads": 2, "record_bytes": 128 * 1024, "ops_per_thread": 10}},
    {"name": "rw-cache-128k-t2", "kind": "iozone",
     "cluster": {"transport": "rdma-rw", "strategy": "cache", "profile": "solaris-sdr"},
     "params": {"nthreads": 2, "record_bytes": 128 * 1024, "ops_per_thread": 10}},
    {"name": "rw-phys-128k-t1", "kind": "iozone",
     "cluster": {"transport": "rdma-rw", "strategy": "all-physical", "profile": "linux-sdr"},
     "params": {"nthreads": 1, "record_bytes": 128 * 1024, "ops_per_thread": 10}},
    {"name": "ipoib-128k-t1", "kind": "iozone",
     "cluster": {"transport": "tcp-ipoib", "strategy": "dynamic", "profile": "linux-sdr"},
     "params": {"nthreads": 1, "record_bytes": 128 * 1024, "ops_per_thread": 10}},
    {"name": "gige-128k-t1", "kind": "iozone",
     "cluster": {"transport": "tcp-gige", "strategy": "dynamic", "profile": "linux-ddr-raid"},
     "params": {"nthreads": 1, "record_bytes": 128 * 1024, "ops_per_thread": 6}},
    {"name": "raid-2client", "kind": "iozone",
     "cluster": {"transport": "rdma-rw", "strategy": "all-physical",
                 "profile": "linux-ddr-raid", "backend": "raid",
                 "cache_bytes": 16 << 20, "nclients": 2},
     "params": {"nthreads": 1, "record_bytes": 1 << 20,
                "file_bytes": 8 << 20, "ops_per_thread": None}},
    {"name": "rw-buffered-stable", "kind": "iozone",
     "cluster": {"transport": "rdma-rw", "strategy": "dynamic", "profile": "solaris-sdr"},
     "params": {"nthreads": 1, "record_bytes": 128 * 1024, "ops_per_thread": 8,
                "direct_io": False, "stable_writes": True}},
    {"name": "oltp-cache", "kind": "oltp",
     "cluster": {"transport": "rdma-rw", "strategy": "cache", "profile": "solaris-sdr"},
     "params": {"readers": 6, "writers": 2, "log_writers": 1,
                "datafile_bytes": 8 << 20, "ops_per_thread": 3}},
    {"name": "oltp-ipoib", "kind": "oltp",
     "cluster": {"transport": "tcp-ipoib", "strategy": "dynamic", "profile": "linux-sdr"},
     "params": {"readers": 4, "writers": 2, "log_writers": 1,
                "datafile_bytes": 4 << 20, "ops_per_thread": 2}},
    {"name": "postmark-rw", "kind": "postmark",
     "cluster": {"transport": "rdma-rw", "strategy": "dynamic", "profile": "solaris-sdr"},
     "params": {"initial_files": 40, "transactions": 120, "nthreads": 2}},
    {"name": "postmark-ipoib-cache", "kind": "postmark",
     "cluster": {"transport": "tcp-ipoib", "strategy": "dynamic", "profile": "solaris-sdr"},
     "params": {"initial_files": 30, "transactions": 80, "nthreads": 2,
                "use_client_cache": True}},
    {"name": "security-rr", "kind": "security",
     "cluster": {"transport": "rdma-rr", "strategy": "dynamic", "profile": "solaris-sdr"},
     "params": {}},
    {"name": "security-rw", "kind": "security",
     "cluster": {"transport": "rdma-rw", "strategy": "dynamic", "profile": "solaris-sdr"},
     "params": {}},
]


#: Every figure whose quick table is part of the behaviour contract.
FIGURES = ("fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
           "fig12", "fig13")


def _profiles():
    from repro.analysis import LINUX_DDR_RAID, LINUX_SDR, SOLARIS_SDR
    return {p.name: p for p in (SOLARIS_SDR, LINUX_SDR, LINUX_DDR_RAID)}


def _build_cluster(spec):
    from repro.experiments.cluster import Cluster, ClusterConfig
    kwargs = dict(spec["cluster"])
    kwargs["profile"] = _profiles()[kwargs["profile"]]
    return Cluster(ClusterConfig(**kwargs))


def run_point(spec) -> dict:
    """Run one grid point and return its simulated metrics as a dict."""
    cluster = _build_cluster(spec)
    kind = spec["kind"]
    if kind == "iozone":
        from repro.workloads import IozoneParams, run_iozone
        r = run_iozone(cluster, IozoneParams(**spec["params"]))
        return {
            "write_mb_s": r.write_mb_s, "read_mb_s": r.read_mb_s,
            "write_elapsed_us": r.write_elapsed_us,
            "read_elapsed_us": r.read_elapsed_us,
            "bytes_per_phase": r.bytes_per_phase,
            "client_cpu_read": r.client_cpu_read,
            "client_cpu_write": r.client_cpu_write,
            "server_cpu_read": r.server_cpu_read,
        }
    if kind == "oltp":
        from repro.workloads import OltpParams, run_oltp
        r = run_oltp(cluster, OltpParams(**spec["params"]))
        return {
            "ops_total": r.ops_total, "elapsed_us": r.elapsed_us,
            "ops_per_s": r.ops_per_s,
            "client_cpu_us_per_op": r.client_cpu_us_per_op,
            "bytes_read": r.bytes_read, "bytes_written": r.bytes_written,
        }
    if kind == "postmark":
        from repro.workloads import PostmarkParams, run_postmark
        r = run_postmark(cluster, PostmarkParams(**spec["params"]))
        return {
            "transactions": r.transactions, "elapsed_us": r.elapsed_us,
            "txns_per_s": r.txns_per_s, "created": r.created,
            "deleted": r.deleted, "bytes_read": r.bytes_read,
            "bytes_written": r.bytes_written,
        }
    if kind == "security":
        from repro.security import audit_server_exposure
        from repro.workloads import IozoneParams, run_iozone
        run_iozone(cluster, IozoneParams(nthreads=4, ops_per_thread=20))
        cluster.sim.run(until=cluster.sim.now + 100_000.0)
        report = audit_server_exposure(cluster.server_node,
                                       cluster.server_transports)
        return {k: report[k] for k in ("stags_exposed_ever", "exposed_regions_now",
                                       "pending_done_ops", "protection_faults")}
    raise ValueError(kind)


def _figure_tables() -> dict:
    from repro.experiments.registry import run
    out = {}
    for fig in FIGURES:
        result = run(fig, "quick")
        out[fig] = {"headers": result.headers, "rows": result.rows}
    return out


# ---------------------------------------------------------------- tests
def _load(name: str):
    path = GOLDEN_DIR / name
    if not path.exists():
        import pytest
        pytest.skip(f"golden file {name} not captured")
    with open(path) as fh:
        return json.load(fh)


def test_golden_grid_points():
    golden = _load("seed_points.json")
    for spec in GRID:
        got = run_point(spec)
        want = golden[spec["name"]]
        assert got == want, (
            f"point {spec['name']} diverged from seed capture:\n"
            f"  got  {got}\n  want {want}"
        )


def test_full_figure_tables():
    if os.environ.get("REPRO_GOLDEN_FULL") != "1":
        import pytest
        pytest.skip("set REPRO_GOLDEN_FULL=1 to re-run full fig5-13 tables")
    golden = _load("seed_figures.json")
    got = _figure_tables()
    assert sorted(golden) == sorted(FIGURES)
    for fig, want in golden.items():
        assert got[fig]["headers"] == want["headers"]
        assert got[fig]["rows"] == want["rows"], f"{fig} table diverged"


# ---------------------------------------------------------------- capture
def _capture(full: bool) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    points = {}
    for spec in GRID:
        points[spec["name"]] = run_point(spec)
        print(f"captured {spec['name']}")
    with open(GOLDEN_DIR / "seed_points.json", "w") as fh:
        json.dump(points, fh, indent=1, sort_keys=True)
    print(f"wrote {GOLDEN_DIR / 'seed_points.json'}")
    if full:
        tables = _figure_tables()
        with open(GOLDEN_DIR / "seed_figures.json", "w") as fh:
            json.dump(tables, fh, indent=1, sort_keys=True)
        print(f"wrote {GOLDEN_DIR / 'seed_figures.json'}")


if __name__ == "__main__":
    import sys
    _capture(full="--full" in sys.argv)
