"""Fig 10: multi-client IOzone Read — RDMA vs IPoIB vs GigE over RAID."""

import pytest

from repro.experiments.figures import FIG10_CACHE_BIG, FIG10_CACHE_SMALL
from repro.experiments.registry import run


def _series(result, transport):
    return {row[2]: row[3] for row in result.rows if row[0] == transport}


def test_fig10a_small_server_cache(benchmark, bench_scale, record_result):
    """Fig 10(a): server cache = 4x one client file (the paper's 4 GB)."""
    result = benchmark.pedantic(
        run, args=("fig10", bench_scale), kwargs={"cache_bytes": FIG10_CACHE_SMALL},
        rounds=1, iterations=1,
    )
    record_result(result)
    rdma = _series(result, "RDMA")
    ipoib = _series(result, "IPoIB")
    gige = _series(result, "GigE")
    # RDMA peaks near the paper's 883 MB/s in the cache-resident regime...
    assert max(rdma.values()) >= 800
    # ...then falls toward spindle bandwidth once the aggregate working
    # set spills the cache (paper: "limited by the back-end").
    assert rdma[max(rdma)] < 0.5 * max(rdma.values())
    # IPoIB is host-cost-bound far below RDMA in the cached regime.
    assert max(ipoib.values()) < 0.55 * max(rdma.values())
    # GigE is wire-bound around ~107 MB/s.
    assert 85 <= max(gige.values()) <= 125


def test_fig10b_large_server_cache(benchmark, bench_scale, record_result):
    """Fig 10(b): server cache = 8x one client file (the paper's 8 GB)."""
    result = benchmark.pedantic(
        run, args=("fig10", bench_scale), kwargs={"cache_bytes": FIG10_CACHE_BIG},
        rounds=1, iterations=1,
    )
    record_result(result)
    rdma = _series(result, "RDMA")
    ipoib = _series(result, "IPoIB")
    # With the bigger cache, RDMA sustains high aggregate bandwidth out
    # to the largest client counts (paper: >900 MB/s through 7 clients).
    clients = sorted(rdma)
    assert rdma[clients[-1]] >= 800
    # IPoIB saturates near the paper's ~360 MB/s regardless of clients.
    assert 280 <= max(ipoib.values()) <= 440
