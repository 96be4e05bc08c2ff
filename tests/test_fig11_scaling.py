"""Fig 11 (client scaling): determinism, memory claims, registry path."""

import pytest

from repro.experiments.figures import figure_grid
from repro.experiments.registry import EXPERIMENTS, run


@pytest.fixture(scope="module")
def fig11_quick():
    return run("fig11", "quick", jobs=1)


def rows_by_series(result):
    out = {}
    for series, clients, *rest in result.rows:
        out.setdefault(series, []).append((clients, *rest))
    return out


def test_grid_reaches_64_clients(fig11_quick):
    clients = {row[1] for row in fig11_quick.rows}
    assert max(clients) >= 64
    assert {"RDMA-SRQ", "RDMA-conn", "IPoIB"} == {r[0] for r in fig11_quick.rows}


def test_quick_grid_deterministic(fig11_quick):
    again = run("fig11", "quick", jobs=1)
    assert again.rows == fig11_quick.rows


def test_parallel_sweep_bit_identical(fig11_quick):
    parallel = run("fig11", "quick", jobs=4)
    assert parallel.rows == fig11_quick.rows
    assert parallel.events == fig11_quick.events


def test_srq_memory_sublinear_per_connection_linear(fig11_quick):
    by = rows_by_series(fig11_quick)
    # recv KB/client is the last column.
    conn = {clients: row[-1] for clients, *row in by["RDMA-conn"]}
    srq = {clients: row[-1] for clients, *row in by["RDMA-SRQ"]}
    # Per-connection rings: constant per client == linear total.
    assert len(set(conn.values())) == 1
    # SRQ: per-client share shrinks as clients grow (sublinear total),
    # and the 64-client total is below the per-connection total.
    assert srq[64] < srq[1]
    assert srq[64] * 64 < conn[64] * 64


def test_rdma_beats_ipoib_at_scale(fig11_quick):
    by = rows_by_series(fig11_quick)
    # aggregate read MB/s is the first metric column after clients.
    srq = {clients: row[0] for clients, *row in by["RDMA-SRQ"]}
    ipoib = {clients: row[0] for clients, *row in by["IPoIB"]}
    assert srq[64] > ipoib[64]


def test_srq_matches_per_connection_throughput(fig11_quick):
    """Pooling receive buffers must not cost bandwidth."""
    by = rows_by_series(fig11_quick)
    srq = {clients: row[0] for clients, *row in by["RDMA-SRQ"]}
    conn = {clients: row[0] for clients, *row in by["RDMA-conn"]}
    for clients, mb_s in conn.items():
        assert srq[clients] >= 0.95 * mb_s


def test_registry_runs_fig11():
    assert "fig11" in EXPERIMENTS
    result = run("fig11", "quick", jobs=1)
    assert result.headers[0] == "series"
    assert "recv KB/client" in result.headers
    with pytest.raises(KeyError):
        run("fig99")


def test_figure_grid_exposes_fig11_points():
    grid = figure_grid("fig11", "quick")
    labels = [label for label, _ in grid]
    assert "RDMA-SRQ-c64" in labels
    _, point = grid[labels.index("RDMA-SRQ-c64")]
    assert point.cluster["nclients"] == 64
    assert point.cluster["srq"] is True
