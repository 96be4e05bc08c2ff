"""Fig 13 (mount scaling): the QP-mux and sharding acceptance claims.

One quick grid run backs every assertion; rerun determinism and
job-count invariance are covered by ``repro check --figure fig13``.
"""

import math

import pytest

from repro.experiments.registry import EXPERIMENTS, run

HOSTS = 4  # fig13's client_hosts

# row layout: series, mounts, aggregate MB/s, read p99 us, QPs, recv KB
MBS, P99, QPS, KB = 2, 3, 4, 5


@pytest.fixture(scope="module")
def fig13_quick():
    return run("fig13", "quick", jobs=4)


def by_series(result):
    out = {}
    for row in result.rows:
        out.setdefault(row[0], {})[row[1]] = row
    return out


def test_grid_shape(fig13_quick):
    by = by_series(fig13_quick)
    assert set(by) == {"per-conn", "muxed", "muxed+sharded"}
    for series in by.values():
        assert set(series) == {1, 10, 100, 1000}
    assert "fig13" in EXPERIMENTS


def test_per_connection_cost_is_linear(fig13_quick):
    per_conn = by_series(fig13_quick)["per-conn"]
    for mounts, row in per_conn.items():
        assert row[QPS] == mounts
        assert row[KB] == pytest.approx(8.0 * mounts)


def test_muxed_cost_is_sublinear(fig13_quick):
    """QPs <= 2*sqrt(N) + hosts, registered memory collapsed."""
    by = by_series(fig13_quick)
    for series in ("muxed", "muxed+sharded"):
        for mounts, row in by[series].items():
            assert row[QPS] <= 2 * math.isqrt(mounts) + HOSTS
    assert by["muxed"][1000][KB] < by["per-conn"][1000][KB] / 4
    assert by["muxed"][1000][QPS] < by["per-conn"][1000][QPS] / 4


def test_mux_bandwidth_within_10pct_at_low_mount_counts(fig13_quick):
    """Lane framing and per-lane credit slices cost ~nothing unloaded."""
    by = by_series(fig13_quick)
    for mounts in (1, 10):
        base = by["per-conn"][mounts][MBS]
        assert by["muxed"][mounts][MBS] >= 0.9 * base


def test_sharding_lifts_saturated_throughput_and_tail(fig13_quick):
    by = by_series(fig13_quick)
    base = by["per-conn"][1000]
    sharded = by["muxed+sharded"][1000]
    assert sharded[MBS] > 2 * base[MBS]   # 4 shards: measured ~4.0x
    assert sharded[P99] < base[P99] / 2   # measured 42.8ms vs 167ms
