"""The experiment table: pinned point labels, and every CLI command's
experiment choices read from that one table."""

import pytest

from repro import __main__ as cli
from repro.analysis import LINUX_DDR_RAID, SOLARIS_SDR
from repro.experiments.cluster import ClusterConfig
from repro.experiments.figures import (
    EXPERIMENTS,
    FIGURES,
    ExperimentResult,
    figure_grid,
)
from repro.experiments.topology import TopologyConfig, config_from_spec

#: Quick-scale point labels per figure, in grid order.  ``--point N`` in
#: ``stats``, ``trace`` and ``health`` indexes these lists.
QUICK_LABELS = {
    "fig5": [
        "RR-128K-t1", "RR-128K-t2", "RR-128K-t4", "RR-128K-t8",
        "RW-128K-t1", "RW-128K-t2", "RW-128K-t4", "RW-128K-t8",
        "RR-1024K-t1", "RR-1024K-t2", "RR-1024K-t4", "RR-1024K-t8",
        "RW-1024K-t1", "RW-1024K-t2", "RW-1024K-t4", "RW-1024K-t8",
    ],
    "fig6": [
        "RR-128K-t1", "RR-128K-t2", "RR-128K-t4", "RR-128K-t8",
        "RW-128K-t1", "RW-128K-t2", "RW-128K-t4", "RW-128K-t8",
        "RR-1024K-t1", "RR-1024K-t2", "RR-1024K-t4", "RR-1024K-t8",
        "RW-1024K-t1", "RW-1024K-t2", "RW-1024K-t4", "RW-1024K-t8",
    ],
    "fig7": [
        "RW-Register-t1", "RW-Register-t2", "RW-Register-t4",
        "RW-Register-t8", "RW-FMR-t1", "RW-FMR-t2", "RW-FMR-t4",
        "RW-FMR-t8", "RW-Cache-t1", "RW-Cache-t2", "RW-Cache-t4",
        "RW-Cache-t8",
    ],
    "fig8": [
        "OLTP-Register-r10", "OLTP-Register-r50", "OLTP-Register-r100",
        "OLTP-FMR-r10", "OLTP-FMR-r50", "OLTP-FMR-r100", "OLTP-Cache-r10",
        "OLTP-Cache-r50", "OLTP-Cache-r100",
    ],
    "fig9": [
        "RW-Register-t1", "RW-Register-t2", "RW-Register-t4",
        "RW-Register-t8", "RW-FMR-t1", "RW-FMR-t2", "RW-FMR-t4",
        "RW-FMR-t8", "RW-All-Physical-t1", "RW-All-Physical-t2",
        "RW-All-Physical-t4", "RW-All-Physical-t8",
    ],
    "fig10": [
        "RDMA-4x-file-cache-c1", "RDMA-4x-file-cache-c2",
        "RDMA-4x-file-cache-c3", "RDMA-4x-file-cache-c5",
        "RDMA-4x-file-cache-c8", "IPoIB-4x-file-cache-c1",
        "IPoIB-4x-file-cache-c2", "IPoIB-4x-file-cache-c3",
        "IPoIB-4x-file-cache-c5", "IPoIB-4x-file-cache-c8",
        "GigE-4x-file-cache-c1", "GigE-4x-file-cache-c2",
        "GigE-4x-file-cache-c3", "GigE-4x-file-cache-c5",
        "GigE-4x-file-cache-c8", "RDMA-8x-file-cache-c1",
        "RDMA-8x-file-cache-c2", "RDMA-8x-file-cache-c3",
        "RDMA-8x-file-cache-c5", "RDMA-8x-file-cache-c8",
        "IPoIB-8x-file-cache-c1", "IPoIB-8x-file-cache-c2",
        "IPoIB-8x-file-cache-c3", "IPoIB-8x-file-cache-c5",
        "IPoIB-8x-file-cache-c8", "GigE-8x-file-cache-c1",
        "GigE-8x-file-cache-c2", "GigE-8x-file-cache-c3",
        "GigE-8x-file-cache-c5", "GigE-8x-file-cache-c8",
    ],
    "fig11": [
        "RDMA-SRQ-c1", "RDMA-SRQ-c4", "RDMA-SRQ-c16", "RDMA-SRQ-c64",
        "RDMA-conn-c1", "RDMA-conn-c4", "RDMA-conn-c16", "RDMA-conn-c64",
        "IPoIB-c1", "IPoIB-c4", "IPoIB-c16", "IPoIB-c64",
    ],
    "fig12": [
        "none-RR", "none-RW", "leases-RR", "leases-RW", "hardened-RR",
        "hardened-RW", "hardened+aes-RR", "hardened+aes-RW",
    ],
    "fig13": [
        "per-conn-m1", "per-conn-m10", "per-conn-m100", "per-conn-m1000",
        "muxed-m1", "muxed-m10", "muxed-m100", "muxed-m1000",
        "muxed+sharded-m1", "muxed+sharded-m10", "muxed+sharded-m100",
        "muxed+sharded-m1000",
    ],
}


def test_quick_labels_pinned():
    assert list(FIGURES) == list(QUICK_LABELS)
    for name, labels in QUICK_LABELS.items():
        assert [label for label, _ in figure_grid(name, "quick")] == labels, name


def test_table_order_and_kinds():
    assert list(EXPERIMENTS) == ["table1", *QUICK_LABELS, "security", "chaos"]
    for name, entry in EXPERIMENTS.items():
        assert entry.name == name
        # A table is either a point grid with a row builder or a measure.
        assert (entry.grid is None) == (entry.row is None)
        assert (entry.grid is None) != (entry.measure is None)


def test_figure_grid_refuses_gridless_and_unknown_names():
    for name in ("security", "table1", "fig99"):
        with pytest.raises(ValueError, match=(
                r"choose fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig12 "
                r"or fig13\)")):
            figure_grid(name)


def _choices(command: str, dest: str):
    sub = cli.build_parser()._subparsers._group_actions[0].choices[command]
    return next(a for a in sub._actions if a.dest == dest).choices


def test_cli_choices_come_from_the_table():
    assert _choices("run", "experiment") == sorted(EXPERIMENTS)
    assert list(_choices("check", "figure")) == list(FIGURES)
    assert list(_choices("health", "experiment")) == [*FIGURES, "chaos"]
    assert list(_choices("stats", "figure")) == list(FIGURES)
    assert list(_choices("trace", "figure")) == list(FIGURES)


def test_bench_runs_every_figure(monkeypatch, tmp_path, capsys):
    ran = []

    def fake_run(name, scale, jobs=1):
        ran.append(name)
        return ExperimentResult(name, [], [], "", events=0)

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    assert cli.main(["bench", "--output-dir", str(tmp_path)]) == 0
    assert ran == list(FIGURES)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"BENCH_{name}.json" for name in FIGURES)


def test_config_from_spec_names_profiles_and_routes_topology():
    fig5 = config_from_spec(figure_grid("fig5")[0][1].cluster)
    assert isinstance(fig5, ClusterConfig) and fig5.profile is SOLARIS_SDR
    fig10 = config_from_spec(figure_grid("fig10")[0][1].cluster)
    assert fig10.profile is LINUX_DDR_RAID
    label, point = figure_grid("fig13")[9]
    assert label == "muxed+sharded-m10"
    topo = config_from_spec(point.cluster)
    assert isinstance(topo, TopologyConfig)
    assert (topo.servers, topo.mux, topo.client_hosts, topo.credits) == \
        (4, True, 4, 8)
    assert topo.cluster.nclients == 10 and topo.cluster.srq
    # A profile object passes through untouched.
    assert config_from_spec({"profile": SOLARIS_SDR}).profile is SOLARIS_SDR
