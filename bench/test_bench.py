"""Tests of the benchmark's own machinery: ``pytest bench -q``.

Workloads are sized down by building small driver loads here; the
benchmark command itself has no size knob.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from pathlib import Path

import pytest

import compare
import driver
import layers
import worker
from repro.analysis import LINUX_DDR_RAID, SOLARIS_SDR
from repro.api import (
    ClusterConfig,
    IozoneParams,
    NfsStatusError,
    TopologyConfig,
    connect,
    run_iozone,
)
from repro.sim import Simulator

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

Span = namedtuple("Span", "id parent_id name cat start finish")


# ---------------------------------------------------------- span fold
def test_fold_nested_children_take_only_their_own_interval():
    spans = [Span(1, None, "rpc.call", "rpc", 0.0, 10.0),
             Span(2, 1, "rdma.write_chunks", "transport", 2.0, 6.0),
             Span(3, 2, "hca.rdma_write", "hca", 3.0, 5.0)]
    folded = layers.fold_spans(spans, now=10.0)
    assert folded["sim.rpc_call"] == 6.0
    assert folded["sim.core_transport"] == 2.0
    assert folded["sim.ib_hca"] == 2.0


def test_fold_overlapping_children_are_subtracted_once():
    spans = [Span(1, None, "nfsd.READ", "server", 0.0, 10.0),
             Span(2, 1, "reg.register", "reg", 1.0, 4.0),
             Span(3, 1, "tmpfs.read", "disk", 3.0, 6.0)]
    folded = layers.fold_spans(spans, now=10.0)
    assert folded["sim.nfs_server"] == 5.0
    assert folded["sim.ib_registration"] == 3.0
    assert folded["sim.fs"] == 3.0


def test_fold_clips_children_to_the_parent():
    spans = [Span(1, None, "rpc.call", "rpc", 0.0, 10.0),
             Span(2, 1, "rpc.queue", "server", -2.0, 1.0),
             Span(3, 1, "reg.deregister", "reg", 8.0, 15.0)]
    folded = layers.fold_spans(spans, now=20.0)
    assert folded["sim.rpc_call"] == 7.0
    assert folded["sim.rpc_queue"] == 3.0
    assert folded["sim.ib_registration"] == 7.0


def test_fold_closes_open_spans_now_and_keeps_families_apart():
    spans = [Span(1, None, "nfs.READ", "client", 0.0, None),
             Span(2, 1, "rpc.dispatch", "server", 1.0, 2.0),
             Span(3, 2, "raid.read", "disk", 1.0, 1.5)]
    folded = layers.fold_spans(spans, now=4.0)
    assert folded["sim.rpc_call"] == 3.0
    assert folded["sim.rpc_dispatch"] == 0.5
    assert folded["sim.fs_raid"] == 0.5
    assert set(folded) == set(layers.SPAN_FAMILIES)


def test_unknown_span_category_is_an_error():
    with pytest.raises(ValueError):
        layers.span_family("mystery.op", "mystery")


# ------------------------------------------------------ cProfile groups
ROOT = "/checkout/src/repro"


def test_module_layer_prefers_the_longest_package():
    assert layers.module_layer(f"{ROOT}/ib/mux.py", ROOT) == "ib.mux"
    assert layers.module_layer(f"{ROOT}/ib/hca.py", ROOT) == "ib"
    assert layers.module_layer(f"{ROOT}/ib/__init__.py", ROOT) == "ib"
    assert layers.module_layer(f"{ROOT}/core/regcache.py", ROOT) == "core.regcache"
    assert layers.module_layer(f"{ROOT}/payload.py", ROOT) == "payload"
    assert layers.module_layer(f"{ROOT}/workloads/iozone.py", ROOT) == "other"
    assert layers.module_layer("/elsewhere/repro/ib/hca.py", ROOT) == "other"


def test_builtins_go_to_their_callers_and_cengine_to_sim():
    mux = (f"{ROOT}/ib/mux.py", 10, "call")
    xdr = (f"{ROOT}/rpc/xdr.py", 3, "u32")
    bench = ("/checkout/bench/driver.py", 1, "run")
    stats = {
        mux: (5, 5, 1.0, 2.0, {}),
        xdr: (2, 2, 0.5, 0.5, {}),
        bench: (1, 1, 0.125, 9.0, {}),
        ("~", 0, "<built-in method builtins.len>"): (7, 7, 0.75, 0.75, {
            mux: (4, 4, 0.5, 0.5),
            xdr: (3, 3, 0.25, 0.25),
        }),
        ("~", 0, "<method 'run' of 'repro.sim._cengine.Simulator' objects>"):
            (1, 1, 0.25, 8.0, {bench: (1, 1, 0.25, 8.0)}),
    }
    totals = layers.host_layers(stats, ROOT)
    assert totals["ib.mux"] == (1.5, 9)
    assert totals["rpc.xdr"] == (0.75, 5)
    assert totals["sim"] == (0.25, 1)
    assert totals["other"] == (0.125, 1)
    assert sum(t for t, _ in totals.values()) == sum(v[2] for v in stats.values())
    assert set(totals) == set(layers.HOST_LAYERS)


# ---------------------------------------------------------- counters
def _sample(name, value, **labels):
    return {"name": name, "labels": labels, "value": value}


def test_calls_sent_counts_mount_series_only():
    before = [_sample("rpc_calls_sent", 10.0, mount="m0"),
              _sample("rpc_calls_sent", 10.0, mount="host.mux.ch0"),
              _sample("rpc_queue_peak", 0.0),
              _sample("tpt_registrations", 5.0, node="server")]
    after = [_sample("rpc_calls_sent", 30.0, mount="m0"),
             _sample("rpc_calls_sent", 30.0, mount="host.mux.ch0"),
             _sample("rpc_queue_peak", 4.0),
             _sample("tpt_registrations", 25.0, node="server"),
             _sample("hca_qps", 3.0, node="server"),
             _sample("hca_qps", 3.0, node="client0")]
    got = layers.counters(before, after, mounts={"m0"},
                          server_nodes={"server"}, client_ops=20)
    assert got["rpc.calls_sent"] == 20.0
    assert got["rpc.queue_peak"] == 4.0
    assert got["ib.tpt_registrations_per_op"] == 1.0
    assert got["ib.qps"] == 3.0
    assert got["core.regcache_hit_rate"] == 0.0
    assert set(got) == set(layers.COUNTERS)


# ------------------------------------------------------ correctness gates
class _FakeNfs:
    """A READ that takes 1 µs and returns ``data(offset, count)``."""

    def __init__(self, sim, data=None, error=None):
        self.sim, self.data, self.error = sim, data, error

    def read(self, fh, offset, count, read_buffer=None):
        yield self.sim.timeout(1.0)
        if self.error is not None:
            raise self.error
        return self.data(offset, count), False, None


@pytest.mark.parametrize("data, error, failed", [
    (driver.expected_bytes, None, False),
    (lambda off, n: driver.expected_bytes(off, n - 1), None, True),
    (lambda off, n: bytes(n), None, True),
    (None, NfsStatusError("stale"), True),
])
def test_reads_are_length_and_content_checked(data, error, failed):
    sim = Simulator()
    outcome = driver.Outcome()
    tally = driver._Tally(sim, outcome)
    nfs = _FakeNfs(sim, data, error)
    sim.run_until_complete(sim.process(
        tally.read(nfs, None, 4096 * 3, 8192, None, check=True)))
    assert bool(outcome.failures) is failed
    assert outcome.attempted == 1
    assert len(outcome.latencies["read"]) == (0 if error else 1)


def test_expected_bytes_follow_the_tiled_pattern():
    assert driver.expected_bytes(4096, 300) == (driver.PATTERN * 2)[:300]
    assert driver.expected_bytes(250, 10) == bytes(
        (250 + i) % 256 for i in range(10))


# ------------------------------------------------- parity with the figures
PARITY = [
    # fig5: Read-Read and Read-Write, 128 KB records, dynamic registration.
    (ClusterConfig.rdma_rw(strategy="dynamic", profile=SOLARIS_SDR),
     driver.IozoneLoad(threads=2, record_bytes=128 * 1024, records=6)),
    (ClusterConfig.rdma_rr(strategy="dynamic", profile=SOLARIS_SDR),
     driver.IozoneLoad(threads=2, record_bytes=128 * 1024, records=6)),
    # fig10: NFS/TCP on IPoIB from RAID through a small page cache.
    (ClusterConfig.tcp("ipoib", backend="raid", nclients=2,
                       cache_bytes=2 << 20, profile=LINUX_DDR_RAID),
     driver.IozoneLoad(threads=1, record_bytes=1 << 20, records=3)),
    # fig13: muxed + sharded mounts with SRQ.
    (TopologyConfig(servers=4, mux=True, client_hosts=4, credits=8,
                    cluster=ClusterConfig.rdma_rw(
                        strategy="dynamic", profile=SOLARIS_SDR, nclients=24,
                        server_workers=8, server_queue_depth=64, srq=True)),
     driver.IozoneLoad(threads=1, record_bytes=64 * 1024, records=2)),
]


@pytest.mark.parametrize("config, load", PARITY,
                         ids=["fig5-rw", "fig5-rr", "fig10-tcp", "fig13-mux"])
def test_driver_traffic_is_run_iozone_traffic(config, load):
    reference = run_iozone(connect(config).cluster, IozoneParams(
        nthreads=load.threads, record_bytes=load.record_bytes,
        ops_per_thread=load.records))
    prepared = driver.setup(driver.Workload("parity", lambda _: config, load))
    outcome = driver.run(prepared, seed=1)
    assert not outcome.failures
    assert outcome.mb_s("read") == reference.read_mb_s
    assert outcome.mb_s("write") == reference.write_mb_s


# --------------------------------------------------------- metric names
def test_workloads_match_benchmark_json():
    assert list(driver.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


def test_every_metric_is_well_formed_and_declared():
    tiny = driver.Workload(
        "tiny",
        lambda telemetry: ClusterConfig.rdma_rw(
            strategy="cache", profile=SOLARIS_SDR, telemetry=telemetry),
        driver.IozoneLoad(threads=2, record_bytes=64 * 1024, records=40,
                          extra_records=2, think_us=5.0))
    probe = worker.Probe()
    m = worker.measure(tiny, seed=3, seconds=0.0, probe=probe)
    t = worker.traced(tiny, seed=3, probe=probe)
    assert worker.violations(tiny, m, t) == []
    emitted = {"end_to_end": worker.end_to_end(m),
               "per_layer": worker.per_layer(m, t)}
    for kind, metrics in emitted.items():
        declared = [entry["name"] for entry in SPEC[kind]]
        assert set(metrics) == set(declared)
        assert all(isinstance(v, (int, float)) for v in metrics.values())
    names = [e["name"] for kind in emitted for e in SPEC[kind]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    assert all(v > 0 for v in emitted["end_to_end"].values())


# ------------------------------------------------------------- compare
def test_compare_verdicts():
    a = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(a, [v * 1.2 for v in a], "lower", 0.1) == "worse"
    assert compare.verdict(a, [v * 1.05 for v in a], "lower", 0.1) == "same"
    assert compare.verdict(a, [v * 0.8 for v in a], "lower", 0.1) == "better"
    assert compare.verdict(a, [v * 0.8 for v in a], "higher", 0.1) == "worse"
    noisy = [5.0, 10.0, 15.0, 20.0]
    assert compare.verdict(noisy, [v * 1.3 for v in noisy], "lower",
                           0.1) == "unresolved"
    assert compare.verdict(a, a, "lower", None) == "info"
