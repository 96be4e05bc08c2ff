"""Telemetry subsystem tests: span trees, registry, zero-cost contract.

Covers the PR's acceptance criteria:

* an NFS READ over the Read-Write transport yields a connected span
  tree (client op → RPC call → dispatch → nfsd → file system, and
  dispatch → reply → RDMA Write → Send) with per-lane HCA spans that
  are monotone and non-overlapping;
* an injected reply drop yields a second ``rpc.call`` span for the
  same xid, after the redial that resends it;
* the golden 17-point grid is bit-identical with telemetry off and on;
* the Chrome export carries every required ``trace_event`` key and
  round-trips through JSON.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.analysis import SOLARIS_SDR
from repro.core.config import RpcRdmaConfig
from repro.experiments import Cluster, ClusterConfig
from repro.faults import FaultPlan


def make_cluster(**kwargs):
    kwargs.setdefault("telemetry", True)
    return Cluster(ClusterConfig(**kwargs))


def run_file_roundtrip(c, nbytes=256 * 1024):
    nfs = c.mounts[0].nfs
    blob = bytes(i % 251 for i in range(nbytes))

    def proc():
        fh, _ = yield from nfs.create(nfs.root, "t.bin")
        yield from nfs.write(fh, 0, blob)
        data, eof, _ = yield from nfs.read(fh, 0, len(blob))
        return data

    assert c.run(proc()) == blob


# ---------------------------------------------------------------- span trees
def _one(spans, **kwargs):
    assert len(spans) == 1, f"expected exactly one span, got {spans}"
    return spans[0]


def test_read_write_span_tree():
    c = make_cluster(transport="rdma-rw", strategy="dynamic",
                     profile=SOLARIS_SDR)
    run_file_roundtrip(c)
    tracer = c.telemetry.tracer

    nfs_read = _one(tracer.find(name="nfs.READ", cat="client"))
    trace = nfs_read.trace_id

    call = _one(tracer.find(name="rpc.call", trace_id=trace))
    assert call.parent_id == nfs_read.id
    dispatch = _one(tracer.find(name="rpc.dispatch", trace_id=trace))
    assert dispatch.parent_id == call.id
    receive = _one(tracer.find(name="rpc.receive", trace_id=trace))
    assert receive.parent_id == call.id
    nfsd = _one(tracer.find(name="nfsd.READ", trace_id=trace))
    assert nfsd.parent_id == dispatch.id
    fs_read = _one(tracer.find(name="tmpfs.read", trace_id=trace))
    assert fs_read.parent_id == nfsd.id
    reply = _one(tracer.find(name="rpc.reply", trace_id=trace))
    assert reply.parent_id == dispatch.id
    push = _one(tracer.find(name="rdma.write_chunks", trace_id=trace))
    assert push.parent_id == reply.id
    rdma_write = _one(tracer.find(name="hca.rdma_write", trace_id=trace))
    assert rdma_write.parent_id == push.id
    # Reply send parented under the reply span; §4.2 Write→Send ordering
    # means it must start after the RDMA Write was dispatched.
    reply_send = [s for s in tracer.find(name="hca.send", trace_id=trace)
                  if s.parent_id == reply.id]
    assert len(reply_send) == 1
    assert reply_send[0].start >= rdma_write.start

    # Synchronous child intervals nest inside their parents.
    for parent, child in ((nfs_read, call), (call, dispatch),
                          (dispatch, nfsd), (nfsd, fs_read),
                          (dispatch, reply), (reply, push)):
        assert child.finish is not None
        assert parent.start <= child.start <= child.finish <= parent.finish
    # The RDMA Write is posted fire-and-forget (§4.2: the server never
    # blocks on it), so its HCA span outlives the posting span — but it
    # must still finish before the reply span, which waits on the send
    # completion that orders behind the write.
    assert push.start <= rdma_write.start
    assert rdma_write.finish <= reply.finish

    # HCA lanes are serial per QP: spans on one lane are monotone and
    # non-overlapping.
    by_lane: dict[tuple, list] = {}
    for span in tracer.find(cat="hca"):
        by_lane.setdefault((span.pid, span.tid), []).append(span)
    assert by_lane
    for lane_spans in by_lane.values():
        ordered = sorted(lane_spans, key=lambda s: s.start)
        for prev, nxt in zip(ordered, ordered[1:]):
            assert prev.finish <= nxt.start


def test_registration_spans_and_read_read_design():
    c = make_cluster(transport="rdma-rr", strategy="fmr", profile=SOLARIS_SDR)
    run_file_roundtrip(c)
    tracer = c.telemetry.tracer
    # FMR strategy: map/unmap spans instead of full registrations.
    assert tracer.find(name="reg.fmr_map", cat="reg")
    assert tracer.find(name="reg.fmr_unmap", cat="reg")
    # Read-Read: client pulls reply data with RDMA Reads.
    nfs_read = _one(tracer.find(name="nfs.READ", cat="client"))
    fetches = tracer.find(name="rdma.read_chunks", trace_id=nfs_read.trace_id)
    assert fetches
    assert tracer.find(name="hca.read_response", cat="hca")


def test_regcache_hit_instants():
    c = make_cluster(transport="rdma-rw", strategy="cache",
                     profile=SOLARIS_SDR)
    run_file_roundtrip(c)
    hits = [i for i in c.telemetry.tracer.instants
            if i["name"] == "reg.cache_hit"]
    assert hits, "server regcache never hit during a read/write round trip"
    assert c.server_strategy.hits.events == len(hits)


def test_redial_resend_shares_xid():
    """A lost reply over RDMA: the timed-out attempt and its resend are
    two ``rpc.call`` spans with one xid, with the redial between them."""
    profile = replace(SOLARIS_SDR, rpcrdma=replace(
        RpcRdmaConfig(), reply_timeout_us=30_000.0))
    c = make_cluster(transport="rdma-rw", profile=profile,
                     fault_plan=FaultPlan(seed=11))
    mount = c.mounts[0]
    nfs = mount.nfs

    def proc():
        c.faults.drop_next("client0", 1)
        yield from nfs.getattr(nfs.root)

    c.run(proc())
    tracer = c.telemetry.tracer
    first, second = sorted(tracer.find(name="rpc.call"), key=lambda s: s.start)
    assert first.args["xid"] == second.args["xid"]
    redial = _one([i for i in tracer.instants if i["name"] == "rpc.redial"])
    assert first.finish <= redial["ts"] <= second.start
    assert mount.transport.retransmissions.events == 1
    assert mount.transport.reconnects.events == 1


# ---------------------------------------------------------------- zero cost
def test_telemetry_off_by_default():
    c = Cluster(ClusterConfig(profile=SOLARIS_SDR))
    assert c.telemetry is None
    assert c.sim.telemetry is None
    run_file_roundtrip(c)


def test_golden_grid_identical_with_telemetry(monkeypatch):
    """Tier-1 equivalence grid: telemetry on must not move a nanosecond."""
    from tests import test_golden_figures as golden

    original = golden._build_cluster

    def with_telemetry(spec):
        spec = dict(spec)
        spec["cluster"] = {**spec["cluster"], "telemetry": True}
        return original(spec)

    monkeypatch.setattr(golden, "_build_cluster", with_telemetry)
    want = golden._load("seed_points.json")
    for spec in golden.GRID:
        got = golden.run_point(spec)
        assert got == want[spec["name"]], (
            f"point {spec['name']} diverged with telemetry enabled"
        )


# ---------------------------------------------------------------- export
REQUIRED_KEYS = {
    "b": {"name", "cat", "id", "pid", "tid", "ts", "ph"},
    "e": {"name", "cat", "id", "pid", "tid", "ts", "ph"},
    "i": {"name", "ph", "ts", "pid", "tid", "s"},
    "M": {"name", "ph", "pid", "args"},
}


def test_chrome_export_is_valid_trace_event_json(tmp_path):
    c = make_cluster(transport="rdma-rw", strategy="dynamic",
                     profile=SOLARIS_SDR)
    run_file_roundtrip(c)
    path = tmp_path / "trace.json"
    c.telemetry.tracer.write_chrome(str(path))
    doc = json.loads(path.read_text())
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert events
    opens: dict[tuple, int] = {}
    for ev in events:
        ph = ev["ph"]
        assert ph in REQUIRED_KEYS, f"unexpected phase {ph!r}"
        missing = REQUIRED_KEYS[ph] - set(ev)
        assert not missing, f"{ph} event missing {missing}: {ev}"
        if ph == "M":
            assert ev["name"] in ("process_name", "thread_name")
            assert "name" in ev["args"]
        elif ph == "b":
            assert isinstance(ev["id"], str) and ev["id"].startswith("0x")
            opens[(ev["id"], ev["args"]["span_id"])] = 1
        elif ph == "e":
            assert ev["ts"] >= 0
    # b/e balance: every async begin has exactly one end with its id.
    begins = sum(1 for ev in events if ev["ph"] == "b")
    ends = sum(1 for ev in events if ev["ph"] == "e")
    assert begins == ends > 0


def test_trace_ids_never_reach_the_wire():
    from repro.rpc.msg import RpcCall, RpcReply

    call = RpcCall(xid=7, prog=100003, vers=3, proc=6, header=b"x")
    with_id = RpcCall(xid=7, prog=100003, vers=3, proc=6, header=b"x",
                      trace_id=12345)
    assert call.encode() == with_id.encode()
    reply = RpcReply(xid=7, stat=0, header=b"y")
    with_id = RpcReply(xid=7, stat=0, header=b"y", trace_id=9)
    assert reply.encode() == with_id.encode()


# ---------------------------------------------------------------- registry
def test_registry_families_and_samples():
    from repro.telemetry import Registry

    reg = Registry()
    ops = reg.counter("ops", "operations", ("verb",))
    ops.add(verb="READ")
    ops.add(2.0, verb="WRITE")
    ops.add(verb="READ")
    gauge = reg.gauge("depth", "queue depth")
    gauge.set(4)
    hist = reg.histogram("lat", "latency", ("verb",))
    for v in (1.0, 2.0, 3.0):
        hist.observe(v, verb="READ")

    samples = {str(s) for s in reg.collect()}
    assert 'ops{verb="READ"} 2.0' in samples
    assert 'ops{verb="WRITE"} 2.0' in samples
    assert "depth 4.0" in samples
    assert 'lat_count{verb="READ"} 3.0' in samples
    assert 'lat_p50{verb="READ"} 2.0' in samples

    # Children iterate sorted by label value, families in creation order.
    assert [lbl["verb"] for lbl, _ in ops.items()] == ["READ", "WRITE"]
    assert [f.name for f in reg.families()] == ["ops", "depth", "lat"]


def test_registry_idempotent_and_schema_checked():
    from repro.telemetry import Registry

    reg = Registry()
    a = reg.counter("x", "first", ("k",))
    assert reg.counter("x", "again", ("k",)) is a
    with pytest.raises(ValueError):
        reg.gauge("x")  # kind mismatch
    with pytest.raises(ValueError):
        reg.counter("x", labels=("other",))  # label-schema mismatch
    with pytest.raises(ValueError):
        a.labels(wrong="v")
    with pytest.raises(ValueError):
        a.labels(k="v").add(-1)


def test_registry_attach_reads_live_values():
    from repro.sim import Counter
    from repro.telemetry import Registry

    live = Counter("live")
    reg = Registry()
    reg.attach("calls", lambda: float(live.events), "live calls", side="a")
    assert reg.collect()[-1].value == 0.0
    live.add()
    live.add()
    assert reg.collect()[-1].value == 2.0


def test_registry_absorbs_cluster_counters():
    c = make_cluster(transport="rdma-rw", strategy="fmr", profile=SOLARIS_SDR)
    run_file_roundtrip(c)
    reg = c.telemetry.registry
    by_name = {}
    for sample in reg.collect():
        by_name.setdefault(sample.name, []).append(sample)
    transport = c.mounts[0].transport
    assert by_name["rpc_calls_sent"][0].value == float(
        transport.calls_sent.events)
    assert by_name["rpc_server_calls"][0].value == float(
        c.rpc_server.calls_served.events)
    # FMR occupancy gauge is live: everything unmapped after the run.
    fmr_sides = {dict(s.labels)["side"]: s.value
                 for s in by_name["fmr_mapped"]}
    assert "server" in fmr_sides
    assert all(v == 0.0 for v in fmr_sides.values())
    # Per-verb histograms recorded through the client hook.
    hist = reg.get("nfs_client_latency_us")
    verbs = {lbl["verb"] for lbl, _ in hist.items()}
    assert {"CREATE", "WRITE", "READ"} <= verbs


def test_nfsstat_report_renders():
    from repro.telemetry.nfsstat import render_stats

    c = make_cluster(transport="rdma-rw", strategy="cache",
                     profile=SOLARIS_SDR)
    run_file_roundtrip(c)
    text = render_stats(c)
    for needle in ("NFS per-verb operations", "RPC transport (per mount)",
                   "Server RPC dispatch", "Registration", "READ", "WRITE",
                   "regcache", "hit rate", "p50", "p99"):
        assert needle in text, f"missing {needle!r} in:\n{text}"
    plain = Cluster(ClusterConfig(profile=SOLARIS_SDR))
    with pytest.raises(ValueError):
        render_stats(plain)


# ---------------------------------------------------------------- satellites
def test_latency_recorder_amortized_growth():
    from repro.analysis.latency import LatencyRecorder

    rec = LatencyRecorder("t", initial_capacity=2)
    for i in range(1000):
        rec.record(float(i))
    assert len(rec) == 1000
    assert rec.values[0] == 0.0 and rec.values[-1] == 999.0
    # Growth under a live view must not corrupt previously recorded data.
    view = rec.values
    for i in range(1000, 3000):
        rec.record(float(i))
    assert rec.values[999] == 999.0 and rec.values[-1] == 2999.0
    assert view[0] == 0.0  # the old view stays intact (copy fallback)


def test_latency_recorder_extend_and_merge():
    from repro.analysis.latency import LatencyRecorder

    a = LatencyRecorder("a", initial_capacity=1)
    b = LatencyRecorder("b", initial_capacity=1)
    for i in range(10):
        a.record(float(i))
    for i in range(20):
        b.record(100.0 + i)
    merged = a.merge(b)
    assert len(merged) == 30
    a.extend(b)
    assert len(a) == 30
    assert list(a.values) == list(merged.values)
    assert a.values[10] == 100.0
