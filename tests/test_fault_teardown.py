"""Recovery paths release what they acquired, at any fault time, on any shape.

Each case runs iozone under the RDMA sanitizer with one fault — a QP
kill on mount 1, a server crash-restart, or a server stall longer than
the clients' reply timer — at a time drawn from the whole run, then
runs on past the end and checks teardown.  A clean case has no failed
server call, no sanitizer violation, and no registration, receive
buffer or SRQ slot left behind.
"""

from dataclasses import replace

import pytest

from repro.analysis import SOLARIS_SDR
from repro.core.config import RpcRdmaConfig
from repro.experiments import Cluster, ClusterConfig
from repro.experiments.topology import TopologyConfig
from repro.faults import FaultPlan, QpKill, ServerCrash, ServerStall
from repro.workloads import IozoneParams, run_iozone
from tests._cores import CORES, run_json

FAULTS = (
    [pytest.param(QpKill(at_us=at, client_index=1), id=f"qpkill@{at:g}")
     for at in (1000.0, 2000.0, 3000.0, 4000.0, 6000.0)]
    + [pytest.param(ServerCrash(at_us=at, restart_us=10_000.0),
                    id=f"crash@{at:g}")
       for at in (5000.0, 8500.0, 15000.0, 20000.0)]
    # Longer than the 30 ms reply timer: the replies the server sends
    # after the stall must not land in chunks a timed-out call released.
    + [pytest.param(ServerStall(at_us=at, duration_us=50_000.0),
                    id=f"stall@{at:g}")
       for at in (3000.0, 5000.0, 8000.0, 12000.0)]
)

TIMED = replace(SOLARIS_SDR,
                rpcrdma=replace(RpcRdmaConfig(), reply_timeout_us=30_000.0))

SHAPES = {
    "one-server": lambda **kw: ClusterConfig(**kw),
    "sharded": lambda **kw: TopologyConfig(servers=2, client_hosts=2, **kw),
    "sharded-mux-srq": lambda **kw: TopologyConfig(
        servers=2, client_hosts=2, mux=True, srq=True, **kw),
}


def _plan(fault) -> FaultPlan:
    if isinstance(fault, QpKill):
        return FaultPlan(seed=3, qp_kills=(fault,))
    if isinstance(fault, ServerStall):
        return FaultPlan(seed=3, server_stalls=(fault,))
    return FaultPlan(seed=3, server_crashes=(fault,))


@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("fault", FAULTS)
def test_fault_leaves_clean_teardown(shape, fault):
    timer = {"profile": TIMED} if isinstance(fault, ServerStall) else {}
    cluster = Cluster(SHAPES[shape](transport="rdma-rw", nclients=4,
                                    sanitizer=True, fault_plan=_plan(fault),
                                    **timer))
    run_iozone(cluster, IozoneParams(record_bytes=64 * 1024,
                                     file_bytes=1 << 20, ops_per_thread=16))
    cluster.sim.run(until=cluster.sim.now + 1_000_000.0)
    assert sum(s.rpc_server.calls_failed.events
               for s in cluster.all_stacks) == 0
    assert cluster.sim.sanitizer.violations == []
    cluster.sim.sanitizer.check_teardown(cluster)


def test_read_read_redial_keeps_one_bounce_pool():
    """A redial re-registers the inline rings but not the bounce pool:
    the client's live TPT entries are the same before and after."""
    cluster = Cluster(ClusterConfig(transport="rdma-rr"))
    mount = cluster.mounts[0]
    nfs = mount.nfs

    def write():
        fh, _ = yield from nfs.create(nfs.root, "f")
        yield from nfs.write(fh, 0, bytes(range(256)) * 512)
        return fh

    fh = cluster.run(write())
    tpt = mount.node.hca.tpt
    live = tpt.live_entries
    qp = mount.transport.qp
    qp.enter_error("injected fault")
    qp.peer.enter_error("injected fault (remote)")

    def read():
        data, _, _ = yield from nfs.read(fh, 0, 128 * 1024)
        return data

    assert cluster.run(read()) == bytes(range(256)) * 512
    assert mount.transport.reconnects.events == 1
    assert tpt.live_entries == live


# ----------------------------------------------------- connection lifecycle
# A redial or a server-initiated disconnect closes the old connection on
# both ends: each HCA forgets the QP (and its dispatcher ends), and the
# server deregisters the transport's inline pools.  The snippet drives
# the three redial causes round after round — a reply timeout, a QP
# kill and a server-initiated disconnect (the quarantine path) — under
# one simulation core, in a fresh subprocess per core.
LIFECYCLE_COMMON = """
import json
from dataclasses import replace
from repro.analysis import SOLARIS_SDR
from repro.core.config import RpcRdmaConfig
from repro.experiments import Cluster, ClusterConfig
from repro.experiments.topology import TopologyConfig
from repro.faults import FaultPlan
from repro.sim.engine import ACTIVE_CORE

assert ACTIVE_CORE == {core!r}, ACTIVE_CORE
SHAPES = {{
    "one-server": lambda **kw: ClusterConfig(**kw),
    "sharded": lambda **kw: TopologyConfig(servers=2, client_hosts=2, **kw),
    "sharded-mux-srq": lambda **kw: TopologyConfig(
        servers=2, client_hosts=2, mux=True, srq=True, **kw),
}}
TIMED = replace(SOLARIS_SDR,
                rpcrdma=replace(RpcRdmaConfig(), reply_timeout_us=30_000.0))
DATA = bytes(range(256)) * 32


def build(shape, **kw):
    cluster = Cluster(SHAPES[shape](transport="rdma-rw", nclients=4,
                                    profile=TIMED, fault_plan=FaultPlan(seed=3),
                                    **kw))
    mounts = cluster.mounts

    def create():
        fhs = []
        for i, m in enumerate(mounts):
            fh, _ = yield from m.nfs.create(m.nfs.root, f"life{{i}}")
            yield from m.nfs.write(fh, 0, DATA)
            fhs.append(fh)
        return fhs

    return cluster, cluster.run(create())


def conn(mount):
    # A muxed mount rides its lane's shared channel.
    return getattr(mount.transport, "channel", mount.transport)


def fault(cluster, kind, i):
    mount = cluster.mounts[i]
    if kind == "reply-timeout":
        cluster.faults.drop_next(mount.node.name, 1)
    elif kind == "qp-kill":
        conn(mount).qp.kill("test: qp kill")
    else:
        peer = conn(mount).qp.peer
        server = next(s for s in cluster.server_transports if s.qp is peer)
        cluster.run(server.disconnect())


def read(cluster, fhs, i):
    def proc():
        data, _, _ = yield from cluster.mounts[i].nfs.read(fhs[i], 0, len(DATA))
        assert data == DATA

    cluster.run(proc())
    cluster.sim.run(until=cluster.sim.now + 1_000_000.0)


FAULTS = [("reply-timeout", 0), ("qp-kill", 1), ("disconnect", 2)]
"""

LIFECYCLE_SNIPPET = LIFECYCLE_COMMON + """
import gc


def parked(qps):
    # HCA dispatchers (generators) not yet finished on one of ``qps``.
    return sum(1 for o in gc.get_objects()
               if getattr(o, "__name__", None) == "_dispatcher"
               and getattr(o, "gi_frame", None) is not None
               and any(o.gi_frame.f_locals.get("qp") is qp for qp in qps))


cluster, fhs = build({shape!r}, sanitizer=True)
cluster.sim.run(until=cluster.sim.now + 1_000_000.0)
nodes = [*cluster.server_nodes, *cluster.client_nodes]
before = [[s.node.hca.tpt.live_entries, s.node.arena.allocated_bytes]
          for s in cluster.all_stacks]
steps = []
for rnd in range(2):
    for kind, i in FAULTS:
        old = conn(cluster.mounts[i])
        reconnects = old.reconnects.events
        ends = [old.qp, old.qp.peer]
        fault(cluster, kind, i)
        read(cluster, fhs, i)
        rdma = [t for t in (*cluster.client_transports, *cluster.server_transports)
                if getattr(t, "qp", None) is not None]
        steps.append({{
            "step": f"{{kind}}@{{i}}#{{rnd}}",
            "redialed": old.reconnects.events - reconnects,
            "destroyed": sum(1 for qp in ends if qp not in qp.hca.qps),
            "parked": parked(ends),
            "hca_qps": [len(n.hca.qps) for n in nodes],
            "connected": [sum(1 for t in rdma if t.qp.hca is n.hca
                              and t.qp.state.name == "RTS") for n in nodes],
            "server": [[s.node.hca.tpt.live_entries,
                        s.node.arena.allocated_bytes] for s in cluster.all_stacks],
            "leaks": cluster.sim.sanitizer.leak_report(cluster),
        }})
print(json.dumps({{"before": before, "steps": steps,
                  "violations": len(cluster.sim.sanitizer.violations)}}))
"""


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("shape", list(SHAPES))
def test_redials_give_back_what_the_old_connection_held(shape, core):
    """Every redial cause leaves each HCA holding exactly the QPs of its
    connected transports, the server's TPT and arena at their pre-fault
    level, and no destroyed QP's dispatcher parked on its send queue."""
    report = run_json(core, LIFECYCLE_SNIPPET.format(core=core, shape=shape))
    assert report["violations"] == 0
    assert len(report["steps"]) == 6
    for step in report["steps"]:
        where = step["step"]
        assert step["redialed"] == 1, where
        assert step["destroyed"] == 2, where
        assert step["parked"] == 0, where
        assert step["hca_qps"] == step["connected"], where
        assert step["server"] == report["before"], where
        assert step["leaks"] == [], where


HEAP_SNIPPET = LIFECYCLE_COMMON + """
import gc
from collections import Counter


def tracked_types(drcs, earlier=None):
    counts = Counter(type(o).__qualname__ for o in gc.get_objects()
                     if o is not earlier)
    for drc in drcs:
        counts.subtract(type(v).__qualname__ for v in drc._entries.values()
                        if gc.is_tracked(v))
    return counts


gc.disable()
out = {{}}
for shape in ("one-server", "sharded-mux-srq"):
    cluster, fhs = build(shape)
    drcs = [s.drc for s in cluster.all_stacks]
    garbage, before = [], None
    for rnd in range(3):
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        for kind, i in FAULTS:
            fault(cluster, kind, i)
            read(cluster, fhs, i)
        gc.collect()
        garbage.append(str(Counter(type(o).__qualname__
                                   for o in gc.garbage).most_common(5)))
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()
        if rnd == 1:
            before = tracked_types(drcs)
    out[shape] = {{
        "garbage": garbage,
        "growth": dict(tracked_types(drcs, before) - before),
        "redials": sum(t.reconnects.events for t in cluster.client_transports),
    }}
print(json.dumps(out))
"""


@pytest.mark.parametrize("core", CORES)
def test_repeated_redials_leave_no_cycles_and_no_growth(core):
    """The tests/test_heap_flat.py method across rounds of redials: the
    old connection's objects go by reference counting alone, and no
    tracked type grows from round 2 to round 3."""
    report = run_json(core, HEAP_SNIPPET.format(core=core))
    for shape, got in report.items():
        assert got["redials"] == 9, shape
        for i, garbage in enumerate(got["garbage"], 1):
            assert garbage == "[]", f"{shape} round {i} left cyclic garbage"
        assert got["growth"] == {}, f"{shape}: tracked objects grew"


# ------------------------------------------------- closing mid-setup
# A connection's ``ready`` process registers its inline pools (or opens
# its SRQ inbox) over several microseconds.  A close that lands before
# it finishes must wait for it, or setup keeps registering into a
# connection that is already gone.
def test_quarantine_mid_setup_deregisters_per_connection_rings():
    cluster = Cluster(ClusterConfig(transport="rdma-rr", nclients=2,
                                    quarantine=True, sanitizer=True))
    cluster.sim.run(until=500.0)
    evicted = cluster.server_transports[0]
    assert not evicted.ready.processed
    cluster.security_policy.quarantine("client0")
    cluster.sim.run(until=cluster.sim.now + 1_000_000.0)
    # Only the survivor's 32 send and 64 receive buffers stay registered.
    assert evicted.send_pool.regions == evicted.recv_pool.regions == []
    assert cluster.server_node.hca.tpt.live_entries == 96
    assert cluster.sim.sanitizer.leak_report(cluster) == []


def test_disconnect_mid_setup_leaves_no_srq_inbox():
    cluster = Cluster(ClusterConfig(transport="rdma-rw", srq=True,
                                    nclients=2))
    cluster.sim.run(until=100.0)
    server = cluster.server_transports[0]
    assert not server.ready.processed
    cluster.sim.process(server.disconnect())
    cluster.sim.run(until=cluster.sim.now + 1_000_000.0)
    live = [t for t in cluster.server_transports
            if t.qp in cluster.server_node.hca.qps]
    assert len(live) == 1
    assert cluster.srq.connections == 1
