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
