"""Redial + duplicate request cache: exactly-once under reply loss.

The end-to-end cases run an NFS mount over RPC/RDMA (Read-Write) with
a reply timer: a lost reply expires the timer, the client redials and
resends the same xid with fresh chunks, and the server's DRC answers
the duplicate without running the procedure again.
"""

from dataclasses import replace

import pytest

from repro.analysis import SOLARIS_SDR
from repro.core.base import MAX_RECONNECTS, MAX_REPLY_TIMEOUT_US
from repro.core.config import RpcRdmaConfig
from repro.core.header import RpcRdmaHeader
from repro.experiments import Cluster, ClusterConfig
from repro.faults import FaultPlan
from repro.ib.verbs import QPState
from repro.nfs.protocol import NfsError
from repro.rpc import RpcReply
from repro.rpc.drc import DrcDecision, DuplicateRequestCache
from repro.rpc.transport import RpcTimeout

PROG, VERS = 100003, 3


def rig(reply_timeout_us=20_000.0, handler_delay_us=0.0):
    """A one-mount Read-Write cluster with a reply timer, and a tally of
    (xid, proc) executions of the NFS program."""
    profile = replace(SOLARIS_SDR, rpcrdma=replace(
        RpcRdmaConfig(), reply_timeout_us=reply_timeout_us))
    cluster = Cluster(ClusterConfig(transport="rdma-rw", profile=profile,
                                    fault_plan=FaultPlan(seed=11)))
    executions: dict = {}
    original = cluster.rpc_server._programs[(PROG, VERS)]

    def handler(call):
        key = (call.xid, call.proc)
        executions[key] = executions.get(key, 0) + 1
        if handler_delay_us:
            yield cluster.sim.timeout(handler_delay_us)
        return (yield from original(call))

    cluster.rpc_server._programs[(PROG, VERS)] = handler
    return cluster, cluster.mounts[0].transport, executions


def create(cluster, name="once", lose_replies=0):
    """CREATE ``name``, losing the next ``lose_replies`` replies."""
    nfs = cluster.mounts[0].nfs

    def proc():
        cluster.faults.drop_next("client0", lose_replies)
        fh, _ = yield from nfs.create(nfs.root, name)
        return fh

    return cluster.run(proc())


# ---------------------------------------------------------------- DRC unit
def test_drc_lifecycle():
    drc = DuplicateRequestCache(max_entries=8)
    assert drc.check(1, PROG, 0)[0] is DrcDecision.NEW
    drc.begin(1, PROG, 0)
    assert drc.check(1, PROG, 0)[0] is DrcDecision.IN_PROGRESS
    reply = RpcReply(xid=1, header=b"done")
    drc.complete(1, PROG, 0, reply)
    decision, cached = drc.check(1, PROG, 0)
    assert decision is DrcDecision.REPLAY
    assert cached is reply


def test_drc_distinguishes_procs():
    drc = DuplicateRequestCache()
    drc.begin(1, PROG, 6)
    assert drc.check(1, PROG, 7)[0] is DrcDecision.NEW


def test_drc_lru_horizon():
    drc = DuplicateRequestCache(max_entries=2)
    for xid in (1, 2, 3):
        drc.begin(xid, PROG, 0)
    # xid 1 aged out: a very late retransmit would re-execute.
    assert drc.check(1, PROG, 0)[0] is DrcDecision.NEW
    assert drc.check(3, PROG, 0)[0] is DrcDecision.IN_PROGRESS


def test_drc_validation():
    with pytest.raises(ValueError):
        DuplicateRequestCache(max_entries=0)


# ---------------------------------------------------------------- end to end
def test_no_loss_no_retransmission():
    cluster, transport, executions = rig()
    create(cluster)
    assert transport.retransmissions.events == 0
    assert transport.reconnects.events == 0
    assert list(executions.values()) == [1]


def test_lost_reply_recovered_by_retransmission():
    cluster, transport, executions = rig()
    create(cluster, lose_replies=1)
    assert transport.retransmissions.events == 1
    assert transport.reconnects.events == 1
    assert cluster.faults.messages_dropped.events == 1
    # The DRC replayed; the handler ran exactly once (exactly-once!).
    assert list(executions.values()) == [1]
    assert cluster.drc.replays.events == 1


def test_multiple_losses_with_backoff():
    cluster, transport, executions = rig()
    create(cluster, lose_replies=3)
    assert transport.retransmissions.events == 3
    assert transport.reconnects.events == 3
    assert list(executions.values()) == [1]


def test_slow_handler_duplicate_dropped_not_reexecuted():
    """Resend while the original is still executing: the duplicate's
    responder is parked on the new connection, not re-executed."""
    cluster, transport, executions = rig(reply_timeout_us=10_000.0,
                                         handler_delay_us=25_000.0)
    create(cluster)
    assert transport.retransmissions.events >= 1
    assert list(executions.values()) == [1]
    assert cluster.drc.drops.events >= 1


def test_exhausted_retries_raise_timeout():
    cluster, transport, executions = rig()
    with pytest.raises(RpcTimeout):
        create(cluster, lose_replies=10)  # everything vanishes
    assert transport.reconnects.events == MAX_RECONNECTS
    assert transport.retransmissions.events == MAX_RECONNECTS + 1
    assert list(executions.values()) == [1]


def test_reply_timer_backoff_capped():
    """Each attempt's timer doubles, but stops at MAX_REPLY_TIMEOUT_US."""
    first = 0.75 * MAX_REPLY_TIMEOUT_US
    cluster, transport, executions = rig(reply_timeout_us=first)
    start = cluster.sim.now
    with pytest.raises(RpcTimeout):
        create(cluster, lose_replies=10)
    elapsed = cluster.sim.now - start
    # Capped (±10% jitter): first + 4 × ~cap.  Uncapped doubling would
    # need first × (1 + 2 + 4 + 8 + 16) = 31 × first.
    assert first + MAX_RECONNECTS * 0.9 * MAX_REPLY_TIMEOUT_US < elapsed
    assert elapsed < first + MAX_RECONNECTS * 1.2 * MAX_REPLY_TIMEOUT_US


def test_without_drc_retransmission_reexecutes():
    """The hazard the DRC exists to prevent, demonstrated."""
    cluster, transport, executions = rig()
    cluster.rpc_server.drc = None
    # Re-executed, the exclusive CREATE fails on the file it just made.
    with pytest.raises(NfsError, match="EXIST"):
        create(cluster, lose_replies=1)
    assert list(executions.values()) == [2]  # not exactly-once


def test_timeout_resends_on_a_new_qp():
    """A timed-out READ goes out again with the same xid on a new QP,
    and its first QP was in ERROR before its chunks were released, so
    the late reply cannot land in them."""
    cluster, transport, executions = rig()
    nfs = cluster.mounts[0].nfs
    fh = create(cluster)
    sends = []
    send_header = transport.send_header

    def recording_send(wire):
        sends.append((transport.qp, RpcRdmaHeader.decode(wire).xid))
        return (yield from send_header(wire))

    released = []
    release = transport.strategy.release

    def recording_release(region):
        released.append(sends[0][0].state)
        return (yield from release(region))

    transport.send_header = recording_send
    transport.strategy.release = recording_release

    def read():
        cluster.faults.drop_next("client0", 1)
        data, _, _ = yield from nfs.read(fh, 0, 64 * 1024)
        return data

    cluster.run(read())
    (qp1, xid1), (qp2, xid2) = sends
    assert xid1 == xid2
    assert qp2 is not qp1 and qp2.state is QPState.RTS
    assert released and all(state is QPState.ERROR for state in released)
