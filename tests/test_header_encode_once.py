"""Each RPC/RDMA message is encoded once: the transport size-tests the
encoded bytes against the inline threshold and sends those same bytes,
and a retransmit resends them without encoding again."""

from dataclasses import replace

import pytest

from repro.analysis import SOLARIS_SDR
from repro.core.config import RpcRdmaConfig
from repro.core.header import MessageType, RpcRdmaHeader
from repro.experiments import Cluster, ClusterConfig
from repro.faults import FaultPlan

MSG, DONE = MessageType.RDMA_MSG, MessageType.RDMA_DONE


@pytest.fixture
def encodes(monkeypatch):
    """Message types of every ``RpcRdmaHeader.encode`` call, in order."""
    seen = []
    original = RpcRdmaHeader.encode

    def counting(self):
        seen.append(self.mtype)
        return original(self)

    monkeypatch.setattr(RpcRdmaHeader, "encode", counting)
    return seen


def _mount(cluster):
    nfs = cluster.mounts[0].nfs

    def setup():
        fh, _ = yield from nfs.create(nfs.root, "f")
        yield from nfs.write(fh, 0, bytes(range(256)) * 256)
        return fh

    return nfs, cluster.run(setup())


@pytest.mark.parametrize("transport, read_reply", [
    ("rdma-rw", [MSG, MSG]),
    # Read-Read: the client's RDMA_DONE after fetching the exposed data.
    ("rdma-rr", [MSG, MSG, DONE]),
])
def test_one_encode_per_message(transport, read_reply, encodes):
    cluster = Cluster(ClusterConfig(transport=transport))
    nfs, fh = _mount(cluster)
    ops = {
        "getattr": (nfs.getattr(fh), [MSG, MSG]),
        "write-64k": (nfs.write(fh, 0, bytes(64 * 1024)), [MSG, MSG]),
        "read-64k": (nfs.read(fh, 0, 64 * 1024), read_reply),
    }
    for name, (op, expected) in ops.items():
        encodes.clear()
        cluster.run(op)
        assert encodes == expected, name


def test_retransmit_resends_the_encoded_bytes(encodes):
    profile = replace(SOLARIS_SDR,
                      rpcrdma=replace(RpcRdmaConfig(), reply_timeout_us=20_000.0))
    cluster = Cluster(ClusterConfig(transport="rdma-rw", profile=profile,
                                    fault_plan=FaultPlan(seed=11)))
    nfs, fh = _mount(cluster)
    transport = cluster.mounts[0].transport
    sent = []
    send_header = transport.send_header

    def recording(wire):
        sent.append(wire)
        return (yield from send_header(wire))

    transport.send_header = recording
    encodes.clear()
    # Lose the call on its way in: only the reply timer can recover it.
    cluster.faults.drop_next(cluster.server_node.name, 1)
    cluster.run(nfs.getattr(fh))
    assert transport.retransmissions.events == 1
    assert cluster.faults.messages_dropped.events == 1
    assert len(sent) == 2 and sent[1] is sent[0]
    assert encodes == [MSG, MSG]  # the call once, the one reply once
