"""Each RPC/RDMA message is encoded once: the transport size-tests the
encoded bytes against the inline threshold and sends those same bytes."""

import pytest

from repro.core.header import MessageType, RpcRdmaHeader
from repro.experiments import Cluster, ClusterConfig

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
