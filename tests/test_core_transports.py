"""End-to-end tests of both RPC/RDMA designs over the simulated fabric.

Each test wires a client and server node, runs an echo-style RPC
program, and checks data integrity plus the protocol properties the
paper claims (message counts, exposure, DONE handling, ordering).
"""

import pytest

from repro.core import (
    DynamicRegistration,
    ReadReadClient,
    ReadReadServer,
    ReadWriteClient,
    ReadWriteServer,
    RpcRdmaConfig,
)
from repro.core.regcache import RegistrationCacheStrategy
from repro.core.strategies import AllPhysicalStrategy, FmrStrategy
from repro.ib import Fabric
from repro.rpc import RpcCall, RpcReply, RpcServer
from repro.security import SecurityPolicy
from repro.sim import Simulator

NFS_PROG, NFS_VERS = 100003, 3


class Rig:
    """A connected client/server pair over one RPC/RDMA design."""

    def __init__(self, design="rw", strategy="dynamic", config=None, seed=77,
                 server_threads=8):
        self.sim = Simulator()
        self.fabric = Fabric(self.sim, seed=seed)
        allow_phys = strategy == "all-physical"
        self.client_node = self.fabric.add_node("client", allow_physical=allow_phys)
        self.server_node = self.fabric.add_node("server", allow_physical=allow_phys)
        qc, qs = self.fabric.connect(self.client_node, self.server_node)
        self.config = config or RpcRdmaConfig()
        c_strat = self._make_strategy(strategy, self.client_node)
        s_strat = self._make_strategy(strategy, self.server_node)
        if design == "rw":
            self.client = ReadWriteClient(self.client_node, qc, self.config, c_strat)
            self.server = ReadWriteServer(self.server_node, qs, self.config, s_strat)
        else:
            self.client = ReadReadClient(self.client_node, qc, self.config, c_strat)
            self.server = ReadReadServer(self.server_node, qs, self.config, s_strat)
        self.rpc_server = RpcServer(self.sim, self.server_node.cpu,
                                    SecurityPolicy(), nthreads=server_threads)
        self.server.attach(self.rpc_server)

    def _make_strategy(self, kind, node):
        if kind == "dynamic":
            return DynamicRegistration(node)
        if kind == "fmr":
            return FmrStrategy(node)
        if kind == "cache":
            return RegistrationCacheStrategy(node)
        if kind == "all-physical":
            return AllPhysicalStrategy(node)
        raise ValueError(kind)

    def serve(self, handler):
        self.rpc_server.register_program(NFS_PROG, NFS_VERS, handler)

    def run(self, proc):
        result = self.sim.run_until_complete(self.sim.process(proc))
        self.sim.run(until=self.sim.now + 10_000.0)  # drain in-flight traffic
        return result


def echo_handler(sim, delay=2.0):
    def handler(call):
        yield sim.timeout(delay)
        return RpcReply(xid=call.xid, header=call.header,
                        read_payload=call.write_payload)
    return handler


def read_handler(sim, blob):
    """Serves slices of ``blob`` like an NFS READ.

    The requested count travels in the call header (as real NFS READ
    args do) — server code never sees the client-side hint fields.
    """
    def handler(call):
        yield sim.timeout(1.0)
        want = min(int.from_bytes(call.header[:8], "big"), len(blob))
        return RpcReply(xid=call.xid, header=b"OKOK", read_payload=blob[:want])
    return handler


def read_call(size, **kwargs):
    return RpcCall(prog=NFS_PROG, vers=NFS_VERS, proc=6,
                   header=size.to_bytes(8, "big"), read_len_hint=size, **kwargs)


@pytest.mark.parametrize("design", ["rw", "rr"])
def test_small_inline_roundtrip(design):
    rig = Rig(design=design)
    rig.serve(echo_handler(rig.sim))

    def proc():
        reply = yield from rig.client.call(
            RpcCall(prog=NFS_PROG, vers=NFS_VERS, proc=0, header=b"ping")
        )
        return reply

    reply = rig.run(proc())
    assert reply.header[:4] == b"ping"
    assert reply.read_payload is None


@pytest.mark.parametrize("design", ["rw", "rr"])
@pytest.mark.parametrize("size", [8 * 1024, 128 * 1024, 1024 * 1024])
def test_bulk_read_integrity(design, size):
    rig = Rig(design=design)
    blob = bytes(range(256)) * (size // 256)
    rig.serve(read_handler(rig.sim, blob))

    def proc():
        reply = yield from rig.client.call(
            read_call(size)
        )
        return reply

    reply = rig.run(proc())
    assert reply.read_payload == blob[:size]


@pytest.mark.parametrize("design", ["rw", "rr"])
@pytest.mark.parametrize("size", [4 * 1024, 256 * 1024])
def test_bulk_write_integrity(design, size):
    rig = Rig(design=design)
    seen = {}

    def handler(call):
        yield rig.sim.timeout(1.0)
        seen["data"] = call.write_payload
        return RpcReply(xid=call.xid, header=b"done")

    rig.serve(handler)
    payload = bytes(i % 251 for i in range(size))

    def proc():
        yield from rig.client.call(
            RpcCall(prog=NFS_PROG, vers=NFS_VERS, proc=7, header=b"writ",
                    write_payload=payload)
        )

    rig.run(proc())
    assert seen["data"] == payload


@pytest.mark.parametrize("design", ["rw", "rr"])
def test_tiny_write_goes_inline_no_chunks(design):
    rig = Rig(design=design)
    seen = {}

    def handler(call):
        yield rig.sim.timeout(0.5)
        seen["data"] = call.write_payload
        return RpcReply(xid=call.xid, header=b"ok..")

    rig.serve(handler)

    def proc():
        yield from rig.client.call(
            RpcCall(prog=NFS_PROG, vers=NFS_VERS, proc=7, header=b"writ",
                    write_payload=b"tiny-payload")
        )

    rig.run(proc())
    assert seen["data"] == b"tiny-payload"
    # Inline path: no RDMA Reads happened at all.
    assert rig.server_node.hca.reads.value == 0
    assert rig.client_node.hca.reads.value == 0


@pytest.mark.parametrize("design", ["rw", "rr"])
def test_long_call_via_read_chunks(design):
    rig = Rig(design=design)
    big_args = bytes(range(256)) * 32  # 8 KB of RPC header
    seen = {}

    def handler(call):
        yield rig.sim.timeout(0.5)
        seen["args"] = call.header
        return RpcReply(xid=call.xid, header=b"ok..")

    rig.serve(handler)

    def proc():
        yield from rig.client.call(
            RpcCall(prog=NFS_PROG, vers=NFS_VERS, proc=1, header=big_args)
        )

    rig.run(proc())
    assert seen["args"][: len(big_args)] == big_args
    # The long call was fetched by server-issued RDMA Read.
    assert rig.server_node.hca.reads.value >= len(big_args)


@pytest.mark.parametrize("design", ["rw", "rr"])
def test_long_reply_roundtrip(design):
    rig = Rig(design=design)
    big_result = b"direntry" * 2048  # 16 KB reply header (READDIR-ish)

    def handler(call):
        yield rig.sim.timeout(0.5)
        return RpcReply(xid=call.xid, header=big_result)

    rig.serve(handler)

    def proc():
        reply = yield from rig.client.call(
            RpcCall(prog=NFS_PROG, vers=NFS_VERS, proc=16, header=b"rdir",
                    reply_len_hint=32 * 1024)
        )
        return reply

    reply = rig.run(proc())
    assert reply.header[: len(big_result)] == big_result


def test_rw_design_uses_rdma_write_for_read_data():
    rig = Rig(design="rw")
    rig.serve(read_handler(rig.sim, bytes(128 * 1024)))

    def proc():
        yield from rig.client.call(
            read_call(128 * 1024)
        )

    rig.run(proc())
    assert rig.server_node.hca.writes.value >= 128 * 1024  # server wrote
    assert rig.client_node.hca.reads.value == 0             # client never read


def test_rr_design_uses_client_rdma_read_for_read_data():
    rig = Rig(design="rr")
    rig.serve(read_handler(rig.sim, bytes(128 * 1024)))

    def proc():
        yield from rig.client.call(
            read_call(128 * 1024)
        )

    rig.run(proc())
    assert rig.client_node.hca.reads.value >= 128 * 1024   # client fetched
    assert rig.server_node.hca.writes.value == 0            # server never wrote


def test_rw_server_never_exposes_stags():
    """§4.2: in the Read-Write design the server TPT exposes nothing."""
    rig = Rig(design="rw")
    rig.serve(read_handler(rig.sim, bytes(256 * 1024)))

    def proc():
        for _ in range(4):
            yield from rig.client.call(
                read_call(256 * 1024)
            )

    rig.run(proc())
    assert rig.server_node.hca.tpt.remotely_exposed() == []
    assert len(rig.server_node.hca.tpt.stags_exposed_ever) == 0


def test_rr_server_exposes_stags_and_done_releases_them():
    rig = Rig(design="rr")
    rig.serve(read_handler(rig.sim, bytes(256 * 1024)))

    def proc():
        yield from rig.client.call(
            RpcCall(prog=NFS_PROG, vers=NFS_VERS, proc=6, header=b"read",
                    read_len_hint=256 * 1024)
        )

    rig.run(proc())
    # Exposure happened during the exchange...
    assert len(rig.server_node.hca.tpt.stags_exposed_ever) >= 1
    # ...but the DONE released everything by the end.
    assert rig.server.pending_done_count == 0
    assert rig.server_node.hca.tpt.remotely_exposed() == []
    assert rig.server.dones_received.events == 1


def test_rr_done_message_costs_an_extra_server_message():
    sizes = {}
    for design in ("rw", "rr"):
        rig = Rig(design=design)
        rig.serve(read_handler(rig.sim, bytes(128 * 1024)))

        def proc():
            yield from rig.client.call(
                read_call(128 * 1024)
            )

        rig.run(proc())
        sizes[design] = rig.client.headers_sent.events
    assert sizes["rr"] == sizes["rw"] + 1  # call + DONE vs call only


def test_rw_read_latency_beats_rr():
    """The paper's headline: fewer messages + no bounce copy => faster READ."""
    times = {}
    for design in ("rw", "rr"):
        rig = Rig(design=design)
        rig.serve(read_handler(rig.sim, bytes(128 * 1024)))

        def proc():
            yield from rig.client.call(
                read_call(128 * 1024)
            )
            return rig.sim.now

        times[design] = rig.run(proc())
    assert times["rw"] < times["rr"]


@pytest.mark.parametrize("strategy", ["dynamic", "fmr", "cache", "all-physical"])
def test_all_strategies_preserve_integrity(strategy):
    rig = Rig(design="rw", strategy=strategy)
    blob = bytes(i % 239 for i in range(512 * 1024))
    rig.serve(read_handler(rig.sim, blob))

    def proc():
        reply = yield from rig.client.call(
            read_call(512 * 1024)
        )
        return reply

    reply = rig.run(proc())
    assert reply.read_payload == blob


def test_cache_strategy_hits_on_repeat_ops():
    rig = Rig(design="rw", strategy="cache")
    rig.serve(read_handler(rig.sim, bytes(128 * 1024)))

    def proc():
        for _ in range(5):
            yield from rig.client.call(
                read_call(128 * 1024)
            )

    rig.run(proc())
    strat = rig.server.strategy
    assert strat.hits.events >= 4  # first op misses, the rest hit
    assert strat.misses.events <= 1


def test_cache_strategy_faster_than_dynamic():
    times = {}
    for strategy in ("dynamic", "cache"):
        rig = Rig(design="rw", strategy=strategy)
        rig.serve(read_handler(rig.sim, bytes(128 * 1024)))

        def proc():
            for _ in range(10):
                yield from rig.client.call(
                    RpcCall(prog=NFS_PROG, vers=NFS_VERS, proc=6, header=b"read",
                            read_len_hint=128 * 1024)
                )
            return rig.sim.now

        times[strategy] = rig.run(proc())
    assert times["cache"] < times["dynamic"]


def test_concurrent_calls_all_complete():
    rig = Rig(design="rw")
    blob = bytes(128 * 1024)
    rig.serve(read_handler(rig.sim, blob))
    done = []

    def caller(i):
        reply = yield from rig.client.call(
            read_call(128 * 1024)
        )
        done.append((i, len(reply.read_payload)))

    for i in range(16):
        rig.sim.process(caller(i))
    rig.sim.run()
    assert len(done) == 16
    assert all(n == 128 * 1024 for _, n in done)


def test_credit_limit_caps_outstanding_calls():
    config = RpcRdmaConfig(credits=4)
    rig = Rig(design="rw", config=config)
    rig.serve(echo_handler(rig.sim, delay=50.0))

    def caller():
        yield from rig.client.call(
            RpcCall(prog=NFS_PROG, vers=NFS_VERS, proc=0, header=b"ping")
        )

    for _ in range(12):
        rig.sim.process(caller())
    rig.sim.run()
    assert rig.client.credits.outstanding_peak <= 4
    assert rig.client.credits.waits.events > 0


def test_zero_copy_read_uses_caller_buffer():
    rig = Rig(design="rw")
    blob = bytes(i % 199 for i in range(128 * 1024))
    rig.serve(read_handler(rig.sim, blob))
    app_buffer = rig.client_node.arena.alloc(128 * 1024)

    def proc():
        reply = yield from rig.client.call(
            read_call(128 * 1024, read_buffer=app_buffer)
        )
        return reply

    reply = rig.run(proc())
    # Data landed directly in the application buffer: true zero copy.
    assert app_buffer.peek(0, 128 * 1024) == blob
    assert reply.read_payload == blob
    assert rig.client.zero_copy_reads.events == 1
    assert rig.client.buffered_reads.events == 0
