"""Tests for TCP substrate and RPC-over-TCP end-to-end."""

import pytest

from repro.osmodel import CPU, CPUConfig, InterruptController
from repro.rpc import RpcCall, RpcReply, RpcServer, TcpRpcClient, TcpRpcServerTransport
from repro.rpc.msg import RpcCall as Call
from repro.sim import Simulator
from repro.tcpip import GIGE_PROFILE, IPOIB_PROFILE, TcpConnection, TcpEndpoint
from tests._cores import CORES, run_json


def make_endpoints(profile=IPOIB_PROFILE, cores=2):
    sim = Simulator()
    eps = []
    for name in ("client", "server"):
        cpu = CPU(sim, CPUConfig(cores=cores), name=f"{name}.cpu")
        irq = InterruptController(sim, cpu, cost_us=4.0, name=f"{name}.irq")
        eps.append(TcpEndpoint(sim, cpu, irq, profile, name=name))
    return sim, eps[0], eps[1]


# ---------------------------------------------------------------- tcp
def test_tcp_message_delivery_roundtrip():
    sim, c, s = make_endpoints()
    conn = TcpConnection(c, s)
    got = []

    def client():
        yield from conn.send(c, b"request-bytes")
        reply = yield conn.recv(c)
        got.append(reply)

    def server():
        msg = yield conn.recv(s)
        assert msg == b"request-bytes"
        yield from conn.send(s, b"reply-bytes")

    sim.process(client())
    sim.process(server())
    sim.run()
    assert got == [b"reply-bytes"]


def test_tcp_charges_cpu_on_both_sides():
    sim, c, s = make_endpoints()
    conn = TcpConnection(c, s)

    def proc():
        yield from conn.send(c, bytes(256 * 1024))

    sim.run_until_complete(sim.process(proc()))
    assert c.cpu.busy_us_total > 100.0  # tx copies
    assert s.cpu.busy_us_total > 100.0  # rx copies + interrupts


def test_tcp_preserves_message_order():
    sim, c, s = make_endpoints()
    conn = TcpConnection(c, s)
    seen = []

    def client():
        for i in range(5):
            yield from conn.send(c, f"m{i}".encode())

    def server():
        for _ in range(5):
            seen.append((yield conn.recv(s)))

    sim.process(client())
    sim.process(server())
    sim.run()
    assert seen == [b"m0", b"m1", b"m2", b"m3", b"m4"]


def test_tcp_mixed_profiles_rejected():
    sim, c, s = make_endpoints(GIGE_PROFILE)
    other = TcpEndpoint(sim, c.cpu, c.irq, IPOIB_PROFILE, name="odd")
    with pytest.raises(ValueError):
        TcpConnection(c, other)


def test_tcp_closed_connection_rejects_send():
    sim, c, s = make_endpoints()
    conn = TcpConnection(c, s)
    conn.close()

    def proc():
        yield from conn.send(c, b"x")

    with pytest.raises(ConnectionError):
        sim.run_until_complete(sim.process(proc()))


def test_gige_throughput_near_line_rate():
    """A large transfer on GigE lands near the paper's ~107 MB/s."""
    sim, c, s = make_endpoints(GIGE_PROFILE, cores=2)
    conn = TcpConnection(c, s)
    size = 4 * 1024 * 1024

    def proc():
        yield from conn.send(c, bytes(size))

    sim.run_until_complete(sim.process(proc()))
    mb_s = size / sim.now  # bytes/us == MB/s
    assert 90.0 < mb_s < 125.0


def test_ipoib_faster_than_gige_but_below_wire():
    results = {}
    for profile in (GIGE_PROFILE, IPOIB_PROFILE):
        sim, c, s = make_endpoints(profile)
        conn = TcpConnection(c, s)
        size = 4 * 1024 * 1024

        def proc():
            yield from conn.send(c, bytes(size))

        sim.run_until_complete(sim.process(proc()))
        results[profile.name] = size / sim.now
    # IPoIB beats GigE (faster wire) but sits far below the IB line rate:
    # 2007-era IPoIB was host-cost-bound (copies, checksums, small MTU).
    assert results["ipoib"] > 1.5 * results["gige"]
    assert results["ipoib"] < 500.0


SEND_SNIPPET = """
import json
from repro.osmodel import CPU, CPUConfig, InterruptController
from repro.sim import Simulator
from repro.sim.engine import ACTIVE_CORE
from repro.tcpip import GIGE_PROFILE, IPOIB_PROFILE, TcpConnection, TcpEndpoint

assert ACTIVE_CORE == {core!r}, ACTIVE_CORE
sim = Simulator()
eps = []
for name in ("client", "server"):
    cpu = CPU(sim, CPUConfig(cores=2), name=name + ".cpu")
    irq = InterruptController(sim, cpu, cost_us=4.0, name=name + ".irq")
    eps.append(TcpEndpoint(sim, cpu, irq, {profile}, name=name))
c, s = eps
conn = TcpConnection(c, s)


def sender():
    yield from conn.send(c, bytes({size}))
    return sim.now


def receiver():
    assert len((yield conn.recv(s))) == {size}


proc = sim.process(sender())
sim.process(receiver())
sim.run()
print(json.dumps([proc.value, sim.steps]))
"""


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("profile,size,returns_at,steps", [
    # Segments of 32768, 32768 and 4464 bytes.  A 32 KB segment is two
    # wire chunks, so the tail leaves the wire at 624.96 us, before
    # segments 0 and 1: a send that completed on the last-indexed
    # segment would return at 641.33 us.
    pytest.param("GIGE_PROFILE", 70_000, 779.84, 48, id="gige-70000"),
    # 128 segments of 8 KB, each booted by its predecessor: one tx-slot
    # grant and one countdown event per message.
    pytest.param("IPOIB_PROFILE", 1 << 20, 5882.442105263167, 1544, id="ipoib-1MiB"),
])
def test_send_returns_when_last_segment_finishes(core, profile, size, returns_at, steps):
    """A send returns when its last segment to finish is delivered.

    The tx slot is claimed once per message and segments boot their
    successors in order.  The step count pins that event budget: n
    boots, one grant and one countdown event per n-segment message.
    """
    now, taken = run_json(core, SEND_SNIPPET.format(core=core, profile=profile, size=size))
    assert now == pytest.approx(returns_at, abs=1e-9)
    assert taken == steps


def test_foreign_endpoint_rejected_everywhere():
    """send, recv and pending all refuse an endpoint outside the connection."""
    sim, c, s = make_endpoints()
    conn = TcpConnection(c, s)
    stranger = TcpEndpoint(sim, c.cpu, c.irq, IPOIB_PROFILE, name="stranger")
    with pytest.raises(ValueError):
        next(conn.send(stranger, b"x"))
    with pytest.raises(ValueError):
        conn.recv(stranger)
    with pytest.raises(ValueError):
        conn.pending(stranger)


PLAN_SNIPPET = """
import json
from repro.osmodel import CPU, CPUConfig, InterruptController
from repro.sim import Simulator
from repro.sim.engine import ACTIVE_CORE
from repro.tcpip import GIGE_PROFILE, IPOIB_PROFILE, TcpConnection, TcpEndpoint

assert ACTIVE_CORE == {core!r}, ACTIVE_CORE
sim = Simulator()
profile = {profile}
eps = []
# Unequal copy bandwidths, so a price taken from the wrong host shows.
for name, memcpy_mb_s in (("client", 1600.0), ("server", 1100.0)):
    cpu = CPU(sim, CPUConfig(cores=2, memcpy_mb_s=memcpy_mb_s), name=name + ".cpu")
    irq = InterruptController(sim, cpu, cost_us=4.0, name=name + ".irq")
    eps.append(TcpEndpoint(sim, cpu, irq, profile, name=name))
c, s = eps
conn = TcpConnection(c, s)
step = profile.segment_bytes
sizes = [0, 1, step - 1, step, step + 1, 1 << 20]


def sender(side, returns):
    for size in sizes:
        yield from conn.send(side, bytes(size))
        returns.append(sim.now)


def receiver(side):
    for size in sizes:
        assert len((yield conn.recv(side))) == size


def competitor():
    while True:
        yield from c.cpu.consume(7.5)
        yield sim.timeout(3.0)


returns = ([], [])
senders = [sim.process(sender(c, returns[0])), sim.process(sender(s, returns[1]))]
sim.process(receiver(c))
sim.process(receiver(s))
sim.process(competitor())


def main():
    yield sim.all_of(senders)


sim.run_until_complete(sim.process(main()))
print(json.dumps({{
    "returns": returns,
    "busy_us": [c.cpu.busy_us_total, s.cpu.busy_us_total],
    "bytes_carried": [c.port.tx.bytes_carried.value, c.port.rx.bytes_carried.value,
                      s.port.tx.bytes_carried.value, s.port.rx.bytes_carried.value],
    "irq_delivered": [c.irq.delivered.events, s.irq.delivered.events],
    "steps": sim.steps,
}}))
"""


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("profile,expected", [
    pytest.param("GIGE_PROFILE", {
        "returns": [[32.0, 64.01197727272726, 488.4712727272727,
                     912.9425454545454, 1353.4218181818183, 12535.906181818204],
                    [32.0, 64.01169318181817, 479.16218181818186,
                     894.3243636363636, 1325.4945454545457, 11673.680727272746]],
        "busy_us": [12953.503125000014, 5665.09545454545],
        "bytes_carried": [1146881.0, 1146881.0, 1146881.0, 1146881.0],
        "irq_delivered": [37, 37],
        "steps": 4745,
    }, id="gige"),
    pytest.param("IPOIB_PROFILE", {
        "returns": [[36.53894736842105, 73.0859928229665, 175.95636363636362,
                     278.83483253588514, 401.71784688995217, 7773.614497607635],
                    [36.53894736842105, 73.08570873205741, 173.6290909090909,
                     274.1802870813397, 396.9204575358852, 7408.257846889962]],
        "busy_us": [14415.485624999996, 13604.342727272779],
        "bytes_carried": [1073153.0, 1073153.0, 1073153.0, 1073153.0],
        "irq_delivered": [134, 134],
        "steps": 4698,
    }, id="ipoib"),
])
def test_segment_costs_bit_identical(core, profile, expected):
    """Per-segment tx/rx CPU prices, wire bytes and interrupts are pinned.

    Messages of 0, 1, segment-1, segment, segment+1 bytes and 1 MiB go
    both ways at once while another process competes for the client
    CPU, so the empty segment, a tail, an exact fit, a one-byte tail and
    a long run of full segments all price and interleave.  Every float is
    compared exactly.  The literals were recorded while every segment
    priced itself, so pricing a message once per distinct segment size
    must give the same bits.
    """
    got = run_json(core, PLAN_SNIPPET.format(core=core, profile=profile))
    assert got == expected


# ---------------------------------------------------------------- rpc messages
def test_rpc_call_encode_decode_roundtrip():
    call = Call(prog=100003, vers=3, proc=6, header=b"\x01\x02\x03\x04")
    decoded = Call.decode(call.encode())
    assert decoded.xid == call.xid
    assert (decoded.prog, decoded.vers, decoded.proc) == (100003, 3, 6)
    assert decoded.header[:4] == b"\x01\x02\x03\x04"


def test_rpc_reply_encode_decode_roundtrip():
    reply = RpcReply(xid=77, header=b"\xAA\xBB\xCC\xDD")
    decoded = RpcReply.decode(reply.encode())
    assert decoded.xid == 77
    assert decoded.header[:4] == b"\xAA\xBB\xCC\xDD"


def test_rpc_xids_unique():
    xids = {Call(prog=1, vers=1, proc=0).xid for _ in range(100)}
    assert len(xids) == 100


# ---------------------------------------------------------------- rpc over tcp
def echo_rig(profile=IPOIB_PROFILE):
    sim, c, s = make_endpoints(profile)
    conn = TcpConnection(c, s)
    client = TcpRpcClient(c, conn)
    server_transport = TcpRpcServerTransport(s, conn)
    rpc_server = RpcServer(sim, s.cpu, nthreads=4)

    def echo_handler(call):
        yield sim.timeout(5.0)  # pretend the FS did something
        return RpcReply(
            xid=call.xid,
            header=call.header,
            read_payload=call.write_payload,
        )

    rpc_server.register_program(100003, 3, echo_handler)
    server_transport.attach(rpc_server)
    return sim, client, rpc_server


def test_rpc_over_tcp_roundtrip():
    sim, client, _ = echo_rig()
    out = []

    def proc():
        reply = yield from client.call(
            RpcCall(prog=100003, vers=3, proc=7, header=b"ARGS", write_payload=b"DATA" * 100)
        )
        out.append(reply)

    sim.run_until_complete(sim.process(proc()))
    assert out[0].header[:4] == b"ARGS"
    assert out[0].read_payload == b"DATA" * 100


def test_rpc_over_tcp_concurrent_calls_demuxed_by_xid():
    sim, client, _ = echo_rig()
    results = {}

    def caller(tag):
        reply = yield from client.call(
            RpcCall(prog=100003, vers=3, proc=1, header=tag.encode().ljust(4))
        )
        results[tag] = reply.header[:4].strip()

    for tag in ("a", "b", "c", "d", "e", "f"):
        sim.process(caller(tag))
    sim.run()
    assert results == {t: t.encode() for t in ("a", "b", "c", "d", "e", "f")}


def test_rpc_unknown_program_returns_error_stat():
    sim, client, _ = echo_rig()
    out = []

    def proc():
        reply = yield from client.call(RpcCall(prog=999, vers=1, proc=0, header=b""))
        out.append(reply)

    sim.run_until_complete(sim.process(proc()))
    assert out[0].stat == 1


def test_rpc_server_thread_pool_limits_concurrency():
    sim, client, rpc_server = echo_rig()
    done_at = []

    def caller():
        yield from client.call(RpcCall(prog=100003, vers=3, proc=1, header=b"abcd"))
        done_at.append(sim.now)

    for _ in range(8):
        sim.process(caller())
    sim.run()
    assert len(done_at) == 8
    # 8 calls, 4 server threads, 5us handler -> at least two waves.
    assert max(done_at) - min(done_at) >= 5.0
