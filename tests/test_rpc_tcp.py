"""Tests for TCP substrate and RPC-over-TCP end-to-end."""

import functools

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

# ---------------------------------------------------------------- segment
SEGMENT_SNIPPET = """
import gc, json
from repro.ib.link import LinkFaultHook
from repro.osmodel import CPU, CPUConfig, InterruptController
from repro.sim import Interrupt, Simulator
from repro.sim.engine import ACTIVE_CORE
from repro.tcpip import IPOIB_PROFILE, TcpConnection, TcpEndpoint

assert ACTIVE_CORE == {core!r}, ACTIVE_CORE
#: every simulator stays referenced until the garbage check has run
KEEP = []


def rig(client_cores=2, server_cores=2):
    sim = Simulator()
    KEEP.append(sim)
    eps = []
    for name, cores in (("client", client_cores), ("server", server_cores)):
        cpu = CPU(sim, CPUConfig(cores=cores), name=name + ".cpu")
        irq = InterruptController(sim, cpu, cost_us=4.0, name=name + ".irq")
        eps.append(TcpEndpoint(sim, cpu, irq, IPOIB_PROFILE, name=name))
    c, s = eps
    return sim, c, s, TcpConnection(c, s)


def state(sim, c, s):
    ports = (c.port.tx, c.port.rx, s.port.tx, s.port.rx)
    return {{
        "now": sim.now, "steps": sim.steps,
        "busy_us": [c.cpu.busy_us_total, s.cpu.busy_us_total],
        "cores": [c.cpu.cores.count, c.cpu.cores.queue_length,
                  s.cpu.cores.count, s.cpu.cores.queue_length],
        "arbiters": [p.arbiter.count for p in ports]
                    + [p.arbiter.queue_length for p in ports],
        "port_busy_us": [p.meter.busy_time() for p in ports],
        "bytes_carried": [p.bytes_carried.value for p in ports],
        "irq_delivered": [c.irq.delivered.events, s.irq.delivered.events],
    }}


class Spike(LinkFaultHook):
    def transfer_delay_us(self, link, nbytes):
        return 7.5 if link.name.startswith("client") and nbytes % 2 == 0 else 0.0


def spiked():
    # Segments of 8192, 8192 and 3616 bytes leave the client, the odd
    # 20001-byte tail does not spike, and the server's replies are
    # never spiked: the hook is on the client's port only.
    sim, c, s, conn = rig()
    c.port.fault_hook = Spike()
    returns = []

    def sender(side, sizes):
        for size in sizes:
            yield from conn.send(side, bytes(size))
            returns.append([side.name, size, sim.now])

    def receiver(side, n):
        for _ in range(n):
            yield conn.recv(side)

    sim.process(sender(c, [20000, 20001, 0]))
    sim.process(sender(s, [20000, 8192]))
    sim.process(receiver(s, 3))
    sim.process(receiver(c, 2))
    sim.run()
    return {{"returns": returns, **state(sim, c, s)}}


def aborted(where, how):
    # The victim segment waits, at 50 us, for the client's CPU (queued
    # behind a 100 us competitor on the one core) or for the client's
    # egress (a 100 us competitor holds it), or at 80 us for the
    # server's rx stage (the segment ahead of it holds that stage while
    # it waits for the server's one core, busy until 100 us).
    sim, c, s, conn = rig(client_cores=1 if where == "tx" else 2,
                          server_cores=1 if where == "rx" else 2)
    blocked = {{"tx": c.cpu.cores, "wire": c.port.tx.arbiter,
               "rx": s.cpu.cores}}[where]
    size = {{"tx": 10000, "wire": 1000, "rx": 10000}}[where]
    log = []

    def competitor():
        yield from blocked.hold(100.0)

    def sender(size, at):
        yield sim.timeout(at)
        yield from conn.send(c, bytes(size))
        log.append(["sent", size, sim.now])

    def receiver():
        while True:
            msg = yield conn.recv(s)
            log.append(["received", len(msg), sim.now])

    def watcher(proc):
        try:
            value = yield proc
            log.append(["victim returned", value, sim.now])
        except BaseException as exc:
            log.append(["victim raised", type(exc).__name__, sim.now])

    def waits_for(proc):
        resource = getattr(proc._waiting_on, "resource", None)
        return resource is not None and (resource is blocked) == (where != "rx")

    def actor():
        yield sim.timeout(80.0 if where == "rx" else 50.0)
        victims = [o for o in gc.get_objects()
                   if type(o).__name__ == "Process" and o.name == "_segment"
                   and o.sim is sim and o.is_alive and waits_for(o)]
        assert len(victims) == 1, victims
        victim = victims[0]
        log.append(["waits on", victim._waiting_on.resource.name or "stage"])
        if how == "throw":
            victim.interrupt("stop")
        else:
            victim._generator.close()
            log.append(["closed", sim.now])
        log.append(["at abort", state(sim, c, s)["cores"],
                    state(sim, c, s)["arbiters"]])
        sim.process(watcher(victim))

    sim.process(competitor())
    sim.process(sender(size, 0.0))
    sim.process(sender(3000, 200.0))    # does the pipeline still flow?
    sim.process(receiver())
    sim.process(actor())
    sim.run()
    end = state(sim, c, s)
    return {{"log": log,
             "end": [end["now"], end["steps"], *end["busy_us"],
                     end["bytes_carried"][0], *end["irq_delivered"]],
             "claims": end["cores"] + end["arbiters"]}}


def segments_alive():
    return sum(1 for o in gc.get_objects()
               if type(o).__name__ == "Segment"
               or (type(o).__name__ == "generator" and o.__name__ == "_segment"))


def garbage():
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    spiked()
    gc.collect()
    refcount_only = sorted(type(o).__qualname__ for o in gc.garbage)
    gc.set_debug(0)
    gc.garbage.clear()
    KEEP.clear()
    gc.collect()
    gc.collect()

    def pending():
        sim, c, s, conn = rig(client_cores=1, server_cores=1)

        def sender(side):
            yield from conn.send(side, bytes(100_000))

        sim.process(sender(c))
        sim.process(sender(s))
        sim.run(until=150.0)            # segments claiming all three stages
        return segments_alive()

    alive = pending()
    KEEP.clear()
    # The python core's generators close when collected, and a segment
    # closed in its tx work boots its successor: the first pass only
    # runs those finalizers, the second frees what they left.
    gc.collect()
    gc.collect()
    gc.enable()
    return {{"refcount_only": refcount_only, "pending": alive,
             "after_drop": segments_alive()}}


print(json.dumps({{"spiked": spiked(),
                  "aborted": {{f"{{where}}-{{how}}": aborted(where, how)
                              for where in ("tx", "wire", "rx")
                              for how in ("throw", "close")}},
                  "garbage": garbage()}}))
"""


@functools.lru_cache(maxsize=None)
def segment_report(core: str) -> dict:
    return run_json(core, SEGMENT_SNIPPET.format(core=core))


@pytest.mark.parametrize("core", CORES)
def test_fault_hook_spike_delays_the_sending_ports_segments(core):
    """A hook installed on the client's port after wiring spikes the even
    segments the client sends, through ``Route.carry``'s ``_after_spike``
    path; the literals were recorded before segments were compiled."""
    got = segment_report(core)["spiked"]
    assert got["returns"] == [
        ["server", 20000, 168.14210526315787],
        ["client", 20000, 175.64210526315787],
        ["server", 8192, 259.38421052631577],
        ["client", 20001, 351.2873355263158],
        ["client", 0, 395.3262828947369],
    ]
    assert got["busy_us"] == [380.1025000000001, 399.4831250000001]
    assert got["port_busy_us"] == [45.878947368421095, 31.831578947368413,
                                   31.831578947368413, 45.878947368421095]
    assert got["bytes_carried"] == [40001.0, 28192.0, 28192.0, 40001.0]
    assert got["irq_delivered"] == [4, 7]
    assert [got["now"], got["steps"]] == [395.3262828947369, 166]
    assert got["cores"] + got["arbiters"] == [0] * 12


#: per (wait, abort): the victim's log, then [now, steps, client and
#: server CPU busy, client egress bytes, client and server interrupts]
ABORTED = {
    "tx-throw": ([["waits on", "client.cpu.cores"],
                  ["at abort", [1, 1, 0, 0], [0] * 8],
                  ["victim raised", "Interrupt", 50.0],
                  ["received", 3000, 256.57184210526316],
                  ["sent", 3000, 256.57184210526316]],
                 [256.57184210526316, 48, 44.019999999999996, 55.025, 4808.0, 0, 2]),
    "tx-close": ([["waits on", "client.cpu.cores"],
                  ["closed", 50.0],
                  ["at abort", [1, 1, 0, 0], [0] * 8],
                  ["victim raised", "SimulationError", 50.0],
                  ["received", 3000, 256.57184210526316],
                  ["sent", 3000, 256.57184210526316]],
                 [256.57184210526316, 47, 44.019999999999996, 55.025, 4808.0, 0, 2]),
    "wire-throw": ([["waits on", "client.ipoib.tx.arbiter"],
                    ["at abort", [0, 0, 0, 0], [1, 0, 0, 0, 1, 0, 0, 0]],
                    ["victim raised", "Interrupt", 50.0],
                    ["received", 3000, 256.57184210526316],
                    ["sent", 3000, 256.57184210526316]],
                   [256.57184210526316, 38, 42.0, 29.375, 4000.0, 0, 1]),
    "wire-close": ([["waits on", "client.ipoib.tx.arbiter"],
                    ["closed", 50.0],
                    ["at abort", [0, 0, 0, 0], [1, 0, 0, 0, 1, 0, 0, 0]],
                    ["victim raised", "SimulationError", 50.0],
                    ["received", 3000, 256.57184210526316],
                    ["sent", 3000, 256.57184210526316]],
                   [256.57184210526316, 37, 42.0, 29.375, 4000.0, 0, 1]),
    # Waiting for the rx stage holds nothing to give back: the victim's
    # stage claim stays queued, so once granted the stage is never
    # released and the later 3000-byte message is never delivered.
    "rx-throw": ([["waits on", "stage"],
                  ["at abort", [0, 0, 1, 1], [0] * 8],
                  ["victim raised", "Interrupt", 80.0]],
                 [227.19684210526316, 43, 80.5, 45.6, 13000.0, 0, 1]),
    "rx-close": ([["waits on", "stage"],
                  ["closed", 80.0],
                  ["at abort", [0, 0, 1, 1], [0] * 8],
                  ["victim returned", None, 145.6]],
                 [227.19684210526316, 42, 80.5, 45.6, 13000.0, 0, 1]),
}


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("case", sorted(ABORTED))
def test_throw_and_close_run_the_segments_finally_clauses(core, case):
    """A throw or close reaching a segment that waits for the tx CPU, the
    wire or the rx stage releases what the reference generator's
    ``finally`` clauses release, and the victim fails with the same
    exception at the same instant under both cores.

    In its tx work the victim still hands the slot on, so the message's
    second segment and a later message go through; in the wire its
    claims go back and the later message goes through.  The victim
    never counts down, so its own message never completes.
    """
    got = segment_report(core)["aborted"][case]
    assert (got["log"], got["end"]) == ABORTED[case]
    assert got["claims"] == [0] * 12


@pytest.mark.parametrize("core", CORES)
def test_segments_leave_no_cyclic_garbage(core):
    """A run of segments frees everything by reference counting, and a
    simulation dropped with segments claiming every stage is collected
    whole."""
    assert segment_report(core)["garbage"] == {
        "refcount_only": [], "pending": 8, "after_drop": 0}


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
