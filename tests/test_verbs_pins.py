"""The verbs data path, pinned to literals under both sim cores.

Sends, RDMA Writes, RDMA Reads and a fenced Send behind a Read run
between two nodes while a CPU competitor keeps both nodes' cores busy.
Sizes cover the empty and one-byte messages, the inline threshold, the
edges of one wire chunk and 1 MiB; every gather and scatter list has
one or two SGEs (scatter/gather elements).  Sources hold real bytes
with a ``Payload`` window laid over part of them, so gathers return
mixed payloads.  The literals below were recorded from the HCA as it
stood before the one-SGE gather/scatter path: every CQE's time,
status and length, the bytes each transfer placed, both CPUs' busy
time, the interrupt counts, both ports' byte counters, the TPT fault
counters and the engine's step count.

A second set of cases checks that the one-SGE path still refuses what
the TPT refuses: a bad steering tag, a missing access right and an
out-of-bounds range, on the remote target of a Write and of a Read,
and on the local gather and scatter lists.  Each case runs in a fresh
subprocess per core (``tests/_cores.py``).
"""

import pytest

from tests._cores import CORES, run_json

PRELUDE = """
import hashlib
import json
from repro.ib import (AccessFlags, Fabric, RdmaReadWR, RdmaWriteWR, RecvWR,
                      Segment, SendWR)
from repro.payload import Payload
from repro.sim import Simulator
from repro.sim.engine import ACTIVE_CORE

assert ACTIVE_CORE == {core!r}, ACTIVE_CORE
LW = AccessFlags.LOCAL_WRITE
RR = AccessFlags.REMOTE_READ
RW = AccessFlags.REMOTE_WRITE


def pair():
    sim = Simulator()
    fabric = Fabric(sim, seed=42)
    a = fabric.add_node("a")
    b = fabric.add_node("b")
    qa, qb = fabric.connect(a, b)
    return sim, a, b, qa, qb


def register(sim, node, size, access):
    buf = node.arena.alloc(size)

    def proc():
        return (yield from node.hca.tpt.register(buf, access))

    return buf, sim.run_until_complete(sim.process(proc()))


def sges(mr, offset, size, n):
    # ``size`` bytes of ``mr`` from ``offset``, split over ``n`` SGEs.
    if n == 1:
        return [Segment(mr.stag, mr.addr + offset, size)]
    half = size // 2
    return [Segment(mr.stag, mr.addr + offset, half),
            Segment(mr.stag, mr.addr + offset + half + 64, size - half)]


def digest(buf, offset, size):
    data = buf.peek(offset, size)
    data = data.tobytes() if isinstance(data, Payload) else bytes(data)
    return hashlib.sha1(data).hexdigest()[:16]
"""

DATA_PATH = PRELUDE + """
sim, a, b, qa, qb = pair()
edge = qa.route.chunk_bytes - qa.route.overhead_bytes
SIZES = [0, 1, 1024, edge - 1, edge, edge + 1, 1 << 20]
SPAN = (1 << 20) + 4096
pattern = bytes(range(251)) * (SPAN // 251 + 1)
asrc, asrc_mr = register(sim, a, SPAN, LW)
asrc.fill(pattern[:SPAN])
asrc.fill(Payload.tile(b"xyz", 40000, 5), 700)
adst, adst_mr = register(sim, a, SPAN, LW)
brecv, brecv_mr = register(sim, b, SPAN, LW)
bfence, bfence_mr = register(sim, b, 4096, LW)
bwin, bwin_mr = register(sim, b, SPAN, RW | RR)
bwin.fill(pattern[3:SPAN + 3])
bwin.fill(Payload.tile(b"q", 5000), 33000)
cqes = {{}}
placed = {{}}


def watch(tag, wr):
    yield wr.completion
    cqes[tag] = [sim.now, wr.cqe.status.value, wr.cqe.byte_len]


def competitor(node, pid):
    for i in range(2000):
        yield from node.cpu.consume(3.0 + (i % 7))
        yield sim.timeout(1.5 + pid)


def driver():
    for size in SIZES:
        for n in (1, 2):
            tag = f"{{size}}/{{n}}"
            recv = RecvWR(sim, sges(brecv_mr, 0, size, n))
            qb.post_recv(recv)
            sim.process(watch("recv/" + tag, recv))
            wrs = [
                ("send/" + tag, SendWR(sim, segments=sges(asrc_mr, 0, size, n))),
                ("write/" + tag, RdmaWriteWR(
                    sim, local=sges(asrc_mr, 100, size, n),
                    remote=Segment(bwin_mr.stag, bwin_mr.addr + 8, size))),
                ("read/" + tag, RdmaReadWR(
                    sim, local=sges(adst_mr, 0, size, n),
                    remote=Segment(bwin_mr.stag, bwin_mr.addr + 16, size))),
            ]
            fence_recv = RecvWR(sim, sges(bfence_mr, 0, 64, 1))
            qb.post_recv(fence_recv)
            sim.process(watch("fence_recv/" + tag, fence_recv))
            wrs.append(("fence/" + tag,
                        SendWR(sim, inline=b"after-read:" + tag.encode(),
                               fence=True)))
            for name, wr in wrs:
                yield from a.hca.post_send(qa, wr)
                sim.process(watch(name, wr))
            for name, wr in wrs:
                yield wr.completion
            yield recv.completion
            yield fence_recv.completion
            placed[tag] = [digest(brecv, 0, size // 2),
                           digest(brecv, size // 2 + (64 if n == 2 else 0),
                                  size - size // 2),
                           digest(bwin, 8, size),
                           digest(adst, 0, size // 2),
                           digest(adst, size // 2 + (64 if n == 2 else 0),
                                  size - size // 2)]


sim.process(competitor(a, 0))
sim.process(competitor(b, 1))
sim.run_until_complete(sim.process(driver()))
sim.run()
out = {{
    "cqes": cqes,
    "placed": placed,
    "busy_us": [a.cpu.busy_us_total, b.cpu.busy_us_total],
    "irq": [a.irq.delivered.value, b.irq.delivered.value],
    "port_bytes": [a.hca.port.tx.bytes_carried.value,
                   a.hca.port.rx.bytes_carried.value,
                   b.hca.port.tx.bytes_carried.value,
                   b.hca.port.rx.bytes_carried.value],
    "faults": [a.hca.tpt.protection_faults.value, dict(a.hca.tpt.faults_by_cause),
               b.hca.tpt.protection_faults.value, dict(b.hca.tpt.faults_by_cause)],
    "now": sim.now,
    "steps": sim.steps,
}}
print(json.dumps(out, sort_keys=True))
"""

REFUSAL = PRELUDE + """
sim, a, b, qa, qb = pair()
asrc, asrc_mr = register(sim, a, 16384, LW)
bwin, bwin_mr = register(sim, b, 8192, {rights})
brecv, brecv_mr = register(sim, b, 8192, {recv_rights})
case = {case!r}
stag = bwin_mr.stag + 1 if case.endswith("stag") else bwin_mr.stag
span = 8192 + 8 if case.endswith("bounds") else 4096
remote = Segment(stag, bwin_mr.addr, span)
if case.startswith("write"):
    wr = RdmaWriteWR(sim, local=[Segment(asrc_mr.stag, asrc_mr.addr, span)],
                     remote=remote)
elif case.startswith("read"):
    wr = RdmaReadWR(sim, local=[Segment(asrc_mr.stag, asrc_mr.addr, span)],
                    remote=remote)
elif case.startswith("gather"):
    lstag = asrc_mr.stag + 1 if case.endswith("stag") else asrc_mr.stag
    ladd = asrc_mr.addr + (16384 - 100 if case.endswith("bounds") else 0)
    wr = SendWR(sim, segments=[Segment(lstag, ladd, 4096)])
else:  # scatter: the receiver's one SGE refuses the Send's bytes
    qb.post_recv(RecvWR(sim, [Segment(
        brecv_mr.stag + 1 if case.endswith("stag") else brecv_mr.stag,
        brecv_mr.addr + (8192 - 100 if case.endswith("bounds") else 0), 4096)]))
    wr = SendWR(sim, segments=[Segment(asrc_mr.stag, asrc_mr.addr, 4096)])


def driver():
    yield from a.hca.post_send(qa, wr)
    yield wr.completion


sim.run_until_complete(sim.process(driver()))
sim.run()
print(json.dumps({{
    "status": wr.cqe.status.value,
    "faults": [a.hca.tpt.protection_faults.value, dict(a.hca.tpt.faults_by_cause),
               b.hca.tpt.protection_faults.value, dict(b.hca.tpt.faults_by_cause)],
    "states": [qa.state.value, qb.state.value],
}}, sort_keys=True))
"""

#: the data-path run, recorded before the one-SGE path.
EXPECTED = {'busy_us': [12369.9, 12235.75],
 'cqes': {'fence/0/1': [7585.931052631579, 'success', 14],
          'fence/0/2': [7693.931052631579, 'success', 14],
          'fence/1/1': [7801.501578947369, 'success', 14],
          'fence/1/2': [7909.070000000001, 'success', 14],
          'fence/1024/1': [8019.872105263159, 'success', 17],
          'fence/1024/2': [8130.472105263158, 'success', 17],
          'fence/1048576/1': [12810.634210526281, 'success', 20],
          'fence/1048576/2': [16230.73421052628, 'success', 20],
          'fence/32703/1': [8342.112105263155, 'success', 18],
          'fence/32703/2': [8552.112105263157, 'success', 18],
          'fence/32704/1': [8762.21526315789, 'success', 18],
          'fence/32704/2': [8972.315263157889, 'success', 18],
          'fence/32705/1': [9182.418421052622, 'success', 18],
          'fence/32705/2': [9392.51842105262, 'success', 18],
          'fence_recv/0/1': [7584.431052631579, 'success', 14],
          'fence_recv/0/2': [7692.431052631579, 'success', 14],
          'fence_recv/1/1': [7800.001578947369, 'success', 14],
          'fence_recv/1/2': [7907.570000000001, 'success', 14],
          'fence_recv/1024/1': [8018.372105263159, 'success', 17],
          'fence_recv/1024/2': [8128.972105263158, 'success', 17],
          'fence_recv/1048576/1': [12809.134210526281, 'success', 20],
          'fence_recv/1048576/2': [16229.23421052628, 'success', 20],
          'fence_recv/32703/1': [8340.612105263155, 'success', 18],
          'fence_recv/32703/2': [8550.612105263157, 'success', 18],
          'fence_recv/32704/1': [8760.71526315789, 'success', 18],
          'fence_recv/32704/2': [8970.815263157889, 'success', 18],
          'fence_recv/32705/1': [9180.918421052622, 'success', 18],
          'fence_recv/32705/2': [9391.01842105262, 'success', 18],
          'read/0/1': [7580.748947368421, 'success', 0],
          'read/0/2': [7688.748947368421, 'success', 0],
          'read/1/1': [7796.319473684211, 'success', 1],
          'read/1/2': [7903.887894736842, 'success', 1],
          'read/1024/1': [8014.686842105264, 'success', 1024],
          'read/1024/2': [8125.286842105263, 'success', 1024],
          'read/1048576/1': [12805.44578947365, 'success', 1048576],
          'read/1048576/2': [16225.545789473648, 'success', 1048576],
          'read/32703/1': [8336.925789473682, 'success', 32703],
          'read/32703/2': [8546.925789473684, 'success', 32703],
          'read/32704/1': [8757.028947368417, 'success', 32704],
          'read/32704/2': [8967.128947368416, 'success', 32704],
          'read/32705/1': [9177.232105263149, 'success', 32705],
          'read/32705/2': [9387.332105263147, 'success', 32705],
          'recv/0/1': [7484.317368421052, 'success', 0],
          'recv/0/2': [7592.317368421052, 'success', 0],
          'recv/1/1': [7699.885789473684, 'success', 1],
          'recv/1/2': [7807.454210526315, 'success', 1],
          'recv/1024/1': [7916.09947368421, 'success', 1024],
          'recv/1024/2': [8026.699473684209, 'success', 1024],
          'recv/1048576/1': [10501.485789473665, 'success', 1048576],
          'recv/1048576/2': [13921.585789473664, 'success', 1048576],
          'recv/32703/1': [8171.64578947368, 'success', 32703],
          'recv/32703/2': [8381.645789473681, 'success', 32703],
          'recv/32704/1': [8591.746842105258, 'success', 32704],
          'recv/32704/2': [8801.846842105257, 'success', 32704],
          'recv/32705/1': [9011.947894736833, 'success', 32705],
          'recv/32705/2': [9222.047894736832, 'success', 32705],
          'send/0/1': [7485.817368421052, 'success', 0],
          'send/0/2': [7593.817368421052, 'success', 0],
          'send/1/1': [7701.385789473684, 'success', 1],
          'send/1/2': [7808.954210526315, 'success', 1],
          'send/1024/1': [7917.59947368421, 'success', 1024],
          'send/1024/2': [8028.199473684209, 'success', 1024],
          'send/1048576/1': [10502.985789473665, 'success', 1048576],
          'send/1048576/2': [13923.085789473664, 'success', 1048576],
          'send/32703/1': [8173.14578947368, 'success', 32703],
          'send/32703/2': [8383.145789473681, 'success', 32703],
          'send/32704/1': [8593.246842105258, 'success', 32704],
          'send/32704/2': [8803.346842105257, 'success', 32704],
          'send/32705/1': [9013.447894736833, 'success', 32705],
          'send/32705/2': [9223.547894736832, 'success', 32705],
          'write/0/1': [7486.484736842105, 'success', 0],
          'write/0/2': [7594.484736842105, 'success', 0],
          'write/1/1': [7702.054210526316, 'success', 1],
          'write/1/2': [7809.622631578947, 'success', 1],
          'write/1024/1': [7919.344736842106, 'success', 1024],
          'write/1024/2': [8029.944736842104, 'success', 1024],
          'write/1048576/1': [11607.417368421025, 'success', 1048576],
          'write/1048576/2': [15027.517368421024, 'success', 1048576],
          'write/32703/1': [8208.237368421049, 'success', 32703],
          'write/32703/2': [8418.23736842105, 'success', 32703],
          'write/32704/1': [8628.339473684206, 'success', 32704],
          'write/32704/2': [8838.439473684204, 'success', 32704],
          'write/32705/1': [9048.541578947359, 'success', 32705],
          'write/32705/2': [9258.641578947358, 'success', 32705]},
 'faults': [0.0,
            {'access': 0, 'bounds': 0, 'stag': 0},
            0.0,
            {'access': 0, 'bounds': 0, 'stag': 0}],
 'irq': [56.0, 28.0],
 'now': 24475.25,
 'placed': {'0/1': ['da39a3ee5e6b4b0d',
                    'da39a3ee5e6b4b0d',
                    'da39a3ee5e6b4b0d',
                    'da39a3ee5e6b4b0d',
                    'da39a3ee5e6b4b0d'],
            '0/2': ['da39a3ee5e6b4b0d',
                    'da39a3ee5e6b4b0d',
                    'da39a3ee5e6b4b0d',
                    'da39a3ee5e6b4b0d',
                    'da39a3ee5e6b4b0d'],
            '1/1': ['da39a3ee5e6b4b0d',
                    '5ba93c9db0cff93f',
                    '3c363836cf4e1666',
                    'da39a3ee5e6b4b0d',
                    '5a8ca84c7d4d9b05'],
            '1/2': ['da39a3ee5e6b4b0d',
                    '9a78211436f6d425',
                    'f5efcd994fca895f',
                    'da39a3ee5e6b4b0d',
                    '5a8ca84c7d4d9b05'],
            '1024/1': ['650c31fb21415cf3',
                       '6464036ade3c10d2',
                       'b7126a6ccd48aa28',
                       '8c212587975f55ed',
                       '902c919bdf945ace'],
            '1024/2': ['650c31fb21415cf3',
                       'fa7ca85974b81d80',
                       '72cc262289b9f12d',
                       '668e61fca9f1eea7',
                       '9f876f72d1fe8d6a'],
            '1048576/1': ['936f2dc32f6c3908',
                          '423a28763210b26d',
                          'a85015af7e65a820',
                          'acaa283e1b31f568',
                          '7f45ff880db16b7a'],
            '1048576/2': ['936f2dc32f6c3908',
                          'b745bbdc10c21d0a',
                          '653c4e2c66df694e',
                          'a7f9a1368eaa6354',
                          'ff666121b1557c09'],
            '32703/1': ['0fedd410c3ba38a1',
                        '202891f603250a3b',
                        '7ce6a522230daa1d',
                        '05304af8af08bbee',
                        '931922f43c7f129e'],
            '32703/2': ['0fedd410c3ba38a1',
                        '8106285376a61d6e',
                        'ff398a3d6f4e6cff',
                        '54b18b318c96541d',
                        '2d515f9e8d9cdf26'],
            '32704/1': ['5b9af483a356d334',
                        '8106285376a61d6e',
                        'c00a4dddfc33b5dd',
                        '81219b2a7074682c',
                        '78e1778a95d91709'],
            '32704/2': ['5b9af483a356d334',
                        'fc26325e95d6eca0',
                        '1d8b981478ff51fa',
                        'bf27c26292f4f00f',
                        '54b58fb6c29123a9'],
            '32705/1': ['5b9af483a356d334',
                        '7a4ac38ad77edd34',
                        'c723fe2f9bb0cb66',
                        '376bc3177cbbdc8e',
                        'c885e7917ce7ac67'],
            '32705/2': ['5b9af483a356d334',
                        '6228010d0d4e3828',
                        '7522c1b4a1a06f4c',
                        'bf27c26292f4f00f',
                        '94927f311ecc8e04']},
 'port_bytes': [4591482.0, 2295426.0, 2295426.0, 4591482.0],
 'steps': 14018}

#: case -> (b's window rights, b's receive rights).
CASES = {
    "write_stag": ("RW", "LW"), "write_access": ("RR", "LW"),
    "write_bounds": ("RW", "LW"),
    "read_stag": ("RR", "LW"), "read_access": ("RW", "LW"),
    "read_bounds": ("RR", "LW"),
    "gather_stag": ("RW", "LW"), "gather_bounds": ("RW", "LW"),
    "scatter_stag": ("RW", "LW"), "scatter_access": ("RW", "AccessFlags(0)"),
    "scatter_bounds": ("RW", "LW"),
}

#: case -> its run's status, TPT fault counters and QP states, recorded
#: before the one-SGE path.
REFUSED = {'gather_bounds': {'faults': [1.0,
                              {'access': 0, 'bounds': 1, 'stag': 0},
                              0.0,
                              {'access': 0, 'bounds': 0, 'stag': 0}],
                   'states': ['error', 'ready_to_send'],
                   'status': 'local_protection_error'},
 'gather_stag': {'faults': [1.0,
                            {'access': 0, 'bounds': 0, 'stag': 1},
                            0.0,
                            {'access': 0, 'bounds': 0, 'stag': 0}],
                 'states': ['error', 'ready_to_send'],
                 'status': 'local_protection_error'},
 'read_access': {'faults': [0.0,
                            {'access': 0, 'bounds': 0, 'stag': 0},
                            1.0,
                            {'access': 1, 'bounds': 0, 'stag': 0}],
                 'states': ['error', 'error'],
                 'status': 'remote_access_error'},
 'read_bounds': {'faults': [0.0,
                            {'access': 0, 'bounds': 0, 'stag': 0},
                            1.0,
                            {'access': 0, 'bounds': 1, 'stag': 0}],
                 'states': ['error', 'error'],
                 'status': 'remote_access_error'},
 'read_stag': {'faults': [0.0,
                          {'access': 0, 'bounds': 0, 'stag': 0},
                          1.0,
                          {'access': 0, 'bounds': 0, 'stag': 1}],
               'states': ['error', 'error'],
               'status': 'remote_access_error'},
 'scatter_access': {'faults': [0.0,
                               {'access': 0, 'bounds': 0, 'stag': 0},
                               1.0,
                               {'access': 1, 'bounds': 0, 'stag': 0}],
                    'states': ['error', 'error'],
                    'status': 'remote_access_error'},
 'scatter_bounds': {'faults': [0.0,
                               {'access': 0, 'bounds': 0, 'stag': 0},
                               1.0,
                               {'access': 0, 'bounds': 1, 'stag': 0}],
                    'states': ['error', 'error'],
                    'status': 'remote_access_error'},
 'scatter_stag': {'faults': [0.0,
                             {'access': 0, 'bounds': 0, 'stag': 0},
                             1.0,
                             {'access': 0, 'bounds': 0, 'stag': 1}],
                  'states': ['error', 'error'],
                  'status': 'remote_access_error'},
 'write_access': {'faults': [0.0,
                             {'access': 0, 'bounds': 0, 'stag': 0},
                             1.0,
                             {'access': 1, 'bounds': 0, 'stag': 0}],
                  'states': ['error', 'error'],
                  'status': 'remote_access_error'},
 'write_bounds': {'faults': [0.0,
                             {'access': 0, 'bounds': 0, 'stag': 0},
                             1.0,
                             {'access': 0, 'bounds': 1, 'stag': 0}],
                  'states': ['error', 'error'],
                  'status': 'remote_access_error'},
 'write_stag': {'faults': [0.0,
                           {'access': 0, 'bounds': 0, 'stag': 0},
                           1.0,
                           {'access': 0, 'bounds': 0, 'stag': 1}],
                'states': ['error', 'error'],
                'status': 'remote_access_error'}}


@pytest.mark.parametrize("core", CORES)
def test_verbs_data_path_bit_identical(core):
    got = run_json(core, DATA_PATH.format(core=core))
    assert got == EXPECTED


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_one_sge_path_still_refuses(core, case):
    rights, recv_rights = CASES[case]
    got = run_json(core, REFUSAL.format(core=core, case=case, rights=rights,
                                        recv_rights=recv_rights))
    assert got == REFUSED[case]
