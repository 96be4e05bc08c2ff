"""Edge-case tests for the IB substrate: CQ semantics, QP flush,
meters, counters, and the wire model's accounting."""

import pytest

from repro.ib import (
    AccessFlags,
    CompletionQueue,
    CqeStatus,
    Fabric,
    HCAConfig,
    LinkConfig,
    QPError,
    RdmaWriteWR,
    RecvWR,
    Segment,
    SendWR,
)
from repro.ib.link import DuplexLink, Route
from repro.ib.verbs import Cqe, Opcode, QPState
from repro.sim import Simulator


def make_pair(**kwargs):
    sim = Simulator()
    fabric = Fabric(sim, seed=77)
    a = fabric.add_node("a", **kwargs)
    b = fabric.add_node("b", **kwargs)
    qa, qb = fabric.connect(a, b)
    return sim, a, b, qa, qb


def reg(sim, node, size, access):
    buf = node.arena.alloc(size)

    def proc():
        return (yield from node.hca.tpt.register(buf, access))

    return buf, sim.run_until_complete(sim.process(proc()))


# ---------------------------------------------------------------- CQ
def test_cq_poll_returns_fifo():
    sim = Simulator()
    cq = CompletionQueue(sim)
    for i in range(3):
        cq.push(Cqe(wr_id=i, opcode=Opcode.SEND, status=CqeStatus.SUCCESS))
    assert [cq.poll().wr_id for _ in range(3)] == [0, 1, 2]
    assert cq.poll() is None
    assert cq.total == 3


def test_cq_wait_blocks_until_push():
    sim = Simulator()
    cq = CompletionQueue(sim)
    seen = []

    def waiter():
        cqe = yield cq.wait()
        seen.append((cqe.wr_id, sim.now))

    def pusher():
        yield sim.timeout(7.0)
        cq.push(Cqe(wr_id=42, opcode=Opcode.RECV, status=CqeStatus.SUCCESS))

    sim.process(waiter())
    sim.process(pusher())
    sim.run()
    assert seen == [(42, 7.0)]


def test_cq_wait_consumes_queued_first():
    sim = Simulator()
    cq = CompletionQueue(sim)
    cq.push(Cqe(wr_id=1, opcode=Opcode.SEND, status=CqeStatus.SUCCESS))
    ev = cq.wait()
    sim.run()
    assert ev.value.wr_id == 1
    assert len(cq) == 0


def test_interrupt_armed_cq_retains_nothing():
    sim = Simulator()
    node = Fabric(sim).add_node("n")
    cq = node.hca.create_cq("cq", interrupts=True)
    for i in range(5):
        cq.push(Cqe(wr_id=i, opcode=Opcode.SEND, status=CqeStatus.SUCCESS))
    sim.run()
    assert cq.total == 5
    assert len(cq) == 0  # the interrupt handler reaped every CQE
    assert cq.poll() is None
    assert node.irq.delivered.value == 5


def test_interrupt_armed_cq_still_serves_a_parked_wait():
    sim = Simulator()
    node = Fabric(sim).add_node("n")
    cq = node.hca.create_cq("cq", interrupts=True)
    seen = []

    def waiter():
        cqe = yield cq.wait()
        seen.append((cqe.wr_id, sim.now))

    def pusher():
        yield sim.timeout(3.0)
        cq.push(Cqe(wr_id=7, opcode=Opcode.RECV, status=CqeStatus.SUCCESS))
        cq.push(Cqe(wr_id=8, opcode=Opcode.RECV, status=CqeStatus.SUCCESS))

    sim.process(waiter())
    sim.process(pusher())
    sim.run()
    assert seen == [(7, 3.0)]
    assert (cq.total, len(cq)) == (2, 0)
    assert node.irq.delivered.value == 2


def test_cq_without_handler_queues_for_poll():
    sim = Simulator()
    node = Fabric(sim).add_node("n")
    cq = node.hca.create_cq("cq", interrupts=False)
    for i in range(3):
        cq.push(Cqe(wr_id=i, opcode=Opcode.SEND, status=CqeStatus.SUCCESS))
    assert len(cq) == 3
    assert cq.wait().value.wr_id == 0
    assert [cq.poll().wr_id, cq.poll().wr_id, cq.poll()] == [1, 2, None]
    assert cq.total == 3


def test_unsignaled_wr_produces_no_cqe():
    sim, a, b, qa, qb = make_pair()
    lbuf, lmr = reg(sim, a, 4096, AccessFlags.LOCAL_WRITE)
    rbuf, rmr = reg(sim, b, 4096, AccessFlags.REMOTE_WRITE)
    wr = RdmaWriteWR(
        sim, local=[Segment(lmr.stag, lmr.addr, 64)],
        remote=Segment(rmr.stag, rmr.addr, 64), signaled=False,
    )

    def proc():
        yield from a.hca.post_send(qa, wr)
        yield wr.completion  # per-WR event still fires

    sim.run_until_complete(sim.process(proc()))
    assert wr.cqe.ok
    assert qa.send_cq.total == 0  # nothing delivered to the CQ


# ---------------------------------------------------------------- QP flush
def test_qp_error_flushes_queued_wrs():
    sim, a, b, qa, qb = make_pair()
    lbuf, lmr = reg(sim, b, 4096, AccessFlags.LOCAL_WRITE)
    recv = RecvWR(sim, [Segment(lmr.stag, lmr.addr, 4096)])
    qb.post_recv(recv)
    qb.enter_error("test teardown")
    assert recv.cqe.status is CqeStatus.WR_FLUSH_ERR
    assert qb.state is QPState.ERROR


def test_post_to_errored_qp_raises():
    sim, a, b, qa, qb = make_pair()
    qa.enter_error("dead")
    with pytest.raises(QPError):
        qa.post_send(SendWR(sim, inline=b"x"))
    lbuf, lmr = reg(sim, a, 4096, AccessFlags.LOCAL_WRITE)
    with pytest.raises(QPError):
        qa.post_recv(RecvWR(sim, [Segment(lmr.stag, lmr.addr, 4096)]))


def test_recv_wr_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        RecvWR(sim, [])


def test_send_wr_exactly_one_source():
    sim = Simulator()
    with pytest.raises(ValueError):
        SendWR(sim)  # neither inline nor segments
    with pytest.raises(ValueError):
        SendWR(sim, inline=b"x", segments=[Segment(1, 0, 1)])


def test_segment_rejects_negative_length():
    with pytest.raises(ValueError):
        Segment(1, 0, -5)


# ---------------------------------------------------------------- wire model
def test_port_byte_counters():
    sim, a, b, qa, qb = make_pair()
    rbuf, rmr = reg(sim, b, 8192, AccessFlags.LOCAL_WRITE)
    qb.post_recv(RecvWR(sim, [Segment(rmr.stag, rmr.addr, 8192)]))
    send = SendWR(sim, inline=bytes(5000))

    def proc():
        yield from a.hca.post_send(qa, send)
        yield send.completion

    sim.run_until_complete(sim.process(proc()))
    assert a.hca.port.tx.bytes_carried.value == 5000
    assert b.hca.port.rx.bytes_carried.value == 5000


def test_port_utilization_meter_moves():
    sim, a, b, qa, qb = make_pair()
    rbuf, rmr = reg(sim, b, 1 << 20, AccessFlags.LOCAL_WRITE)
    qb.post_recv(RecvWR(sim, [Segment(rmr.stag, rmr.addr, 1 << 20)]))
    send = SendWR(sim, inline=bytes(1 << 20))
    a.hca.port.tx.meter.reset_window()  # exclude registration setup time

    def proc():
        yield from a.hca.post_send(qa, send)
        yield send.completion

    sim.run_until_complete(sim.process(proc()))
    tx_util, _ = a.hca.port.utilization()
    assert tx_util > 0.5  # the link was busy most of this window


def test_link_config_validation():
    with pytest.raises(ValueError):
        LinkConfig(bandwidth_mb_s=0)
    with pytest.raises(ValueError):
        LinkConfig(latency_us=-1)
    with pytest.raises(ValueError):
        LinkConfig(chunk_bytes=100)
    with pytest.raises(ValueError):
        LinkConfig(per_message_overhead_bytes=-1)


def test_wire_time_includes_overhead():
    cfg = LinkConfig(bandwidth_mb_s=1000.0, per_message_overhead_bytes=1000)
    sim = Simulator()
    route = Route(DuplexLink(sim, cfg, "a"), DuplexLink(sim, cfg, "b"))
    assert route.delays(0) == pytest.approx(1.0)
    assert route.delays(9000) == pytest.approx(10.0)


# ---------------------------------------------------------------- counters
def test_hca_op_counters_track_bytes():
    sim, a, b, qa, qb = make_pair()
    lbuf, lmr = reg(sim, a, 64 * 1024, AccessFlags.LOCAL_WRITE)
    rbuf, rmr = reg(sim, b, 64 * 1024,
                    AccessFlags.REMOTE_WRITE | AccessFlags.REMOTE_READ)

    def proc():
        wr = RdmaWriteWR(sim, local=[Segment(lmr.stag, lmr.addr, 64 * 1024)],
                         remote=Segment(rmr.stag, rmr.addr, 64 * 1024))
        yield from a.hca.post_send(qa, wr)
        yield wr.completion
        from repro.ib.verbs import RdmaReadWR

        rd = RdmaReadWR(sim, local=[Segment(lmr.stag, lmr.addr, 32 * 1024)],
                        remote=Segment(rmr.stag, rmr.addr, 32 * 1024))
        yield from a.hca.post_send(qa, rd)
        yield rd.completion

    sim.run_until_complete(sim.process(proc()))
    assert a.hca.writes.value == 64 * 1024
    assert a.hca.reads.value == 32 * 1024


def test_fabric_rejects_duplicate_names_and_self_connect():
    sim = Simulator()
    fabric = Fabric(sim)
    n = fabric.add_node("x")
    with pytest.raises(ValueError):
        fabric.add_node("x")
    with pytest.raises(ValueError):
        fabric.connect(n, n)


def test_deterministic_stags_across_runs():
    def stags():
        sim = Simulator()
        fabric = Fabric(sim, seed=123)
        node = fabric.add_node("n")
        buf = node.arena.alloc(4096)

        def proc():
            mr = yield from node.hca.tpt.register(buf, AccessFlags.REMOTE_READ)
            return mr.stag

        return sim.run_until_complete(sim.process(proc()))

    assert stags() == stags()
