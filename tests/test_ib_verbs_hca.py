"""Integration tests for the verbs/HCA/fabric data path.

These exercise the InfiniBand rules the paper's transport depends on:
channel sends need pre-posted receives, RDMA ops validate steering tags
at the target, Write→Send completion ordering holds, Read→Send ordering
does not, and IRD/ORD caps outstanding reads at 8.
"""

import pytest

from repro.ib import (
    AccessFlags,
    CqeStatus,
    Fabric,
    HCAConfig,
    LinkConfig,
    ProtectionError,
    QPError,
    RdmaReadWR,
    RdmaWriteWR,
    RecvWR,
    Segment,
    SendWR,
)
from repro.ib.memory import RegistrationCosts
from repro.sim import Simulator


def make_pair(hca_config=None, link_config=None, **node_kwargs):
    sim = Simulator()
    fabric = Fabric(sim, seed=42)
    kw = dict(hca_config=hca_config, link_config=link_config, **node_kwargs)
    a = fabric.add_node("a", **kw)
    b = fabric.add_node("b", **kw)
    qa, qb = fabric.connect(a, b)
    return sim, a, b, qa, qb


def reg(sim, node, size, access):
    buf = node.arena.alloc(size)

    def proc():
        return (yield from node.hca.tpt.register(buf, access))

    mr = sim.run_until_complete(sim.process(proc()))
    return buf, mr


# ---------------------------------------------------------------- send/recv
def test_send_delivers_inline_payload_to_posted_recv():
    sim, a, b, qa, qb = make_pair()
    rbuf, rmr = reg(sim, b, 4096, AccessFlags.LOCAL_WRITE)
    recv = RecvWR(sim, [Segment(rmr.stag, rmr.addr, 4096)])
    qb.post_recv(recv)
    send = SendWR(sim, inline=b"ping-payload")

    def proc():
        yield from a.hca.post_send(qa, send)
        yield send.completion
        yield recv.completion

    sim.run_until_complete(sim.process(proc()))
    assert send.cqe.ok and recv.cqe.ok
    assert recv.cqe.byte_len == len(b"ping-payload")
    assert rbuf.peek(0, 12) == b"ping-payload"


def test_send_gather_list_concatenates():
    sim, a, b, qa, qb = make_pair()
    s1buf, s1mr = reg(sim, a, 4096, AccessFlags.LOCAL_WRITE)
    s2buf, s2mr = reg(sim, a, 4096, AccessFlags.LOCAL_WRITE)
    s1buf.fill(b"AAAA")
    s2buf.fill(b"BBBB")
    rbuf, rmr = reg(sim, b, 4096, AccessFlags.LOCAL_WRITE)
    qb.post_recv(RecvWR(sim, [Segment(rmr.stag, rmr.addr, 4096)]))
    send = SendWR(sim, segments=[
        Segment(s1mr.stag, s1mr.addr, 4), Segment(s2mr.stag, s2mr.addr, 4)
    ])

    def proc():
        yield from a.hca.post_send(qa, send)
        yield send.completion

    sim.run_until_complete(sim.process(proc()))
    assert rbuf.peek(0, 8) == b"AAAABBBB"


def test_send_without_recv_rnr_retries_then_succeeds():
    sim, a, b, qa, qb = make_pair()
    rbuf, rmr = reg(sim, b, 4096, AccessFlags.LOCAL_WRITE)
    send = SendWR(sim, inline=b"late")

    def sender():
        yield from a.hca.post_send(qa, send)
        yield send.completion

    def late_receiver():
        yield sim.timeout(100.0)  # after a couple of RNR retries
        qb.post_recv(RecvWR(sim, [Segment(rmr.stag, rmr.addr, 4096)]))

    sim.process(late_receiver())
    sim.run_until_complete(sim.process(sender()))
    assert send.cqe.ok
    assert a.hca.rnr_events.events >= 1
    assert rbuf.peek(0, 4) == b"late"


def test_send_rnr_retry_exhaustion_errors_qp():
    cfg = HCAConfig(rnr_retry_us=10.0, rnr_retry_limit=2)
    sim, a, b, qa, qb = make_pair(hca_config=cfg)
    send = SendWR(sim, inline=b"never-received")

    def proc():
        yield from a.hca.post_send(qa, send)
        yield send.completion

    sim.run_until_complete(sim.process(proc()))
    assert send.cqe.status is CqeStatus.RNR_RETRY_EXC
    with pytest.raises(QPError):
        qa.post_send(SendWR(sim, inline=b"after-death"))


def test_send_overflowing_recv_buffer_errors():
    sim, a, b, qa, qb = make_pair()
    rbuf, rmr = reg(sim, b, 64, AccessFlags.LOCAL_WRITE)
    qb.post_recv(RecvWR(sim, [Segment(rmr.stag, rmr.addr, 64)]))
    send = SendWR(sim, inline=b"x" * 128)

    def proc():
        yield from a.hca.post_send(qa, send)
        yield send.completion

    sim.run_until_complete(sim.process(proc()))
    assert send.cqe.status is CqeStatus.REM_ACCESS_ERR


def test_recv_matching_is_fifo():
    sim, a, b, qa, qb = make_pair()
    rbuf, rmr = reg(sim, b, 8192, AccessFlags.LOCAL_WRITE)
    r1 = RecvWR(sim, [Segment(rmr.stag, rmr.addr, 64)])
    r2 = RecvWR(sim, [Segment(rmr.stag, rmr.addr + 64, 64)])
    qb.post_recv(r1)
    qb.post_recv(r2)

    def proc():
        w1 = SendWR(sim, inline=b"first")
        w2 = SendWR(sim, inline=b"second")
        yield from a.hca.post_send(qa, w1)
        yield from a.hca.post_send(qa, w2)
        yield w2.completion

    sim.run_until_complete(sim.process(proc()))
    assert r1.received == b"first"
    assert r2.received == b"second"


# ---------------------------------------------------------------- RDMA write
def test_rdma_write_places_bytes_no_remote_cqe_no_remote_cpu():
    sim, a, b, qa, qb = make_pair()
    lbuf, lmr = reg(sim, a, 4096, AccessFlags.LOCAL_WRITE)
    rbuf, rmr = reg(sim, b, 4096, AccessFlags.REMOTE_WRITE)
    lbuf.fill(b"written-by-rdma")
    b_cpu_before = b.cpu.busy_us_total
    wr = RdmaWriteWR(
        sim,
        local=[Segment(lmr.stag, lmr.addr, 15)],
        remote=Segment(rmr.stag, rmr.addr, 15),
    )

    def proc():
        yield from a.hca.post_send(qa, wr)
        yield wr.completion

    sim.run_until_complete(sim.process(proc()))
    assert wr.cqe.ok
    assert rbuf.peek(0, 15) == b"written-by-rdma"
    assert qb.recv_cq.total == 0  # one-sided: no remote CQE
    assert b.cpu.busy_us_total == b_cpu_before  # no remote CPU involvement


def test_rdma_write_bad_stag_remote_access_error():
    sim, a, b, qa, qb = make_pair()
    lbuf, lmr = reg(sim, a, 4096, AccessFlags.LOCAL_WRITE)
    wr = RdmaWriteWR(
        sim,
        local=[Segment(lmr.stag, lmr.addr, 16)],
        remote=Segment(0xDEAD_BEEF, 0x1000_0000, 16),
    )

    def proc():
        yield from a.hca.post_send(qa, wr)
        yield wr.completion

    sim.run_until_complete(sim.process(proc()))
    assert wr.cqe.status is CqeStatus.REM_ACCESS_ERR
    assert b.hca.tpt.protection_faults.events == 1


def test_rdma_write_without_remote_write_permission_rejected():
    sim, a, b, qa, qb = make_pair()
    lbuf, lmr = reg(sim, a, 4096, AccessFlags.LOCAL_WRITE)
    rbuf, rmr = reg(sim, b, 4096, AccessFlags.REMOTE_READ)  # read-only exposure
    wr = RdmaWriteWR(
        sim,
        local=[Segment(lmr.stag, lmr.addr, 16)],
        remote=Segment(rmr.stag, rmr.addr, 16),
    )

    def proc():
        yield from a.hca.post_send(qa, wr)
        yield wr.completion

    sim.run_until_complete(sim.process(proc()))
    assert wr.cqe.status is CqeStatus.REM_ACCESS_ERR


# ---------------------------------------------------------------- RDMA read
def test_rdma_read_fetches_remote_bytes():
    sim, a, b, qa, qb = make_pair()
    lbuf, lmr = reg(sim, a, 4096, AccessFlags.LOCAL_WRITE)
    rbuf, rmr = reg(sim, b, 4096, AccessFlags.REMOTE_READ)
    rbuf.fill(b"server-side-data")
    wr = RdmaReadWR(
        sim,
        local=[Segment(lmr.stag, lmr.addr, 16)],
        remote=Segment(rmr.stag, rmr.addr, 16),
    )

    def proc():
        yield from a.hca.post_send(qa, wr)
        yield wr.completion

    sim.run_until_complete(sim.process(proc()))
    assert wr.cqe.ok
    assert lbuf.peek(0, 16) == b"server-side-data"


def test_rdma_read_without_remote_read_permission_rejected():
    sim, a, b, qa, qb = make_pair()
    lbuf, lmr = reg(sim, a, 4096, AccessFlags.LOCAL_WRITE)
    rbuf, rmr = reg(sim, b, 4096, AccessFlags.REMOTE_WRITE)
    wr = RdmaReadWR(
        sim,
        local=[Segment(lmr.stag, lmr.addr, 16)],
        remote=Segment(rmr.stag, rmr.addr, 16),
    )

    def proc():
        yield from a.hca.post_send(qa, wr)
        yield wr.completion

    sim.run_until_complete(sim.process(proc()))
    assert wr.cqe.status is CqeStatus.REM_ACCESS_ERR


def test_outstanding_reads_capped_by_ird_ord():
    cfg = HCAConfig(max_ird=8, max_ord=8, read_response_setup_us=50.0)
    sim, a, b, qa, qb = make_pair(hca_config=cfg)
    lbuf, lmr = reg(sim, a, 64 * 4096, AccessFlags.LOCAL_WRITE)
    rbuf, rmr = reg(sim, b, 64 * 4096, AccessFlags.REMOTE_READ)
    wrs = [
        RdmaReadWR(
            sim,
            local=[Segment(lmr.stag, lmr.addr + i * 4096, 4096)],
            remote=Segment(rmr.stag, rmr.addr + i * 4096, 4096),
        )
        for i in range(32)
    ]

    def proc():
        for wr in wrs:
            yield from a.hca.post_send(qa, wr)
        for wr in wrs:
            yield wr.completion

    sim.run_until_complete(sim.process(proc()))
    assert all(wr.cqe.ok for wr in wrs)
    assert b.hca.max_inbound_reads_seen <= 8


def test_write_then_send_completion_ordering_guaranteed():
    """§4.2: the send's completion implies the prior write completed."""
    sim, a, b, qa, qb = make_pair()
    lbuf, lmr = reg(sim, a, 256 * 1024, AccessFlags.LOCAL_WRITE)
    rbuf, rmr = reg(sim, b, 256 * 1024, AccessFlags.REMOTE_WRITE)
    rcvbuf, rcvmr = reg(sim, b, 4096, AccessFlags.LOCAL_WRITE)
    qb.post_recv(RecvWR(sim, [Segment(rcvmr.stag, rcvmr.addr, 4096)]))
    completions = []
    big_write = RdmaWriteWR(
        sim,
        local=[Segment(lmr.stag, lmr.addr, 256 * 1024)],
        remote=Segment(rmr.stag, rmr.addr, 256 * 1024),
    )
    small_send = SendWR(sim, inline=b"reply")
    big_write.completion.callbacks.append(lambda ev: completions.append("write"))
    small_send.completion.callbacks.append(lambda ev: completions.append("send"))

    def proc():
        yield from a.hca.post_send(qa, big_write)
        yield from a.hca.post_send(qa, small_send)
        yield small_send.completion

    sim.run_until_complete(sim.process(proc()))
    assert completions == ["write", "send"]


def test_read_then_send_ordering_not_guaranteed():
    """§4.1: a later send can complete before an earlier (slow) read."""
    cfg = HCAConfig(read_response_setup_us=500.0)
    sim, a, b, qa, qb = make_pair(hca_config=cfg)
    lbuf, lmr = reg(sim, a, 256 * 1024, AccessFlags.LOCAL_WRITE)
    rbuf, rmr = reg(sim, b, 256 * 1024, AccessFlags.REMOTE_READ)
    rcvbuf, rcvmr = reg(sim, b, 4096, AccessFlags.LOCAL_WRITE)
    qb.post_recv(RecvWR(sim, [Segment(rcvmr.stag, rcvmr.addr, 4096)]))
    completions = []
    slow_read = RdmaReadWR(
        sim,
        local=[Segment(lmr.stag, lmr.addr, 256 * 1024)],
        remote=Segment(rmr.stag, rmr.addr, 256 * 1024),
    )
    fast_send = SendWR(sim, inline=b"overtakes")
    slow_read.completion.callbacks.append(lambda ev: completions.append("read"))
    fast_send.completion.callbacks.append(lambda ev: completions.append("send"))

    def proc():
        yield from a.hca.post_send(qa, slow_read)
        yield from a.hca.post_send(qa, fast_send)
        yield slow_read.completion
        yield fast_send.completion

    sim.run_until_complete(sim.process(proc()))
    assert completions == ["send", "read"]


def test_fence_restores_read_send_ordering():
    cfg = HCAConfig(read_response_setup_us=500.0)
    sim, a, b, qa, qb = make_pair(hca_config=cfg)
    lbuf, lmr = reg(sim, a, 256 * 1024, AccessFlags.LOCAL_WRITE)
    rbuf, rmr = reg(sim, b, 256 * 1024, AccessFlags.REMOTE_READ)
    rcvbuf, rcvmr = reg(sim, b, 4096, AccessFlags.LOCAL_WRITE)
    qb.post_recv(RecvWR(sim, [Segment(rcvmr.stag, rcvmr.addr, 4096)]))
    completions = []
    slow_read = RdmaReadWR(
        sim,
        local=[Segment(lmr.stag, lmr.addr, 256 * 1024)],
        remote=Segment(rmr.stag, rmr.addr, 256 * 1024),
    )
    fenced_send = SendWR(sim, inline=b"waits", fence=True)
    slow_read.completion.callbacks.append(lambda ev: completions.append("read"))
    fenced_send.completion.callbacks.append(lambda ev: completions.append("send"))

    def proc():
        yield from a.hca.post_send(qa, slow_read)
        yield from a.hca.post_send(qa, fenced_send)
        yield fenced_send.completion

    sim.run_until_complete(sim.process(proc()))
    assert completions == ["read", "send"]


# ---------------------------------------------------------------- physical mode
def test_global_stag_write_honoured_only_when_enabled():
    from repro.ib.phys import GLOBAL_STAG

    sim = Simulator()
    fabric = Fabric(sim, seed=9)
    server = fabric.add_node("server")
    client = fabric.add_node("client", allow_physical=True)  # client trusts server
    q_server, q_client = fabric.connect(server, client)

    target = client.arena.alloc(4096)
    lbuf, lmr = reg(sim, server, 4096, AccessFlags.LOCAL_WRITE)
    lbuf.fill(b"phys-write")
    wr = RdmaWriteWR(
        sim,
        local=[Segment(lmr.stag, lmr.addr, 10)],
        remote=Segment(GLOBAL_STAG, target.addr, 10),
    )

    def proc():
        yield from server.hca.post_send(q_server, wr)
        yield wr.completion

    sim.run_until_complete(sim.process(proc()))
    assert wr.cqe.ok
    assert target.peek(0, 10) == b"phys-write"


def test_global_stag_rejected_when_disabled():
    from repro.ib.phys import GLOBAL_STAG

    sim, a, b, qa, qb = make_pair()  # b does not allow physical
    lbuf, lmr = reg(sim, a, 4096, AccessFlags.LOCAL_WRITE)
    target = b.arena.alloc(4096)
    wr = RdmaWriteWR(
        sim,
        local=[Segment(lmr.stag, lmr.addr, 8)],
        remote=Segment(GLOBAL_STAG, target.addr, 8),
    )

    def proc():
        yield from a.hca.post_send(qa, wr)
        yield wr.completion

    sim.run_until_complete(sim.process(proc()))
    assert wr.cqe.status is CqeStatus.REM_ACCESS_ERR


# ---------------------------------------------------------------- wire timing
def test_transfer_time_matches_bandwidth():
    link = LinkConfig(bandwidth_mb_s=1000.0, latency_us=2.0,
                      per_message_overhead_bytes=0, chunk_bytes=32 * 1024)
    sim, a, b, qa, qb = make_pair(link_config=link,
                                  hca_config=HCAConfig(wqe_process_us=0.0, post_cpu_us=0.0))
    rbuf, rmr = reg(sim, b, 128 * 1024, AccessFlags.LOCAL_WRITE)
    qb.post_recv(RecvWR(sim, [Segment(rmr.stag, rmr.addr, 128 * 1024)]))
    recv_time = []
    send = SendWR(sim, inline=bytes(128 * 1024))

    def proc():
        t0 = sim.now
        yield from a.hca.post_send(qa, send)
        yield send.completion
        recv_time.append(sim.now - t0)

    sim.run_until_complete(sim.process(proc()))
    # 128 KB at 1000 MB/s = 131.072 us + 2*2us propagation + 2us ack.
    assert recv_time[0] == pytest.approx(131.072 + 6.0, abs=1.0)


def test_concurrent_flows_share_ingress_bandwidth():
    """Two senders into one receiver halve each other's throughput."""
    link = LinkConfig(bandwidth_mb_s=1000.0, latency_us=0.0,
                      per_message_overhead_bytes=0)
    sim = Simulator()
    fabric = Fabric(sim, seed=5)
    free_reg = RegistrationCosts(
        pin_cpu_per_page_us=0.0, unpin_cpu_per_page_us=0.0,
        reg_tpt_base_us=0.0, reg_tpt_per_page_us=0.0,
        dereg_tpt_base_us=0.0, dereg_tpt_per_page_us=0.0,
    )
    hca_cfg = HCAConfig(wqe_process_us=0.0, post_cpu_us=0.0, registration=free_reg)
    dst = fabric.add_node("dst", link_config=link, hca_config=hca_cfg)
    s1 = fabric.add_node("s1", link_config=link, hca_config=hca_cfg)
    s2 = fabric.add_node("s2", link_config=link, hca_config=hca_cfg)
    q1s, q1d = fabric.connect(s1, dst)
    q2s, q2d = fabric.connect(s2, dst)

    def write_to(src, qp, size):
        lbuf = src.arena.alloc(size)

        def proc():
            lmr = yield from src.hca.tpt.register(lbuf, AccessFlags.LOCAL_WRITE)
            rbuf = dst.arena.alloc(size)
            rmr = yield from dst.hca.tpt.register(rbuf, AccessFlags.REMOTE_WRITE)
            wr = RdmaWriteWR(
                sim,
                local=[Segment(lmr.stag, lmr.addr, size)],
                remote=Segment(rmr.stag, rmr.addr, size),
            )
            yield from src.hca.post_send(qp, wr)
            yield wr.completion
            return sim.now

        return sim.process(proc())

    size = 1024 * 1024
    p1 = write_to(s1, q1s, size)
    p2 = write_to(s2, q2s, size)
    sim.run()
    # Serial time would be ~1049us each; sharing makes both finish ~2x later.
    assert p1.value == pytest.approx(p2.value, rel=0.05)
    assert p1.value > 1.8 * (size / 1000.0)
