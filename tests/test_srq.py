"""Shared receive pool (SRQ): invariants, exhaustion, chaos, scaling."""

import pytest

from repro.errors import PoolExhausted
from repro.experiments import Cluster, ClusterConfig
from repro.experiments.cluster import default_srq_entries
from repro.ib import Fabric, SharedReceivePool
from repro.sim import Simulator
from repro.workloads import IozoneParams, run_iozone


def srq_cluster(**kwargs):
    kwargs.setdefault("transport", "rdma-rw")
    kwargs.setdefault("srq", True)
    return Cluster(ClusterConfig(**kwargs))


def small_iozone(**kwargs):
    kwargs.setdefault("nthreads", 1)
    kwargs.setdefault("record_bytes", 64 * 1024)
    kwargs.setdefault("ops_per_thread", 4)
    return IozoneParams(**kwargs)


# ---------------------------------------------------------------- config
def test_srq_requires_rdma_transport():
    with pytest.raises(ValueError):
        ClusterConfig(transport="tcp-ipoib", srq=True)


def test_default_srq_entries_sublinear():
    assert default_srq_entries(1) == 64
    # Grows, but far slower than the client count once past the floor.
    assert default_srq_entries(256) < 256 * 32
    assert default_srq_entries(256) >= 256
    for n in (4, 16, 64, 256):
        assert default_srq_entries(4 * n) <= 4 * default_srq_entries(n)


# ---------------------------------------------------------------- invariants
def test_pool_quiesces_full_after_workload():
    """Every buffer taken during a run is recycled: no leaks."""
    c = srq_cluster(nclients=4)
    run_iozone(c, small_iozone())
    c.sim.run(until=c.sim.now + 100_000.0)
    assert c.srq.takes.events > 0
    assert c.srq.recycles.events == c.srq.takes.events
    assert c.srq.available == c.srq.entries
    assert c.srq.exhaustions.events == 0


def test_credit_grants_never_exceed_pool():
    """RNR avoidance: the sum of client grants fits in the pool."""
    for transport, demand in (("rdma-rw", 1), ("rdma-rr", 2)):
        c = srq_cluster(transport=transport, nclients=16)
        total_grantable = c.rpcrdma.credits * demand * c.config.nclients
        assert total_grantable <= c.srq.entries
        run_iozone(c, small_iozone(ops_per_thread=2))
        assert c.srq.exhaustions.events == 0
        hca = c.server_node.hca
        assert hca.rnr_events.events == 0


def test_no_leak_after_qp_kill_and_redial():
    """Chaos invariant: a killed connection's claimed buffers come back."""
    c = srq_cluster(nclients=2)
    nfs = c.mounts[0].nfs
    done = []

    def victim():
        fh, _ = yield from nfs.create(nfs.root, "survivor")
        yield from nfs.write(fh, 0, bytes(range(256)) * 1024)
        data, _, _ = yield from nfs.read(fh, 0, 256 * 1024)
        done.append(len(data))

    def killer():
        yield c.sim.timeout(50.0)  # mid-flight
        qp = c.mounts[0].transport.qp
        qp.enter_error("injected fault")
        qp.peer.enter_error("injected fault (remote)")

    c.sim.process(victim())
    c.sim.process(killer())
    c.sim.run(until=c.sim.now + 10_000_000.0)
    assert done == [256 * 1024]
    c.sim.run(until=c.sim.now + 100_000.0)
    # All buffers posted again, whether recycled in-band or reclaimed
    # when the dead QP detached.
    assert c.srq.available == c.srq.entries


def test_exhaustion_returns_none_and_recovers():
    """An empty pool refuses the receive (RNR path) until a recycle."""
    sim = Simulator()
    fabric = Fabric(sim, seed=7)
    node = fabric.add_node("server")
    peer = fabric.add_node("client")
    qp, _ = fabric.connect(node, peer)
    pool = SharedReceivePool(node, entries=2, buffer_bytes=1024)
    sim.run_until_complete(sim.process(pool.setup()))
    pool.attach(qp)

    first = pool.take(qp)
    second = pool.take(qp)
    assert first is not None and second is not None
    assert pool.take(qp) is None
    assert pool.exhaustions.events == 1
    assert pool.min_available == 0

    pool.recycle(first)
    assert pool.available == 1
    assert pool.take(qp) is not None


def test_detach_reclaims_outstanding_buffers():
    sim = Simulator()
    fabric = Fabric(sim, seed=7)
    node = fabric.add_node("server")
    peer = fabric.add_node("client")
    qp, _ = fabric.connect(node, peer)
    pool = SharedReceivePool(node, entries=4, buffer_bytes=1024)
    sim.run_until_complete(sim.process(pool.setup()))
    inbox = pool.attach(qp)
    wr = pool.take(qp)
    assert wr is not None and pool.available == 3
    # Deliveries sitting in the inbox at detach time go back to the pool.
    inbox.put(wr)
    pool.detach(qp)
    assert pool.available == 4
    assert pool.reclaimed_on_detach.events == 1


# ---------------------------------------------------------------- scaling
def test_registered_bytes_sublinear_vs_per_connection():
    """The Fig 11 claim, measured directly: SRQ memory grows sublinearly
    while per-connection rings grow linearly with the client count."""
    def recv_bytes(nclients, srq):
        c = Cluster(ClusterConfig(transport="rdma-rw", nclients=nclients,
                                  srq=srq))
        nfs = c.mounts[0].nfs
        c.run(nfs.getattr(nfs.root))   # step the sim so pools post
        return c.server_recv_buffer_bytes()

    conn16, conn64 = recv_bytes(16, False), recv_bytes(64, False)
    srq16, srq64 = recv_bytes(16, True), recv_bytes(64, True)
    assert conn64 == 4 * conn16                 # linear in clients
    assert srq64 / srq16 < 4                    # sublinear
    assert srq64 < conn64                       # and absolutely smaller


# ---------------------------------------------------------------- dispatcher
def test_bounded_run_queue_raises_on_direct_overflow():
    from repro.osmodel import KernelThreadPool

    sim = Simulator()

    def handler(worker, task):
        yield sim.timeout(1000.0)

    pool = KernelThreadPool(sim, nthreads=1, handler=handler, max_queue=1)
    pool.submit("a")
    with pytest.raises(PoolExhausted):
        pool.submit("b")


def test_reserve_slot_blocks_until_dequeue():
    from repro.osmodel import KernelThreadPool

    sim = Simulator()

    def handler(worker, task):
        yield sim.timeout(10.0)

    pool = KernelThreadPool(sim, nthreads=1, handler=handler, max_queue=1)
    order = []

    def submitter(tag):
        yield from pool.reserve_slot()
        pool.submit(tag, reserved=True)
        order.append((tag, sim.now))

    sim.process(submitter("first"))
    sim.process(submitter("second"))
    sim.run()
    # The second submitter found the queue full and waited for a slot
    # (freed when the worker dequeued the first task — same timestamp,
    # later engine step, since dequeueing itself costs no time).
    assert [tag for tag, _ in order] == ["first", "second"]
    assert pool.queue_waits.events == 1
    assert pool.completed.events == 2


def test_bounded_cluster_serves_more_clients_than_slots():
    """64 client threads against an 8-deep queue: everything completes,
    the queue fills, and nothing deadlocks."""
    c = Cluster(ClusterConfig(transport="rdma-rw", nclients=8,
                              server_workers=2, server_queue_depth=8))
    r = run_iozone(c, small_iozone(nthreads=8, ops_per_thread=2))
    assert r.read_mb_s > 0
    assert c.rpc_server.pool.backlog_peak <= 8
    assert c.rpc_server.pool.backlog == 0
