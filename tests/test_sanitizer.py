"""One deliberately-broken fixture per runtime sanitizer rule.

Each test wires a minimal fabric with ``sim.sanitizer`` attached and
commits exactly the violation the rule exists to catch; the typed
:class:`repro.errors.SanitizerError` subclass must surface.  A final
set of tests asserts the flip side: clean traffic records nothing and
sanitized metrics are bit-identical to unsanitized ones.
"""

from types import SimpleNamespace

import pytest

from repro.check.sanitizer import Sanitizer
from repro.core.chunks import ChunkList, ReadChunk
from repro.core.credits import CreditManager
from repro.errors import (
    AccessViolation,
    BoundsViolation,
    ChunkLifetimeViolation,
    CreditViolation,
    DrcViolation,
    LeakViolation,
    SanitizerError,
    SrqViolation,
    StaleStagViolation,
)
from repro.experiments import Cluster, ClusterConfig
from repro.ib import (
    AccessFlags,
    Fabric,
    RdmaReadWR,
    RdmaWriteWR,
    Segment,
    SendWR,
)
from repro.ib.srq import SharedReceivePool
from repro.rpc.drc import DuplicateRequestCache
from repro.sim import Simulator
from repro.sim.trace import Counter


def make_pair():
    sim = Simulator()
    sim.sanitizer = Sanitizer(sim)
    fabric = Fabric(sim, seed=42)
    a = fabric.add_node("a")
    b = fabric.add_node("b")
    qa, qb = fabric.connect(a, b)
    return sim, a, b, qa, qb


def reg(sim, node, size, access):
    buf = node.arena.alloc(size)

    def proc():
        return (yield from node.hca.tpt.register(buf, access))

    mr = sim.run_until_complete(sim.process(proc()))
    return buf, mr


def post(sim, node, qp, wr):
    def proc():
        yield from node.hca.post_send(qp, wr)

    sim.run_until_complete(sim.process(proc()))


# ---------------------------------------------------------------- bounds
def test_oversized_rdma_write_is_a_bounds_violation():
    sim, a, b, qa, qb = make_pair()
    lbuf, lmr = reg(sim, a, 8192, AccessFlags.LOCAL_WRITE)
    rbuf, rmr = reg(sim, b, 4096, AccessFlags.REMOTE_WRITE)
    wr = RdmaWriteWR(
        sim,
        local=[Segment(lmr.stag, lmr.addr, 8192)],
        remote=Segment(rmr.stag, rmr.addr, 8192),  # 2x the remote window
    )
    post(sim, a, qa, wr)
    with pytest.raises(BoundsViolation):
        sim.run()


# ---------------------------------------------------------------- access
def test_write_into_read_only_exposure_is_an_access_violation():
    sim, a, b, qa, qb = make_pair()
    lbuf, lmr = reg(sim, a, 4096, AccessFlags.LOCAL_WRITE)
    rbuf, rmr = reg(sim, b, 4096, AccessFlags.REMOTE_READ)  # read-only
    wr = RdmaWriteWR(
        sim,
        local=[Segment(lmr.stag, lmr.addr, 64)],
        remote=Segment(rmr.stag, rmr.addr, 64),
    )
    post(sim, a, qa, wr)
    with pytest.raises(AccessViolation):
        sim.run()


# ---------------------------------------------------------------- stale-stag
def test_use_after_deregister_of_remote_target():
    sim, a, b, qa, qb = make_pair()
    lbuf, lmr = reg(sim, a, 4096, AccessFlags.LOCAL_WRITE)
    rbuf, rmr = reg(sim, b, 4096, AccessFlags.REMOTE_WRITE)
    wr = RdmaWriteWR(
        sim,
        local=[Segment(lmr.stag, lmr.addr, 64)],
        remote=Segment(rmr.stag, rmr.addr, 64),
    )
    qa.post_send(wr)     # epoch snapshot happens here
    rmr.invalidate()     # ... and the target dies before delivery
    with pytest.raises(StaleStagViolation):
        sim.run()


def test_local_stag_invalidated_between_post_and_execute():
    sim, a, b, qa, qb = make_pair()
    lbuf, lmr = reg(sim, a, 4096, AccessFlags.LOCAL_WRITE)
    send = SendWR(sim, segments=[Segment(lmr.stag, lmr.addr, 32)])
    qa.post_send(send)
    lmr.invalidate()
    with pytest.raises(StaleStagViolation):
        sim.run()


def test_fmr_stag_reuse_window_is_caught():
    """The classic FMR hazard: a WR posted inside the unmap/remap
    window.  Its epoch snapshot predates the remap, so whether it
    delivers while the stag is dead (no live registration) or after the
    pool re-installs the same stag over different memory (epoch
    mismatch), the stale-stag rule fires."""
    from repro.ib.fmr import FMRPool

    sim, a, b, qa, qb = make_pair()
    lbuf, lmr = reg(sim, a, 4096, AccessFlags.LOCAL_WRITE)
    pool = FMRPool(b.hca.tpt, pool_size=1)
    victim = b.arena.alloc(4096)
    other = b.arena.alloc(4096)

    def map_one(buf):
        return (yield from pool.map(buf, AccessFlags.REMOTE_WRITE,
                                    buf.addr, 4096))

    mr1 = sim.run_until_complete(sim.process(map_one(victim)))
    wr = RdmaWriteWR(
        sim,
        local=[Segment(lmr.stag, lmr.addr, 64)],
        remote=Segment(mr1.stag, victim.addr, 64),
    )

    def remap():
        yield from pool.unmap(mr1)
        qa.post_send(wr)  # snapshot taken with the mapping already gone
        return (yield from map_one(other))

    with pytest.raises(StaleStagViolation):
        sim.run_until_complete(sim.process(remap()))
        sim.run()
    assert sim.sanitizer.counts["stale-stag"] == 1


# ------------------------------------------------------------ chunk-lifetime
def test_rdma_read_after_chunk_retired():
    sim, a, b, qa, qb = make_pair()
    san = sim.sanitizer
    lbuf, lmr = reg(sim, a, 4096, AccessFlags.LOCAL_WRITE)
    rbuf, rmr = reg(sim, b, 4096, AccessFlags.REMOTE_READ)
    tname = b.hca.tpt.name
    chunks = ChunkList()
    chunks.read_chunks.append(
        ReadChunk(position=0, segment=Segment(rmr.stag, rmr.addr, 4096)))
    san.advertise(tname, 0x77, chunks)
    san.retire(tname, 0x77)  # call completed; window must not be touched
    wr = RdmaReadWR(
        sim,
        local=[Segment(lmr.stag, lmr.addr, 64)],
        remote=Segment(rmr.stag, rmr.addr, 64),
    )
    post(sim, a, qa, wr)
    with pytest.raises(ChunkLifetimeViolation):
        sim.run()


def test_rdma_write_outside_advertised_window():
    sim, a, b, qa, qb = make_pair()
    san = sim.sanitizer
    lbuf, lmr = reg(sim, a, 4096, AccessFlags.LOCAL_WRITE)
    rbuf, rmr = reg(sim, b, 4096, AccessFlags.REMOTE_WRITE)
    tname = b.hca.tpt.name
    chunks = ChunkList()
    chunks.read_chunks.append(  # only [addr, addr+128) advertised, as read
        ReadChunk(position=0, segment=Segment(rmr.stag, rmr.addr, 128)))
    san.advertise(tname, 0x78, chunks)
    wr = RdmaWriteWR(  # write into a read-advertised stag
        sim,
        local=[Segment(lmr.stag, lmr.addr, 64)],
        remote=Segment(rmr.stag, rmr.addr, 64),
    )
    post(sim, a, qa, wr)
    with pytest.raises(ChunkLifetimeViolation):
        sim.run()


# ---------------------------------------------------------------- srq
def test_double_recycle_of_srq_slot():
    sim = Simulator()
    sim.sanitizer = Sanitizer(sim)
    fabric = Fabric(sim, seed=42)
    node = fabric.add_node("srv")
    pool = SharedReceivePool(node, entries=2, buffer_bytes=1024)
    sim.run_until_complete(sim.process(pool.setup()))
    wr = pool.take(SimpleNamespace(qp_num=7))
    assert wr is not None
    pool.recycle(wr)
    with pytest.raises(SrqViolation):
        pool.recycle(wr)  # same slot recycled twice


# ---------------------------------------------------------------- credits
def test_release_without_acquire_is_a_credit_violation():
    sim = Simulator()
    sim.sanitizer = Sanitizer(sim)
    mgr = CreditManager(sim, initial_grant=4)
    with pytest.raises(CreditViolation):
        mgr.release()


def test_outstanding_beyond_grant_is_a_credit_violation():
    sim = Simulator()
    sim.sanitizer = Sanitizer(sim)
    mgr = CreditManager(sim, initial_grant=1)
    sim.run_until_complete(sim.process(mgr.acquire()))
    mgr._outstanding = 3  # corrupt the ledger the way a double-grant would
    with pytest.raises(CreditViolation):
        sim.sanitizer.check_credits(mgr)


# ---------------------------------------------------------------- drc
def test_begin_on_live_drc_entry_is_a_violation():
    sim = Simulator()
    sim.sanitizer = Sanitizer(sim)
    drc = DuplicateRequestCache()
    drc.begin(0x42, 100003, 6)
    with pytest.raises(DrcViolation):
        sim.sanitizer.on_drc_begin(drc, 0x42, 100003, 6)


# ---------------------------------------------------------------- leak
def test_unbalanced_strategy_counters_report_as_leak():
    sim = Simulator()
    san = Sanitizer(sim)
    strategy = SimpleNamespace(name="reg.dynamic",
                               acquires=Counter("acquires"),
                               releases=Counter("releases"))
    strategy.acquires.add()
    strategy.acquires.add()
    strategy.releases.add()
    cluster = SimpleNamespace(
        all_stacks=[SimpleNamespace(name="server", strategy=strategy)],
        client_transports=[],
        server_transports=[SimpleNamespace(name="rr0",
                                           pending_done={0x9: ["region"]})],
        fabric=SimpleNamespace(nodes={}),
    )
    report = san.leak_report(cluster)
    assert len(report) == 2  # one held region + one pending DONE
    with pytest.raises(LeakViolation):
        san.check_teardown(cluster)



def test_qp_on_unlisted_host_reports_as_leak():
    """Every HCA on the fabric is walked, not only those a listed
    transport uses: a QP left on a host no transport runs on leaks."""
    c = Cluster(ClusterConfig(transport="rdma-rw"))
    host = c.add_client_node("stray")
    c.fabric.connect(host, c.server_node)
    report = Sanitizer(c.sim).leak_report(c)
    assert report == [
        "server.hca: 1 QP(s) held by no transport were never destroyed",
        "stray.hca: 1 QP(s) held by no transport were never destroyed",
    ]


@pytest.mark.parametrize("redial", [False, True])
def test_closed_read_read_client_keeps_no_bounce_buffers(redial):
    """A final close gives a Read-Read client's bounce buffers back; a
    redial's close keeps them for the next connection, so a transport
    left closed after one reports them."""
    c = Cluster(ClusterConfig(transport="rdma-rr"))
    mount = c.mounts[0]
    c.run(mount.transport.close("unmount", redial=redial))
    assert mount.node.hca.tpt.live_entries == (32 if redial else 0)
    assert Sanitizer(c.sim).leak_report(c) == (
        [f"{mount.transport.name}: closed with bounce buffers still registered"]
        if redial else [])

# ------------------------------------------------------------- clean traffic
def test_clean_rdma_traffic_records_no_violations():
    sim, a, b, qa, qb = make_pair()
    lbuf, lmr = reg(sim, a, 4096, AccessFlags.LOCAL_WRITE)
    rbuf, rmr = reg(sim, b, 4096, AccessFlags.REMOTE_READ | AccessFlags.REMOTE_WRITE)
    lbuf.fill(b"x" * 64)
    wr = RdmaWriteWR(
        sim,
        local=[Segment(lmr.stag, lmr.addr, 64)],
        remote=Segment(rmr.stag, rmr.addr, 64),
    )

    def proc():
        yield from a.hca.post_send(qa, wr)
        yield wr.completion

    sim.run_until_complete(sim.process(proc()))
    assert wr.cqe.ok
    assert sim.sanitizer.violations == []


def test_sanitized_iozone_point_is_bit_identical_and_clean():
    from repro.experiments.sweep import Point, run_point

    base = Point(
        kind="iozone",
        cluster={"transport": "rdma-rw", "strategy": "cache",
                 "profile": "solaris-sdr"},
        params={"nthreads": 2, "record_bytes": 128 * 1024,
                "ops_per_thread": 6},
    )
    sanitized = Point(kind=base.kind,
                      cluster={**base.cluster, "sanitizer": True},
                      params=base.params)
    assert run_point(base) == run_point(sanitized)


def test_violation_hierarchy_and_recording_mode():
    sim = Simulator()
    san = Sanitizer(sim, raise_on_violation=False)
    mgr = CreditManager(sim, initial_grant=1)
    mgr._outstanding = 5
    san.check_credits(mgr)  # records instead of raising
    assert san.total_violations == 1
    assert san.counts["credits"] == 1
    assert san.violations[0].rule == "credits"
    assert issubclass(CreditViolation, SanitizerError)
    # Deliberately NOT a ProtectionError: sanitizer failures must escape
    # the transport's fault handling and crash loudly.
    from repro.ib.memory import ProtectionError

    assert not issubclass(SanitizerError, ProtectionError)
