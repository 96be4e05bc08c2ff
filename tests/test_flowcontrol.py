"""Tests for credit flow control: manager, policies, end-to-end behavior."""

import pytest

from repro.core import AdaptiveCreditPolicy
from repro.core.credits import CreditManager
from repro.core.readwrite import ReadWriteServer
from repro.experiments import Cluster, ClusterConfig
from repro.sim import Simulator


# ---------------------------------------------------------------- manager
def test_credit_manager_acquire_release_cycle():
    sim = Simulator()
    mgr = CreditManager(sim, initial_grant=2)

    def proc():
        yield from mgr.acquire()
        yield from mgr.acquire()
        assert mgr.available == 0
        mgr.release()
        assert mgr.available == 1

    sim.run_until_complete(sim.process(proc()))


def test_credit_manager_blocks_at_grant():
    sim = Simulator()
    mgr = CreditManager(sim, initial_grant=1)
    progress = []

    def first():
        yield from mgr.acquire()
        yield sim.timeout(10.0)
        mgr.release()

    def second():
        yield from mgr.acquire()
        progress.append(sim.now)
        mgr.release()

    sim.process(first())
    sim.process(second())
    sim.run()
    assert progress == [10.0]
    assert mgr.waits.events == 1


def test_credit_manager_grant_growth_releases_extra():
    sim = Simulator()
    mgr = CreditManager(sim, initial_grant=2)

    def proc():
        yield from mgr.acquire()
        mgr.release(new_grant=5)  # grant grew by 3: refund 1 + 3
        assert mgr.available == 5
        assert mgr.grant == 5

    sim.run_until_complete(sim.process(proc()))


def test_credit_manager_grant_shrink_withholds_refunds():
    sim = Simulator()
    mgr = CreditManager(sim, initial_grant=4)

    def proc():
        for _ in range(4):
            yield from mgr.acquire()
        mgr.release(new_grant=2)  # shrink by 2: 1 refund - 2 = deficit 1
        assert mgr.available == 0
        mgr.release()             # pays the deficit, no refund
        assert mgr.available == 0
        mgr.release()             # normal refund resumes
        assert mgr.available == 1

    sim.run_until_complete(sim.process(proc()))


def test_credit_manager_over_release_rejected():
    sim = Simulator()
    mgr = CreditManager(sim, initial_grant=1)
    with pytest.raises(RuntimeError):
        mgr.release()


def test_credit_manager_validation():
    with pytest.raises(ValueError):
        CreditManager(Simulator(), initial_grant=0)


# ---------------------------------------------------------------- policies
def test_adaptive_policy_fair_share():
    policy = AdaptiveCreditPolicy(total_credits=64, max_grant=64)
    for conn in range(4):
        policy.register_connection(conn)
    assert policy.grant_for(0, backlog=0) == 16  # 64 / 4


def test_adaptive_policy_shrinks_on_backlog():
    policy = AdaptiveCreditPolicy(total_credits=64, backlog_high=10)
    policy.register_connection(1)
    before = policy.grant_for(1, backlog=0)
    squeezed = policy.grant_for(1, backlog=100)
    assert squeezed < before
    assert policy.shrinks.events == 1
    assert policy.target == 32


def test_adaptive_policy_recovers_additively():
    policy = AdaptiveCreditPolicy(total_credits=64, backlog_high=10,
                                  backlog_low=2, recover_step=2)
    policy.register_connection(1)
    policy.grant_for(1, backlog=100)   # halve to 32
    for _ in range(16):
        policy.grant_for(1, backlog=0)
    assert policy.target == 64         # fully recovered
    assert policy.grows.events == 16


def test_adaptive_policy_floor():
    policy = AdaptiveCreditPolicy(total_credits=64, min_grant=2,
                                  backlog_high=2, backlog_low=1)
    policy.register_connection(1)
    for _ in range(20):
        grant = policy.grant_for(1, backlog=50)
    assert grant >= 2


def test_adaptive_policy_validation():
    with pytest.raises(ValueError):
        AdaptiveCreditPolicy(min_grant=0)
    with pytest.raises(ValueError):
        AdaptiveCreditPolicy(backlog_low=32, backlog_high=32)


def test_adaptive_policy_unregister_redistributes():
    policy = AdaptiveCreditPolicy(total_credits=60, max_grant=64)
    for conn in (1, 2, 3):
        policy.register_connection(conn)
    assert policy.grant_for(1, backlog=0) == 20
    policy.unregister_connection(3)
    assert policy.grant_for(1, backlog=0) >= 30


# ---------------------------------------------------------------- end to end
def test_reply_grant_reaches_client_manager():
    """A server policy's grant is applied by the client on each reply."""
    cluster = Cluster(ClusterConfig(transport="rdma-rw"))
    server = cluster.server_transports[0]
    server.credit_policy = AdaptiveCreditPolicy(
        total_credits=8, min_grant=2, max_grant=8, backlog_high=4, backlog_low=1,
    )
    server.credit_policy.register_connection(server.qp.qp_num)
    nfs = cluster.mounts[0].nfs

    def traffic():
        fh, _ = yield from nfs.create(nfs.root, "f")
        for i in range(6):
            yield from nfs.write(fh, i * 4096, b"x" * 4096)

    cluster.run(traffic())
    client = cluster.mounts[0].transport
    # The client's grant now reflects the policy, not the static config.
    assert client.credits.grant <= 8


def test_disconnect_reclaims_withheld_buffers():
    """§4.1 mitigation: dropping the connection frees pinned windows."""
    from tests.test_security import make_rr_cluster_with_withholder

    c, nfs, withholder, server = make_rr_cluster_with_withholder()

    def attack():
        fh, _ = yield from nfs.create(nfs.root, "pinned")
        yield from nfs.write(fh, 0, bytes(512 * 1024))
        for i in range(4):
            yield from nfs.read(fh, i * 128 * 1024, 128 * 1024)

    c.run(attack())
    assert server.pending_done_count == 4
    c.run(server.disconnect())
    assert server.pending_done_count == 0
    assert c.server_node.hca.tpt.remotely_exposed() == []
