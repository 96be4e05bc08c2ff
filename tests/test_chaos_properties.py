"""Property-based chaos tests: exactly-once and durability under loss.

Hypothesis drives randomized fault schedules (message loss rates, QP
kill times) against a live cluster; the invariants checked are the two
the recovery machinery promises:

* every non-idempotent NFS procedure the server runs, it runs exactly
  once per (xid, proc) — resends after redials never re-execute;
* every acknowledged WRITE is readable after recovery — no lost
  acknowledged data.

Each example is a full cluster build + workload, so ``max_examples`` is
kept small; any failure reproduces from the printed seeds alone.
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import SOLARIS_SDR
from repro.core.config import RpcRdmaConfig
from repro.experiments import Cluster, ClusterConfig
from repro.faults import FaultPlan, MessageLoss, QpKill
from repro.nfs.protocol import Nfs3Proc

NFS_PROG, NFS_VERS = 100003, 3
NON_IDEMPOTENT = {Nfs3Proc.CREATE, Nfs3Proc.REMOVE, Nfs3Proc.RENAME}


def _instrument(cluster):
    executions: dict = {}
    original = cluster.rpc_server._programs[(NFS_PROG, NFS_VERS)]

    def wrapped(call):
        key = (call.xid, call.proc)
        executions[key] = executions.get(key, 0) + 1
        return (yield from original(call))

    cluster.rpc_server._programs[(NFS_PROG, NFS_VERS)] = wrapped
    return executions


def _chaos_cluster(plan_seed, loss_rate, kill_times):
    profile = replace(
        SOLARIS_SDR,
        rpcrdma=replace(RpcRdmaConfig(), reply_timeout_us=30_000.0),
    )
    plan = FaultPlan(
        seed=plan_seed,
        message_loss=(MessageLoss(rate=loss_rate),) if loss_rate > 0 else (),
        qp_kills=tuple(QpKill(at_us=t) for t in kill_times),
    )
    return Cluster(ClusterConfig(transport="rdma-rw", profile=profile,
                                 fault_plan=plan))


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    plan_seed=st.integers(0, 2**16),
    loss_rate=st.floats(0.0, 0.08),
    kill_times=st.lists(st.floats(100.0, 300_000.0), max_size=2),
)
def test_nonidempotent_exactly_once_under_loss(plan_seed, loss_rate, kill_times):
    c = _chaos_cluster(plan_seed, loss_rate, kill_times)
    nfs = c.mounts[0].nfs
    executions = _instrument(c)
    results = []

    def workload():
        for i in range(6):
            fh, _ = yield from nfs.create(nfs.root, f"f{i}")
            yield from nfs.write(fh, 0, bytes([i]) * 4096)
            if i % 2:
                yield from nfs.rename(nfs.root, f"f{i}", nfs.root, f"g{i}")
        yield from nfs.remove(nfs.root, "f0")
        entries = yield from nfs.readdir(nfs.root)
        results.append(sorted(e.name for e in entries))

    c.sim.process(workload())
    c.sim.run(until=c.sim.now + 600_000_000.0)

    # The workload always completes despite the schedule.
    assert results == [sorted(["f2", "f4", "g1", "g3", "g5"])]
    # Exactly-once for every non-idempotent procedure the server saw.
    for (xid, proc), count in executions.items():
        if proc in NON_IDEMPOTENT:
            assert count == 1, (xid, proc, count)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    plan_seed=st.integers(0, 2**16),
    loss_rate=st.floats(0.0, 0.08),
    kill_time=st.floats(100.0, 200_000.0),
    payloads=st.lists(st.binary(min_size=1, max_size=8192),
                      min_size=1, max_size=5),
)
def test_acked_writes_durable_after_recovery(plan_seed, loss_rate, kill_time,
                                             payloads):
    c = _chaos_cluster(plan_seed, loss_rate, [kill_time])
    nfs = c.mounts[0].nfs
    results = []

    def workload():
        fh, _ = yield from nfs.create(nfs.root, "journal")
        offset = 0
        acked = []
        for payload in payloads:
            yield from nfs.write(fh, offset, payload)
            acked.append((offset, payload))  # acknowledged: must persist
            offset += len(payload)
        # Read every acknowledged extent back after all faults.
        for off, payload in acked:
            data, _, _ = yield from nfs.read(fh, off, len(payload))
            assert data == payload, f"lost acknowledged write at {off}"
        results.append(len(acked))

    c.sim.process(workload())
    c.sim.run(until=c.sim.now + 600_000_000.0)
    assert results == [len(payloads)]
