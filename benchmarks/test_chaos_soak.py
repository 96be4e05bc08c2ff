"""Chaos soak: self-healing mounts under a randomized fault schedule.

Four clients run a Postmark-style workload over ``rdma-rw`` on the RAID
backend while a seeded plan kills QPs, drops ~1% of channel messages
and injects transient disk errors.  No test code ever repairs a mount —
recovery is entirely the transport's redial-and-resend machinery —
and the invariants checked are exactly-once execution of non-idempotent
procedures and durability of every acknowledged stable write.
"""


from repro.experiments.chaos import run_chaos_soak


def test_chaos_soak(benchmark, bench_scale, record_result):
    out = benchmark.pedantic(
        run_chaos_soak, args=(bench_scale,), rounds=1, iterations=1,
    )
    record_result(out.summary)

    # The workload survives the schedule without manual intervention.
    assert out.completed, "workload did not finish under faults"
    # Exactly-once: every non-idempotent procedure executed once.
    assert out.duplicate_executions == 0, out.executions
    # Durability: every acknowledged stable WRITE read back intact.
    assert out.lost_writes == 0
    assert out.verified_files > 0

    # The schedule actually bit: this was a soak, not a calm run.
    faults = out.cluster.faults
    assert faults.qp_kills_fired.events >= 3
    assert faults.messages_dropped.events > 0
    assert faults.summary()["disk errors hit"] >= 2
    # Every fired kill was healed by the transport's own redial policy.
    reconnects = sum(m.transport.reconnects.events for m in out.cluster.mounts)
    assert reconnects >= faults.qp_kills_fired.events
    # Loss expired reply timers, whose redials resent the calls; the
    # duplicates were absorbed server-side.
    retrans = sum(m.transport.retransmissions.events for m in out.cluster.mounts)
    assert retrans > 0
    drc = out.cluster.drc
    assert drc.replays.events + drc.drops.events > 0
