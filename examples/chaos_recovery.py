#!/usr/bin/env python
"""Self-healing RPC/RDMA mounts under injected faults.

Builds a four-client deployment with a seeded chaos schedule — QP
kills, ~1.5% message loss, transient disk errors — and runs a
Postmark-style workload straight through it.  Nothing in the workload
handles failures: a dead queue pair, or a reply timer that expires
because a message was lost, triggers an automatic redial that resends
the in-flight calls with the same xid on the fresh connection, and the
server's duplicate request cache absorbs the duplicates (exactly-once
for CREATE/REMOVE/RENAME).

Run:  python examples/chaos_recovery.py
"""

from repro.experiments.chaos import run_chaos_soak


def main() -> None:
    out = run_chaos_soak("quick", seed=2007, loss_rate=0.015)
    cluster = out.cluster
    faults = cluster.faults

    print("chaos schedule (seed 2007):")
    for kill in faults.plan.qp_kills:
        print(f"  t={kill.at_us / 1e3:7.1f} ms  kill QP of "
              f"client{kill.client_index % len(cluster.mounts)}")
    for df in faults.plan.disk_faults:
        print(f"  t={df.at_us / 1e3:7.1f} ms  arm {df.count} transient "
              "disk error(s)")
    loss = faults.plan.message_loss[0]
    print(f"  continuous: drop {loss.rate:.1%} of channel messages\n")

    status = "completed" if out.completed else "DID NOT COMPLETE"
    print(f"workload {status}: {out.verified_files} files verified, "
          f"{out.lost_writes} lost acknowledged writes, "
          f"{out.duplicate_executions} duplicate non-idempotent executions\n")

    print(out.summary.table())

    reconnects = sum(m.transport.reconnects.events for m in cluster.mounts)
    retrans = sum(m.transport.retransmissions.events for m in cluster.mounts)
    print(f"\n{faults.qp_kills_fired.events} QP kills and {retrans} reply "
          f"timeouts healed by {reconnects} automatic redials; the resends "
          f"covered {faults.messages_dropped.events} dropped messages and "
          "every slow reply, with the DRC absorbing the duplicates; "
          "the workload never saw an error.")


if __name__ == "__main__":
    main()
