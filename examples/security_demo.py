#!/usr/bin/env python
"""The §4.1 security story, live: attack both transport designs.

Demonstrates (1) the RDMA_DONE-withholding resource-exhaustion attack
against the Read-Read server, (2) its impossibility against the
Read-Write server, and (3) steering-tag guessing odds against each.

Run:  python examples/security_demo.py
"""

from repro.api import Cluster, ClusterConfig, IozoneParams, run_iozone
from repro.core.readread import ReadReadServer
from repro.nfs import NfsClient
from repro.security import (
    DoneWithholdingClient,
    StagGuessingAdversary,
    audit_server_exposure,
    stag_guess_success_probability,
)


def attack_read_read() -> None:
    print("== Read-Read design under attack ==")
    cluster = Cluster(ClusterConfig(transport="rdma-rr"))
    mount = cluster.mounts[0]

    # A malicious client: wire up a connection whose client never sends
    # RDMA_DONE, then read through it repeatedly.
    qp_c, qp_s = cluster.fabric.connect(mount.node, cluster.server_node)
    evil = DoneWithholdingClient(
        mount.node, qp_c, cluster.config.profile.rpcrdma, mount.transport.strategy
    )
    server_side = ReadReadServer(
        cluster.server_node, qp_s, cluster.config.profile.rpcrdma,
        cluster.server_strategy,
    )
    server_side.attach(cluster.rpc_server)
    evil.peer_ready = server_side.ready
    nfs = NfsClient(evil, cluster.nfs_server.root_handle())

    def attack():
        fh, _ = yield from nfs.create(nfs.root, "bait")
        yield from nfs.write(fh, 0, bytes(4 << 20))
        for i in range(16):
            yield from nfs.read(fh, i * 256 * 1024, 256 * 1024)

    cluster.run(attack())
    report = audit_server_exposure(cluster.server_node, [server_side])
    print(f"  reads completed normally; DONEs withheld: "
          f"{evil.dones_suppressed.events}")
    print(f"  server buffers pinned forever: {report['pending_done_ops']} ops, "
          f"{report['pending_done_bytes'] // 1024} KB")
    print(f"  server windows a stag-guesser could hit right now: "
          f"{report['exposed_regions_now']}")
    p = stag_guess_success_probability(report["exposed_regions_now"])
    print(f"  single uniform 32-bit guess success probability: {p:.3e}")


def attack_read_write() -> None:
    print("\n== Read-Write design under the same pressure ==")
    cluster = Cluster(ClusterConfig(transport="rdma-rw"))
    run_iozone(cluster, IozoneParams(nthreads=4, ops_per_thread=16))
    cluster.sim.run(until=cluster.sim.now + 100_000.0)
    report = audit_server_exposure(cluster.server_node, cluster.server_transports)
    print(f"  server stags ever exposed: {report['stags_exposed_ever']}")
    print(f"  exposed windows now: {report['exposed_regions_now']}")
    print(f"  DONE messages in the protocol at all: none — nothing to withhold")

    # Guessing against a server that exposes nothing.
    mount = cluster.mounts[0]

    def qp_factory():
        return cluster.server_stacks[0].open_qp(mount.node)

    adversary = StagGuessingAdversary(mount.node, qp_factory, seed=1)
    cluster.run(adversary.run(guesses=100))
    print(f"  {adversary.attempts.events} guessed RDMA reads -> "
          f"{adversary.successes.events} hits, {adversary.naks.events} NAKs")
    print(f"  server protection faults logged: "
          f"{cluster.server_node.hca.tpt.protection_faults.events}")


if __name__ == "__main__":
    attack_read_read()
    attack_read_write()
