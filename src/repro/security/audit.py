"""Exposure auditing and the executable Table 1.

``probe_primitive_properties`` reproduces the paper's Table 1 by
*probing* the verbs substrate rather than asserting constants: it runs
four miniature exchanges and observes whether the receive buffer had to
be exposed, pre-posted, steering-tagged and rendezvoused for each
primitive class.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ib import (
    AccessFlags,
    Fabric,
    RdmaWriteWR,
    RecvWR,
    Segment,
    SendWR,
)
from repro.sim import Simulator

__all__ = [
    "PrimitiveProperties",
    "audit_server_exposure",
    "probe_primitive_properties",
    "stag_guess_success_probability",
]


@dataclass(frozen=True)
class PrimitiveProperties:
    """One row-group of Table 1."""

    primitive: str                  # "channel" | "memory"
    receive_buffer_exposed: bool
    receive_buffer_pre_posted: bool
    steering_tag: bool
    rendezvous: bool


def probe_primitive_properties() -> list[PrimitiveProperties]:
    """Derive Table 1 by exercising the verbs layer."""
    sim = Simulator()
    fabric = Fabric(sim, seed=404)
    a = fabric.add_node("probe-a")
    b = fabric.add_node("probe-b")
    qa, qb = fabric.connect(a, b)

    def setup():
        send_src = a.arena.alloc(4096)
        recv_dst = b.arena.alloc(4096)
        recv_mr = yield from b.hca.tpt.register(recv_dst, AccessFlags.LOCAL_WRITE)
        write_dst = b.arena.alloc(4096)
        write_mr = yield from b.hca.tpt.register(write_dst, AccessFlags.REMOTE_WRITE)
        src_mr = yield from a.hca.tpt.register(send_src, AccessFlags.LOCAL_WRITE)
        return recv_mr, write_mr, src_mr

    recv_mr, write_mr, src_mr = sim.run_until_complete(sim.process(setup()))

    # -- channel semantics probe ---------------------------------------------
    # 1. A send with no pre-posted receive goes RNR (pre-posting required).
    probe_send = SendWR(sim, inline=b"probe")

    def send_no_recv():
        yield from a.hca.post_send(qa, probe_send)
        yield sim.timeout(30.0)  # long enough for the first RNR event

    sim.run_until_complete(sim.process(send_no_recv()))
    channel_preposted_required = a.hca.rnr_events.events > 0
    # Let it land now.
    qb.post_recv(RecvWR(sim, [Segment(recv_mr.stag, recv_mr.addr, 4096)]))
    sim.run(until=sim.now + 10_000.0)

    # 2. The receive buffer's MR carries no remote rights (not exposed),
    #    and the sender never named a steering tag or buffer address.
    channel_exposed = recv_mr.access.remote
    channel_needs_stag = False      # SendWR carries no remote segment at all
    channel_rendezvous = False      # nothing about B's memory was exchanged

    # -- memory semantics probe ---------------------------------------------
    # An RDMA Write requires a rendezvoused (stag, addr) naming an MR with
    # remote rights; receive-side posting is NOT required.
    wr = RdmaWriteWR(
        sim,
        local=[Segment(src_mr.stag, src_mr.addr, 8)],
        remote=Segment(write_mr.stag, write_mr.addr, 8),
    )
    posted_recvs_before = qb.recv_queue_depth

    def do_write():
        yield from a.hca.post_send(qa, wr)
        yield wr.completion

    sim.run_until_complete(sim.process(do_write()))
    memory_ok_without_recv = wr.cqe.ok and qb.recv_queue_depth == posted_recvs_before
    memory_exposed = write_mr.access.remote
    memory_needs_stag = True        # the WR literally carries the stag
    memory_rendezvous = True        # stag+addr had to be communicated first

    return [
        PrimitiveProperties(
            primitive="channel",
            receive_buffer_exposed=bool(channel_exposed),
            receive_buffer_pre_posted=bool(channel_preposted_required),
            steering_tag=channel_needs_stag,
            rendezvous=channel_rendezvous,
        ),
        PrimitiveProperties(
            primitive="memory",
            receive_buffer_exposed=bool(memory_exposed),
            receive_buffer_pre_posted=not memory_ok_without_recv,
            steering_tag=memory_needs_stag,
            rendezvous=memory_rendezvous,
        ),
    ]


def audit_server_exposure(server_node, server_transports) -> dict:
    """Attack-surface snapshot of an NFS server (DESIGN.md invariant 3).

    ``server_node`` may be a single node or a sequence of nodes — a
    sharded deployment exposes regions on *every* server HCA, so the
    audit walks each TPT and sums.  (The single-node form silently
    missed K-1 nodes' exposures on multi-node clusters.)

    Receive-buffer accounting is pool-aware: transports that share one
    :class:`~repro.ib.srq.SharedReceivePool` contribute its registered
    bytes *once* (keyed by pool identity), while per-connection rings
    are summed per transport.  Before the shared pool existed every
    transport owned its ring, so the naive per-transport sum was exact;
    after PR 4 it would overcount the shared pool ``n``-fold.
    """
    nodes = (list(server_node) if isinstance(server_node, (list, tuple))
             else [server_node])
    tpts = [node.hca.tpt for node in nodes]
    exposed_now = [mr for tpt in tpts for mr in tpt.remotely_exposed()]
    pending = 0
    pending_bytes = 0
    recv_bytes = 0
    shared_pools: set[int] = set()
    for transport in server_transports:
        pending += transport.pending_done_count
        pending_bytes += transport.exposed_bytes
        srq = getattr(transport, "srq", None)
        if srq is not None:
            if id(srq) not in shared_pools:
                shared_pools.add(id(srq))
                recv_bytes += srq.registered_bytes
            continue
        pool = getattr(transport, "recv_pool", None)
        if pool is not None:
            recv_bytes += pool.count * pool.size
    return {
        "exposed_regions_now": len(exposed_now),
        "exposed_bytes_now": sum(mr.length for mr in exposed_now),
        "stags_exposed_ever": sum(len(tpt.stags_exposed_ever)
                                  for tpt in tpts),
        "protection_faults": sum(tpt.protection_faults.events
                                 for tpt in tpts),
        "pending_done_ops": pending,
        "pending_done_bytes": pending_bytes,
        "recv_registered_bytes": recv_bytes,
        "recv_shared_pools": len(shared_pools),
        "server_nodes_audited": len(nodes),
    }


def stag_guess_success_probability(exposed_stags: int) -> float:
    """Odds one uniform 32-bit guess names an exposed stag."""
    return exposed_stags / 2**32
