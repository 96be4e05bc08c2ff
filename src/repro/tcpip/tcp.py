"""Message-bearing TCP connections with full host-side cost accounting.

The unit of transfer is an application message (ONC RPC does its own
record marking on TCP, so message framing is faithful).  Each message is
cut into NIC segments; per segment the sender charges copy/checksum CPU,
the segment occupies sender-egress and receiver-ingress wire, and the
receiver charges its (coalesced) interrupt plus copy/checksum CPU before
the message is delivered to the receive queue.

This is where TCP's costs live relative to RDMA: every byte crosses each
host's memory bus multiple times and takes CPU on *both* ends, whereas
the RDMA data path in :mod:`repro.ib` touches no remote CPU at all.
"""

from __future__ import annotations

import itertools
from typing import Generator

from repro.ib.link import DuplexLink, Route
from repro.osmodel import CPU, InterruptController
from repro.sim import Counter, Resource, Simulator, Store

from repro.tcpip.nic import NicProfile

__all__ = ["TcpConnection", "TcpEndpoint"]

_conn_ids = itertools.count(1)


class TcpEndpoint:
    """A host's attachment point: CPU + interrupt controller + NIC port."""

    def __init__(
        self,
        sim: Simulator,
        cpu: CPU,
        irq: InterruptController,
        profile: NicProfile,
        name: str = "tcp-ep",
        port: DuplexLink | None = None,
    ):
        self.sim = sim
        self.cpu = cpu
        self.irq = irq
        self.profile = profile
        self.name = name
        #: the NIC port; endpoints sharing one physical NIC pass it in,
        #: else the endpoint gets a port of its own.
        self.port: DuplexLink = (profile.port(sim, f"{name}.{profile.name}")
                                 if port is None else port)
        self._rx_irq_last = -float("inf")

    def _tx_cpu_us(self, nbytes: int) -> float:
        passes = self.profile.cpu_passes_tx
        return passes * self.cpu.config.copy_cost_us(nbytes) + self.profile.per_segment_cpu_us

    def _rx_cpu_us(self, nbytes: int) -> float:
        passes = self.profile.cpu_passes_rx
        return passes * self.cpu.config.copy_cost_us(nbytes) + self.profile.per_segment_cpu_us


class _Direction:
    """One direction of a connection: the sender, the receiver, the wire
    between their ports, the two pipeline stages its segments pass
    through, and the receiver's inbox."""

    __slots__ = ("side", "peer", "route", "tx_stage", "rx_stage", "inbox")

    def __init__(self, sim: Simulator, side: TcpEndpoint, peer: TcpEndpoint):
        self.side = side
        self.peer = peer
        self.route = Route(side.port, peer.port)
        # Pipeline stages keep segments ordered within the direction
        # while letting CPU work overlap wire time.
        self.tx_stage = Resource(sim)
        self.rx_stage = Resource(sim)
        self.inbox = Store(sim)


class TcpConnection:
    """A reliable, ordered, bidirectional message pipe between endpoints."""

    def __init__(self, a: TcpEndpoint, b: TcpEndpoint):
        if a.sim is not b.sim:
            raise ValueError("endpoints live in different simulators")
        if a.profile.name != b.profile.name:
            raise ValueError(
                f"mixed NIC profiles on one connection: {a.profile.name} vs {b.profile.name}"
            )
        self.sim = a.sim
        self.conn_id = next(_conn_ids)
        self.a = a
        self.b = b
        self._ab = _Direction(self.sim, a, b)
        self._ba = _Direction(self.sim, b, a)
        self.bytes_sent = Counter(f"tcp{self.conn_id}.bytes")
        self.messages_sent = Counter(f"tcp{self.conn_id}.messages")
        self.closed = False

    def _direction(self, side: TcpEndpoint, inbound: bool = False) -> _Direction:
        """The direction ``side`` sends on, or with ``inbound`` receives on."""
        if side is self.a:
            return self._ba if inbound else self._ab
        if side is self.b:
            return self._ab if inbound else self._ba
        raise ValueError("endpoint not part of this connection")

    def send(self, side: TcpEndpoint, message: bytes) -> Generator:
        """Process: move ``message`` from ``side`` to its peer.

        Completes when the last segment has been handed to the peer's
        stack; delivery to the peer's receive queue happens then too.
        """
        if self.closed:
            raise ConnectionError("send on closed TCP connection")
        direction = self._direction(side)
        peer = direction.peer
        total = len(message)
        # The message plan: one (bytes, tx_us, wire delays, rx_us) per
        # segment.  Every full-size segment costs the same, so they share
        # one tuple priced once; the tail (or the one empty segment of an
        # empty message) gets its own.
        route = direction.route
        step = side.profile.segment_bytes
        full, tail = divmod(total, step)
        plan = [(step, side._tx_cpu_us(step), route.delays(step),
                 peer._rx_cpu_us(step))] * full if full else []
        if tail or not full:
            plan.append((tail, side._tx_cpu_us(tail), route.delays(tail),
                         peer._rx_cpu_us(tail)))
        # Three-stage pipeline per segment: tx CPU, wire, rx CPU.  Stages
        # are FIFO resources so segments stay ordered within a direction
        # while stage N+1 of one segment overlaps stage N of the next —
        # which is how a real TCP stack keeps the wire busy.  The tx slot
        # is claimed HERE, once per message and in message order, so the
        # pipeline's FIFO order never rests on the boot order of sibling
        # processes, which the schedule perturbation checker
        # (repro.check.races) deliberately breaks.  Segment 0 takes the
        # slot and the segments pass it down a chain: each boots its
        # successor when its tx work ends, and the last one releases it.
        # Segments can finish out of index order (on GigE a short tail
        # overtakes the two-chunk segments before it), so ``done`` fires
        # when the last one to *finish* counts ``left`` down to zero.
        done = self.sim.event()
        req = direction.tx_stage.request()
        self.sim.process(self._segment(direction, plan, 0, req, [len(plan)], done))
        yield done
        self.bytes_sent.add(total)
        self.messages_sent.add(1)
        yield direction.inbox.put(message)

    def _segment(self, direction: _Direction, plan: list[tuple], k: int, req,
                 left: list[int], done) -> Generator:
        side = direction.side
        peer = direction.peer
        seg, tx_us, wire, rx_us = plan[k]
        if k == 0:
            yield req
        try:
            # Sender: copy into the stack + checksum + protocol work.
            yield from side.cpu.consume(tx_us)
        finally:
            # Hand the slot on: the successor starts its tx work only
            # once this segment's ends, which keeps the stage FIFO.
            if k + 1 < len(plan):
                self.sim.process(self._segment(direction, plan, k + 1, req, left, done))
            else:
                direction.tx_stage.release(req)
        # Wire: occupies sender egress and receiver ingress.
        yield from direction.route.carry(seg, wire)
        rx_stage = direction.rx_stage
        req = rx_stage.request()
        yield req
        try:
            # Receiver: interrupt (coalesced) then copy out of the stack.
            now = self.sim.now
            if now - peer._rx_irq_last >= peer.profile.rx_interrupt_coalesce_us:
                peer._rx_irq_last = now
                yield from peer.irq.charge()
            yield from peer.cpu.consume(rx_us)
        finally:
            rx_stage.release(req)
        left[0] -= 1
        if not left[0]:
            done.succeed()

    def recv(self, side: TcpEndpoint):
        """Event firing with the next message addressed to ``side``."""
        return self._direction(side, inbound=True).inbox.get()

    def pending(self, side: TcpEndpoint) -> int:
        """Messages delivered to ``side`` and not yet received."""
        return len(self._direction(side, inbound=True).inbox)

    def close(self) -> None:
        self.closed = True

