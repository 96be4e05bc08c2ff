"""Segmented message transfer through a three-stage pipeline.

A :class:`SegmentPipeline` is one direction of a message pipe: the
sender's CPU, the wire and the receiver's CPU.  A message is cut into
segments priced up front as a *plan*, one ``(bytes, tx_us, wire_delays,
rx_us)`` tuple per segment, and :meth:`SegmentPipeline.transmit` runs
each segment as a process of its own.  The three stages are FIFO, so
segments stay ordered within the direction while stage N+1 of one
segment overlaps stage N of the next — which is how a real TCP stack
keeps the wire busy.

The class below is the pure-python reference.  When the compiled core
is live, the module tail swaps in ``_cengine.SegmentPipeline``, whose
segments run as a C iterator driving compiled ``Resource.hold``\\ s: the
same events in the same order, with no Python frame per event (see the
equivalence notes in ``_cengine.c``).
"""

from __future__ import annotations

from typing import Generator

from repro.sim import engine as _engine
from repro.sim.resources import Resource

__all__ = ["SegmentPipeline"]


class SegmentPipeline:
    """One direction of a message pipe: sender CPU, wire, receiver CPU.

    ``sender`` needs a ``cpu`` (a :class:`~repro.osmodel.CPU`);
    ``receiver`` a ``cpu``, an ``irq`` controller, a ``profile`` whose
    ``rx_interrupt_coalesce_us`` is its receive-interrupt coalescing
    window, and ``_rx_irq_last``, the instant of its last charged
    receive interrupt, which every pipeline into it shares.  ``route``
    is the wire from the sender's port to the receiver's
    (:class:`~repro.ib.link.Route`).  The compiled pipeline reads the
    CPUs', the interrupt controller's and the route's claim
    ingredients once, when it is built.
    """

    __slots__ = ("sim", "sender", "receiver", "route", "tx_stage", "rx_stage")

    def __init__(self, sim, sender, receiver, route):
        self.sim = sim
        self.sender = sender
        self.receiver = receiver
        self.route = route
        self.tx_stage = Resource(sim)
        self.rx_stage = Resource(sim)

    def transmit(self, plan: list[tuple]):
        """Send the message priced as ``plan``, one process per segment.

        Returns the event that fires when the last segment to finish has
        been handed to the receiver.  The tx slot is claimed HERE, once
        per message and in message order, so the pipeline's FIFO order
        never rests on the boot order of sibling processes, which the
        schedule perturbation checker (repro.check.races) deliberately
        breaks.  Segment 0 takes the slot and the segments pass it down
        a chain: each boots its successor when its tx work ends, and the
        last one releases it.  Segments can finish out of index order
        (on GigE a short tail overtakes the two-chunk segments before
        it), so ``done`` fires when the last one to *finish* counts
        ``left`` down to zero.
        """
        done = self.sim.event()
        req = self.tx_stage.request()
        self.sim.process(self._segment(plan, 0, req, [len(plan)], done))
        return done

    def _segment(self, plan: list[tuple], k: int, req, left: list[int],
                 done) -> Generator:
        side = self.sender
        peer = self.receiver
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
                self.sim.process(self._segment(plan, k + 1, req, left, done))
            else:
                self.tx_stage.release(req)
        # Wire: occupies sender egress and receiver ingress.
        yield from self.route.carry(seg, wire)
        rx_stage = self.rx_stage
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


if _engine.ACTIVE_CORE == "c":
    SegmentPipeline = _engine._cengine.SegmentPipeline
