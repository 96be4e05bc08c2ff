"""Malicious clients from §4.1, runnable against either transport design.

``StagGuessingAdversary``
    "Since the steering tags are 32-bits in length, a misbehaving or
    malicious client might attempt to guess them and thereby possibly
    read a buffer for which it did not have access."  The adversary
    reuses its legitimate RC connection to fire RDMA Reads at random
    steering tags.  Every guess lands in the target's TPT check; against
    the Read-Write server there is nothing to hit, ever.

``DoneWithholdingClient``
    "A malicious or malfunctioning client may never send the RDMA Done
    message, essentially tying up the server resources."  A Read-Read
    client whose ``_send_done`` is a no-op: the server's exposed regions
    accumulate without bound.

``OutOfBoundsProbe``
    A client that *was* legitimately handed a chunk but tries to read
    beyond its advertised window — exercising the TPT's bounds checks.

``StaleChunkReplayAdversary``
    A Read-Read client that behaves perfectly — fetches chunks, sends
    its DONEs — while recording every chunk window it was handed, then
    replays RDMA Reads against those retired stags across registration
    epochs (the use-after-DONE / stag-reuse attack).

``FloodAdversary``
    Bursts of garbage inline sends (undecodable RPC/RDMA headers) mixed
    with wild RDMA Reads: the resource-exhaustion/fuzzing client that
    the misbehavior-score → quarantine ladder exists for.

Every attack work request is tagged ``wr.adversarial = True`` so the
runtime sanitizer treats the TPT's NAK as the *expected* outcome rather
than a stale-stag invariant violation.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.readread import ReadReadClient
from repro.errors import TransportError
from repro.ib.fabric import IBNode
from repro.ib.memory import AccessFlags
from repro.ib.verbs import QPError, QueuePair, RdmaReadWR, Segment, SendWR
from repro.sim import Counter, DeterministicRNG

__all__ = [
    "DoneWithholdingClient",
    "FloodAdversary",
    "OutOfBoundsProbe",
    "StagGuessingAdversary",
    "StaleChunkReplayAdversary",
]


class _ScratchOwner:
    """An adversary's own registered buffers, which the campaign drain
    gives back with :meth:`release_scratch`."""

    #: (buffer, MR) per registered scratch buffer; set on ``node``'s HCA.
    _scratch: tuple = ()

    def _register_scratch(self, nbytes: int) -> Generator:
        """Process: allocate and register an ``nbytes`` local-write
        buffer; returns ``(buffer, mr)``."""
        buffer = self.node.arena.alloc(nbytes)
        mr = yield from self.node.hca.tpt.register(buffer, AccessFlags.LOCAL_WRITE)
        self._scratch = (*self._scratch, (buffer, mr))
        return buffer, mr

    def release_scratch(self) -> Generator:
        """Process: deregister and free every scratch buffer."""
        held, self._scratch = self._scratch, ()
        for buffer, mr in held:
            yield from self.node.hca.tpt.deregister(mr)
            self.node.arena.free(buffer)


class StagGuessingAdversary(_ScratchOwner):
    """Fires RDMA Reads at guessed steering tags over a live RC QP.

    Each guess that draws a NAK kills the QP (as real RC semantics
    demand), so the adversary reconnects — modeled by the caller handing
    over a QP factory (``qp_factory() -> (qp, ready)``, the shape of
    ``ServerStack.open_qp``; RDMA Reads need no posted receive, so
    ``ready`` goes unused).  Success statistics are recorded either way.
    """

    def __init__(self, node: IBNode, qp_factory, seed: int = 1337,
                 probe_bytes: int = 4096):
        self.node = node
        self.qp_factory = qp_factory
        self.rng = DeterministicRNG(seed, "stag-adversary")
        self.probe_bytes = probe_bytes
        self.attempts = Counter("adversary.attempts")
        self.successes = Counter("adversary.successes")
        self.naks = Counter("adversary.naks")
        self.stolen: list[bytes] = []

    def run(self, guesses: int, target_stags=None) -> Generator:
        """Process: make ``guesses`` attempts; optionally bias draws to a
        candidate list (models an attacker with partial knowledge)."""
        scratch, lmr = yield from self._register_scratch(self.probe_bytes)
        qp, _ = self.qp_factory()
        for _ in range(guesses):
            if target_stags and self.rng.uniform() < 0.5:
                stag = self.rng.choice(list(target_stags))
            else:
                stag = self.rng.integers(1, 2**32)
            addr = self.rng.integers(0x1000_0000, 0x1100_0000)
            wr = RdmaReadWR(
                self.node.sim,
                local=[Segment(lmr.stag, lmr.addr, self.probe_bytes)],
                remote=Segment(stag, addr, self.probe_bytes),
            )
            wr.adversarial = True
            self.attempts.add()
            try:
                yield from self.node.hca.post_send(qp, wr)
            except QPError:
                qp, _ = self.qp_factory()  # reconnect after a NAK killed it
                yield from self.node.hca.post_send(qp, wr)
            yield wr.completion
            if wr.cqe.ok:
                self.successes.add()
                self.stolen.append(scratch.peek(0, self.probe_bytes))
            else:
                self.naks.add()
                if qp.state.name == "ERROR":
                    qp, _ = self.qp_factory()

    @property
    def hit_rate(self) -> float:
        return (self.successes.events / self.attempts.events
                if self.attempts.events else 0.0)


class DoneWithholdingClient(ReadReadClient):
    """A Read-Read client that never signals RDMA_DONE (§4.1).

    Functionally complete from the application's point of view — reads
    return correct data — while silently pinning the server's exposed
    buffers forever.
    """

    design = "read-read-withholding"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dones_suppressed = Counter(f"{self.name}.suppressed")

    def _send_done(self, xid: int) -> Generator:
        self.dones_suppressed.add()
        return
        yield  # pragma: no cover


class OutOfBoundsProbe:
    """Reads past the end of a legitimately received chunk."""

    def __init__(self, node: IBNode, qp: QueuePair):
        self.node = node
        self.qp = qp
        self.rejected = Counter("oob.rejected")
        self.leaked = Counter("oob.leaked")

    def probe(self, segment: Segment, overrun_bytes: int) -> Generator:
        """Process: attempt to read ``overrun_bytes`` past the window."""
        scratch = self.node.arena.alloc(segment.length + overrun_bytes)
        lmr = yield from self.node.hca.tpt.register(scratch, AccessFlags.LOCAL_WRITE)
        wr = RdmaReadWR(
            self.node.sim,
            local=[Segment(lmr.stag, lmr.addr, segment.length + overrun_bytes)],
            remote=Segment(segment.stag, segment.addr,
                           segment.length + overrun_bytes),
        )
        wr.adversarial = True
        yield from self.node.hca.post_send(self.qp, wr)
        yield wr.completion
        if wr.cqe.ok:
            self.leaked.add(segment.length + overrun_bytes)
        else:
            self.rejected.add()
        return wr.cqe


class StaleChunkReplayAdversary(_ScratchOwner, ReadReadClient):
    """Fetch legitimately, DONE promptly — then replay the stale stags.

    Unlike the withholder this client is indistinguishable from an
    honest mount while its RPCs run: every chunk is fetched and every
    DONE sent on time.  But it squirrels away the ``(stag, addr, len)``
    of every window the server ever advertised and later replays RDMA
    Reads against them.  Once the server has deregistered (DONE, lease
    reclaim, or quota eviction) the TPT epoch has moved on and each
    replay must draw a NAK; a hit would mean the window outlived its
    grant — exactly the stag-reuse-across-epochs hole.
    """

    design = "read-read-replay"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: every chunk window the server ever handed us, in order.
        self.recorded: list[Segment] = []
        self.replays = Counter(f"{self.name}.replays")
        self.replay_naks = Counter(f"{self.name}.replay_naks")
        self.replay_hits = Counter(f"{self.name}.replay_hits")

    def _fetch_via_bounce(self, segments, length: int) -> Generator:
        self.recorded.extend(segments)
        return (yield from super()._fetch_via_bounce(segments, length))

    def replay(self, qp_factory, limit: Optional[int] = None) -> Generator:
        """Process: replay recorded windows over a fresh attack QP.

        Runs on its own QP so the NAK-per-replay churn does not kill the
        legitimate-looking mount connection.  ``qp_factory() -> (qp,
        ready)`` as for :class:`StagGuessingAdversary`; stops early if the
        factory refuses to redial (quarantine).
        """
        targets = self.recorded if limit is None else self.recorded[:limit]
        if not targets:
            return
        _, lmr = yield from self._register_scratch(max(s.length for s in targets))
        try:
            qp, _ = qp_factory()
        except TransportError:
            return
        for seg in targets:
            wr = RdmaReadWR(
                self.node.sim,
                local=[Segment(lmr.stag, lmr.addr, seg.length)],
                remote=Segment(seg.stag, seg.addr, seg.length),
            )
            wr.adversarial = True
            self.replays.add()
            try:
                yield from self.node.hca.post_send(qp, wr)
            except QPError:
                try:
                    qp, _ = qp_factory()
                except TransportError:
                    return
                yield from self.node.hca.post_send(qp, wr)
            yield wr.completion
            if wr.cqe.ok:
                self.replay_hits.add(seg.length)
            else:
                self.replay_naks.add()
                if qp.state.name == "ERROR":
                    try:
                        qp, _ = qp_factory()
                    except TransportError:
                        return


#: 48 zero bytes: version field 0 != RPC/RDMA version, so the server's
#: header decode deterministically raises XdrError — malformed on every
#: delivery without needing a random fuzzer.
_GARBAGE = bytes(48)


class FloodAdversary(_ScratchOwner):
    """Garbage-send bursts plus wild RDMA Reads: the quarantine trigger.

    Each burst delivers ``burst`` undecodable inline sends (the server
    burns a receive + decode attempt on every one and scores the client
    as malformed) followed by one wild adversarial RDMA Read whose NAK
    kills the QP.  The adversary redials through ``qp_factory`` and
    keeps going until the factory refuses — which is how mount eviction
    plus redial refusal terminates the campaign against a quarantined
    client.
    """

    def __init__(self, node: IBNode, qp_factory, seed: int = 4242,
                 burst: int = 8):
        self.node = node
        self.qp_factory = qp_factory
        self.rng = DeterministicRNG(seed, "flood-adversary")
        self.burst = burst
        self.garbage_sent = Counter("flood.garbage")
        self.wild_reads = Counter("flood.wild_reads")
        self.naks = Counter("flood.naks")
        self.redials = Counter("flood.redials")
        self.redials_refused = Counter("flood.refused")

    def _redial(self) -> Generator:
        """Process: dial a fresh QP; returns None once redials are refused.

        The factory returns ``(qp, ready)``, and the flooder waits for
        the server side to post its receives — garbage must *land* to
        burn server cycles, an RNR drop costs the victim nothing.
        """
        try:
            qp, ready = self.qp_factory()
        except TransportError:
            self.redials_refused.add()
            return None
        self.redials.add()
        yield ready
        return qp

    def run(self, bursts: int) -> Generator:
        """Process: ``bursts`` rounds of garbage + one wild read each."""
        _, lmr = yield from self._register_scratch(4096)
        qp = yield from self._redial()
        if qp is None:
            return
        for _ in range(bursts):
            for _ in range(self.burst):
                wr = SendWR(self.node.sim, inline=_GARBAGE)
                wr.adversarial = True
                try:
                    yield from self.node.hca.post_send(qp, wr)
                except QPError:
                    qp = yield from self._redial()
                    if qp is None:
                        return
                    yield from self.node.hca.post_send(qp, wr)
                yield wr.completion
                if wr.cqe.ok:
                    self.garbage_sent.add()
            # Wild read: guaranteed NAK, guaranteed dead QP.
            stag = self.rng.integers(1, 2**32)
            addr = self.rng.integers(0x1000_0000, 0x1100_0000)
            wr = RdmaReadWR(
                self.node.sim,
                local=[Segment(lmr.stag, lmr.addr, 4096)],
                remote=Segment(stag, addr, 4096),
            )
            wr.adversarial = True
            self.wild_reads.add()
            try:
                yield from self.node.hca.post_send(qp, wr)
            except QPError:
                qp = yield from self._redial()
                if qp is None:
                    return
                yield from self.node.hca.post_send(qp, wr)
            yield wr.completion
            if not wr.cqe.ok:
                self.naks.add()
            if qp.state.name == "ERROR":
                qp = yield from self._redial()
                if qp is None:
                    return
