"""The HCA processing engine: executes work requests per IB RC rules.

One dispatcher process per QP drains the send queue **in order** —
requests begin execution in post order, as RC requires.  The rules the
paper's designs exploit all live here:

* A Send or RDMA Write holds the dispatcher until its payload is on the
  wire, and its ack (hence CQE) follows data in FIFO order — so
  **Write → Send completion ordering is guaranteed** (§4.2: the reply
  send's completion proves the preceding writes landed).
* An RDMA Read only holds the dispatcher while acquiring one of the
  ORD slots and transmitting the tiny request packet; the response
  streams back asynchronously — so **a later Send can complete before
  an earlier Read** (§4.1: the server must block, i.e. fence, before
  replying on the NFS WRITE path).  ``fence=True`` on a WR restores
  ordering by draining outstanding reads first.
* The responder serves read responses through a single per-QP read
  engine with a fixed per-read turnaround, so RDMA Read throughput on
  one connection sits well below RDMA Write throughput, and at most
  IRD/ORD (= 8) reads are ever outstanding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from repro.payload import join_parts
from repro.sim import Counter, Resource, Simulator
from repro.ib.link import DuplexLink, LinkConfig, Route
from repro.ib.memory import (
    AccessFlags,
    MemoryArena,
    ProtectionError,
    RegistrationCosts,
    TranslationProtectionTable,
)
from repro.ib.phys import GLOBAL_STAG, PhysicalAccessMap
from repro.ib.verbs import (
    CompletionQueue,
    CqeStatus,
    Opcode,
    QPState,
    QueuePair,
    RdmaReadWR,
    RdmaWriteWR,
    Segment,
    SendWR,
)

__all__ = ["HCA", "HCAConfig"]

_READ_REQUEST_BYTES = 28  # RETH + AETH-ish request packet

#: access bits the data path asks ``tpt.lookup`` for, as plain ints.
_NO_RIGHTS = 0
_LOCAL_WRITE = AccessFlags.LOCAL_WRITE.value
_REMOTE_READ = AccessFlags.REMOTE_READ.value
_REMOTE_WRITE = AccessFlags.REMOTE_WRITE.value

_SEND = Opcode.SEND
_RDMA_WRITE = Opcode.RDMA_WRITE
_RDMA_READ = Opcode.RDMA_READ


@dataclass(frozen=True)
class HCAConfig:
    """Per-HCA cost/limit parameters (calibrated in repro.analysis)."""

    wqe_process_us: float = 0.6
    post_cpu_us: float = 0.4
    read_response_setup_us: float = 95.0
    rnr_retry_us: float = 60.0
    rnr_retry_limit: int = 6
    max_ird: int = 8
    max_ord: int = 8
    #: mean physically-contiguous run for the all-physical mode's
    #: scatter/gather-free fragmentation (DESIGN.md, Fig 9b mechanism).
    phys_mean_run_bytes: int = 64 * 1024
    registration: RegistrationCosts = field(default_factory=RegistrationCosts)


class HCA:
    """One host channel adapter: TPT, port, per-QP dispatchers."""

    def __init__(
        self,
        sim: Simulator,
        cpu,  # repro.osmodel.CPU
        irq,  # repro.osmodel.InterruptController
        arena: MemoryArena,
        config: HCAConfig,
        link_config: LinkConfig,
        rng,
        name: str = "hca",
        allow_physical: bool = False,
    ):
        self.sim = sim
        self.cpu = cpu
        self.irq = irq
        self.arena = arena
        self.config = config
        self.name = name
        # Telemetry process label: the owning node ("server.hca" → "server").
        self._pid = name.split(".")[0] if "." in name else name
        self.port = DuplexLink(sim, link_config, name=f"{name}.port")
        self.tpt = TranslationProtectionTable(
            sim, cpu, config.registration, rng.child("tpt"), name=f"{name}.tpt"
        )
        self.phys = PhysicalAccessMap(
            arena, rng.child("phys"), enabled=allow_physical,
            mean_contig_run_bytes=config.phys_mean_run_bytes, name=f"{name}.phys",
        )
        self.qps: list[QueuePair] = []
        #: Called with ``(offender_qp, ProtectionError)`` when *this* HCA
        #: NAKs a remote operation against its memory.  ``None`` (the
        #: default) keeps the data path hook-free; the security policy
        #: installs its misbehavior scorer here.
        self.protection_nak_hook = None
        self.sends = Counter(f"{name}.sends")
        self.writes = Counter(f"{name}.writes")
        self.reads = Counter(f"{name}.reads")
        self.rnr_events = Counter(f"{name}.rnr")
        self.max_inbound_reads_seen: int = 0
        # Process labels, built once rather than per WR.
        self._dlv_name = f"{name}.dlv"
        self._rdresp_name = f"{name}.rdresp"

    # -- setup -------------------------------------------------------------
    def create_cq(self, name: str = "cq", interrupts: bool = True) -> CompletionQueue:
        """A CQ; if ``interrupts``, each CQE raises an interrupt on this node."""
        cq = CompletionQueue(self.sim, name=f"{self.name}.{name}")
        if interrupts:
            irq_name = f"{self.name}.irq"

            def _on_completion(cqe) -> None:
                self.sim.process(self.irq.raise_irq(), name=irq_name)
            cq.on_completion = _on_completion
        return cq

    def create_qp(self, send_cq: CompletionQueue, recv_cq: CompletionQueue) -> QueuePair:
        qp = QueuePair(
            self.sim, self, send_cq, recv_cq,
            ird=self.config.max_ird, ord=self.config.max_ord,
        )
        self.qps.append(qp)
        return qp

    def activate(self, qp: QueuePair) -> None:
        """Called by the fabric once both ends are wired; starts dispatch."""
        if qp.peer is None:
            raise ValueError("activate before peer wired")
        effective_ord = min(qp.ord, qp.peer.ird)
        qp.route = Route(self.port, qp.peer.hca.port)
        qp.ord_slots = Resource(
            self.sim, capacity=effective_ord, name=f"qp{qp.qp_num}.ord"
        )
        qp.read_engine = Resource(
            self.sim, capacity=1, name=f"qp{qp.qp_num}.rdeng"
        )
        qp.delivery_lock = Resource(
            self.sim, capacity=1, name=f"qp{qp.qp_num}.deliver"
        )
        qp.outstanding_reads = {}
        qp.inbound_reads = 0
        qp.state = QPState.RTS
        self.sim.process(self._dispatcher(qp), name=f"{self.name}.qp{qp.qp_num}")

    def destroy_qp(self, qp: QueuePair) -> None:
        """``ibv_destroy_qp``: the QP enters ERROR (flushing its WRs), the
        HCA forgets it, its dispatcher ends, and it raises no more async
        events and no longer names its peer.  Repeating is a no-op."""
        if qp not in self.qps:
            return
        qp.enter_error("QP destroyed")
        self.qps.remove(qp)
        qp.on_error.clear()
        qp.peer = None
        qp.sq.put(None)  # wakes a dispatcher parked on the empty queue

    # -- consumer helpers ----------------------------------------------------
    def post_send(self, qp: QueuePair, wr) -> Generator:
        """Process: charge the doorbell/post CPU cost, then post."""
        yield from self.cpu.consume(self.config.post_cpu_us)
        qp.post_send(wr)
        return wr

    # -- local address resolution ---------------------------------------------
    def _gather(self, segments: list[Segment]):
        """Read local scatter/gather elements (lkey path).

        Returns real bytes or a zero-copy payload descriptor — whatever
        representation the registered memory holds.  A one-SGE list
        reads its one element directly; a longer list joins the
        one-SGE reads of its elements.
        """
        if len(segments) != 1:
            return join_parts([self._gather((seg,)) for seg in segments])
        stag, addr, length = segments[0]
        if stag == GLOBAL_STAG:
            buf, off = self.arena.resolve(addr, length)
            return buf.peek(off, length)
        return self.tpt.lookup(stag, addr, length, _NO_RIGHTS).read(addr, length)

    def _scatter(self, segments: list[Segment], payload) -> int:
        """Write ``payload`` across local scatter elements; returns bytes placed.

        A payload that fits a one-SGE list is placed with one lookup;
        anything else walks the elements in order.
        """
        n = len(payload)
        if len(segments) == 1 and 0 < n <= segments[0].length:
            stag, addr, _ = segments[0]
            if stag == GLOBAL_STAG:
                buf, off = self.arena.resolve(addr, n)
                buf.fill(payload, off)
            else:
                self.tpt.lookup(stag, addr, n, _LOCAL_WRITE).write(addr, payload)
            return n
        pos = 0
        for seg in segments:
            if pos >= n:
                break
            take = min(seg.length, n - pos)
            if seg.stag == GLOBAL_STAG:
                buf, off = self.arena.resolve(seg.addr, take)
                buf.fill(payload[pos : pos + take], off)
            else:
                mr = self.tpt.lookup(seg.stag, seg.addr, take, _LOCAL_WRITE)
                mr.write(seg.addr, payload[pos : pos + take])
            pos += take
        if pos < n:
            raise ProtectionError(
                f"scatter list too small: {n} bytes into "
                f"{sum(s.length for s in segments)}"
            )
        return pos

    # -- dispatcher -------------------------------------------------------------
    def _dispatcher(self, qp: QueuePair) -> Generator:
        sim = self.sim
        get = qp.sq.get
        route, peer = qp.route, qp.peer  # kept past destroy_qp for WRs in flight
        wqe_process_us = self.config.wqe_process_us
        lane = f"qp{qp.qp_num}"
        while qp.state is QPState.RTS:
            wr = yield get()
            if qp.state is not QPState.RTS:
                if wr is not None:  # None is destroy_qp's wake-up
                    wr._complete(qp, qp.send_cq, CqeStatus.WR_FLUSH_ERR,
                                 error=qp.error_cause)
                return
            if wr.fence:
                yield from self._drain_reads(qp)
            opcode = wr.opcode
            telemetry = sim.telemetry
            span = None
            if telemetry is not None and telemetry.tracer is not None:
                # Span covers the dispatcher's occupancy by this WQE:
                # serial per QP, parented under whoever posted the WR.
                span = telemetry.tracer.begin(
                    f"hca.{opcode.value}", "hca", self._pid, lane, parent=wr.tspan)
            try:
                yield sim.timeout(wqe_process_us)
                if opcode is _SEND or opcode is _RDMA_WRITE:
                    payload = self._source(qp, wr)
                    if payload is not None:
                        # Serialize onto the wire, then move on: propagation
                        # and remote delivery overlap the next WQE (the
                        # per-QP delivery lock keeps RC in-order delivery).
                        yield from route.carry(len(payload))
                        deliver = (self._deliver_send if opcode is _SEND
                                   else self._deliver_write)
                        sim.process(deliver(qp, wr, payload), name=self._dlv_name)
                elif opcode is _RDMA_READ:
                    yield from self._execute_read(qp, peer, wr)
                else:  # pragma: no cover - defensive
                    wr._complete(qp, qp.send_cq, CqeStatus.LOC_PROT_ERR,
                                 error="bad opcode")
            finally:
                if span is not None:
                    span.end()

    def _drain_reads(self, qp: QueuePair) -> Generator:
        for ev in list(qp.outstanding_reads):
            if not ev.processed:
                yield ev

    # -- SEND and RDMA WRITE -----------------------------------------------
    def _source(self, qp: QueuePair, wr):
        """What a Send or RDMA Write puts on the wire: its inline bytes
        or its gathered local SGEs.  ``None`` after a local protection
        fault, which completes the WR and kills the QP."""
        san = self.sim.sanitizer
        if san is not None:
            san.on_wr_execute(self, wr)
        if wr.opcode is _SEND:
            if wr.inline is not None:
                return wr.inline
            segments, kind = wr.segments, "send"
        else:
            segments, kind = wr.local, "write"
        try:
            return self._gather(segments)
        except ProtectionError as exc:
            wr._complete(qp, qp.send_cq, CqeStatus.LOC_PROT_ERR, error=str(exc))
            qp.enter_error(f"local protection error on {kind}: {exc}")
            return None

    def _deliver_send(self, qp: QueuePair, wr: SendWR, payload: bytes) -> Generator:
        sim = self.sim
        peer_qp = qp.peer
        route = qp.route
        nbytes = len(payload)
        yield sim.timeout(route.propagation_us)
        hook = route.dst.fault_hook
        if hook is not None and hook.drop_message(route.dst):
            # Injected loss at the receiving HCA/driver boundary: the
            # wire-level ack already went out, so the sender's CQE is a
            # success, but no receive ever fires — exactly the silent
            # loss an RPC reply timer exists to cover.
            yield sim.timeout(route.ack_us)
            wr._complete(qp, qp.send_cq, CqeStatus.SUCCESS, byte_len=nbytes)
            return
        delivery_lock = qp.delivery_lock
        lock = delivery_lock.request()
        yield lock
        try:
            if qp.state is QPState.ERROR or peer_qp.state is QPState.ERROR:
                # As in _deliver_write: a dead connection takes no Send
                # (no receive will ever be posted on it to RNR-wait for).
                wr._complete(qp, qp.send_cq, CqeStatus.WR_FLUSH_ERR,
                             error=qp.error_cause or peer_qp.error_cause)
                return
            # Match a pre-posted receive; RNR-retry if the peer is slow.
            recv = peer_qp.take_recv()
            retries = 0
            while recv is None:
                self.rnr_events.add()
                if retries >= self.config.rnr_retry_limit:
                    wr._complete(qp, qp.send_cq, CqeStatus.RNR_RETRY_EXC,
                                 error="receiver never posted a buffer")
                    qp.kill("RNR retry exceeded")
                    return
                retries += 1
                yield sim.timeout(self.config.rnr_retry_us)
                recv = peer_qp.take_recv()
            peer_hca: HCA = peer_qp.hca
            try:
                peer_hca._scatter(recv.segments, payload)
            except ProtectionError as exc:
                recv._complete(peer_qp, peer_qp.recv_cq, CqeStatus.LOC_PROT_ERR, error=str(exc))
                wr._complete(qp, qp.send_cq, CqeStatus.REM_ACCESS_ERR, error=str(exc))
                if peer_hca.protection_nak_hook is not None:
                    peer_hca.protection_nak_hook(qp, exc)
                qp.kill(f"send overflowed receive buffer: {exc}")
                return
            recv.received = payload
            recv._complete(peer_qp, peer_qp.recv_cq, CqeStatus.SUCCESS, byte_len=nbytes)
            self.sends.add(nbytes)
        finally:
            delivery_lock.release(lock)
        yield sim.timeout(route.ack_us)
        wr._complete(qp, qp.send_cq, CqeStatus.SUCCESS, byte_len=nbytes)

    def _deliver_write(self, qp: QueuePair, wr: RdmaWriteWR, payload: bytes) -> Generator:
        sim = self.sim
        peer_qp = qp.peer
        route = qp.route
        nbytes = len(payload)
        yield sim.timeout(route.propagation_us)
        delivery_lock = qp.delivery_lock
        lock = delivery_lock.request()
        yield lock
        try:
            if qp.state is QPState.ERROR or peer_qp.state is QPState.ERROR:
                # The connection died while the data was on the wire: the
                # target may already have reused the chunk, so drop it.
                wr._complete(qp, qp.send_cq, CqeStatus.WR_FLUSH_ERR,
                             error=qp.error_cause or peer_qp.error_cause)
                return
            peer_hca: HCA = peer_qp.hca
            san = sim.sanitizer
            if san is not None:
                san.on_rdma_write_target(peer_hca.tpt, wr, nbytes)
            stag, addr, _ = wr.remote
            try:
                # Target-side validation: TPT or (if honoured) the global stag.
                if stag == GLOBAL_STAG:
                    buf, off = peer_hca.phys.resolve(addr, nbytes)
                    buf.fill(payload, off)
                else:
                    mr = peer_hca.tpt.lookup(stag, addr, nbytes, _REMOTE_WRITE)
                    mr.write(addr, payload)
            except ProtectionError as exc:
                wr._complete(qp, qp.send_cq, CqeStatus.REM_ACCESS_ERR, error=str(exc))
                if peer_hca.protection_nak_hook is not None:
                    peer_hca.protection_nak_hook(qp, exc)
                qp.kill(f"remote access error on write: {exc}")
                return
            # No remote CQE, no remote CPU, no remote interrupt: one-sided.
            self.writes.add(nbytes)
        finally:
            delivery_lock.release(lock)
        yield sim.timeout(route.ack_us)
        wr._complete(qp, qp.send_cq, CqeStatus.SUCCESS, byte_len=nbytes)

    # -- RDMA READ ---------------------------------------------------------------
    def _execute_read(self, qp: QueuePair, peer_qp: QueuePair,
                      wr: RdmaReadWR) -> Generator:
        # ORD: stall the SQ until a slot frees (this is the §4.1 cap).
        slot = qp.ord_slots.request()
        yield slot
        done = self.sim.event()
        qp.outstanding_reads[done] = None
        # Tiny request packet to the responder; SQ then moves on.
        yield from qp.route.carry(_READ_REQUEST_BYTES)
        self.sim.process(self._read_response(qp, peer_qp, wr, slot, done),
                         name=self._rdresp_name)

    def _read_response(self, qp: QueuePair, peer_qp: QueuePair, wr: RdmaReadWR,
                       slot, done) -> Generator:
        sim = self.sim
        peer_hca: HCA = peer_qp.hca
        stag, addr, length = wr.remote
        telemetry = sim.telemetry
        span = None
        if telemetry is not None and telemetry.tracer is not None:
            # The responder-side half of the read: engine occupancy + data
            # return, drawn on the *remote* HCA's lane.
            span = telemetry.tracer.begin(
                "hca.read_response", "hca", peer_hca._pid,
                f"qp{peer_qp.qp_num}.rdeng", parent=wr.tspan,
                bytes=length)
        try:
            # Responder: serialized per-QP read engine (request scheduling,
            # DMA setup) then the data streams back on the reverse path.
            peer_qp.inbound_reads = count = peer_qp.inbound_reads + 1
            if count > peer_hca.max_inbound_reads_seen:
                peer_hca.max_inbound_reads_seen = count
            engine = peer_qp.read_engine
            req = engine.request()
            yield req
            try:
                san = sim.sanitizer
                if san is not None:
                    san.on_rdma_read_target(peer_hca.tpt, wr)
                try:
                    if stag == GLOBAL_STAG:
                        buf, off = peer_hca.phys.resolve(addr, length)
                        payload = buf.peek(off, length)
                    else:
                        mr = peer_hca.tpt.lookup(stag, addr, length, _REMOTE_READ)
                        payload = mr.read(addr, length)
                except ProtectionError as exc:
                    wr._complete(qp, qp.send_cq, CqeStatus.REM_ACCESS_ERR, error=str(exc))
                    if peer_hca.protection_nak_hook is not None:
                        peer_hca.protection_nak_hook(qp, exc)
                    qp.kill(f"remote access error on read: {exc}")
                    return
                yield sim.timeout(peer_hca.config.read_response_setup_us)
                back = peer_qp.route
                yield from back.carry(len(payload))
                yield sim.timeout(back.propagation_us)
            finally:
                engine.release(req)
                peer_qp.inbound_reads -= 1
            if san is not None:
                san.on_wr_execute(self, wr)
            try:
                self._scatter(wr.local, payload)
            except ProtectionError as exc:
                wr._complete(qp, qp.send_cq, CqeStatus.LOC_PROT_ERR, error=str(exc))
                qp.enter_error(f"local scatter failed on read response: {exc}")
                return
            self.reads.add(len(payload))
            wr._complete(qp, qp.send_cq, CqeStatus.SUCCESS, byte_len=len(payload))
        finally:
            if span is not None:
                span.end()
            qp.ord_slots.release(slot)
            qp.outstanding_reads.pop(done, None)
            if not done.triggered:
                done.succeed()
