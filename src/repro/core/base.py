"""Shared machinery for both RPC/RDMA transport designs.

Everything that is *identical* between the Read-Read and Read-Write
designs lives here (§3–4 of the paper):

* pre-registered inline send/receive pools with credit-based flow
  control (the client never overruns the server's posted receives);
* the inline send path (RDMA_MSG) and the RPC long call (RDMA_NOMSG +
  position-0 read chunks);
* the NFS WRITE data path: client exposes read chunks, the server
  RDMA-Reads them and **blocks until the reads complete** — the
  synchronous-read stall of §4.1, required because InfiniBand does not
  order a Read ahead of a later Send;
* segment slicing/pairing helpers used to map possibly-fragmented
  (all-physical) chunk lists onto individual RDMA operations.

The designs subclass the client and server bases and override only the
reply-direction bulk path — which is precisely where they differ.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

from repro.core.chunks import ChunkList, ReadChunk
from repro.core.config import RpcRdmaConfig
from repro.core.credits import CreditManager
from repro.core.header import MessageType, RpcRdmaHeader
from repro.core.strategies import RegisteredRegion, RegistrationStrategy
from repro.errors import TransportError
from repro.ib.fabric import IBNode
from repro.ib.memory import AccessFlags
from repro.ib.verbs import (
    QPError,
    QueuePair,
    RdmaReadWR,
    RdmaWriteWR,
    RecvWR,
    Segment,
    SendWR,
    node_of,
)
from repro.rpc.lanes import LaneLedger
from repro.rpc.msg import RpcCall, RpcReply, frame_message, unframe_message
from repro.rpc.svc import RpcServer
from repro.rpc.transport import RpcClientTransport, RpcServerTransport, RpcTimeout
from repro.rpc.xdr import XdrError
from repro.sim import AnyOf, Counter, Event, Store

__all__ = [
    "RpcRdmaClientBase",
    "RpcRdmaServerBase",
    "TransportError",
    "pair_transfers",
    "slice_segments",
]

#: Data read chunks (NFS WRITE payload) carry this position; position 0
#: is reserved for long-call/long-reply message bodies.
DATA_CHUNK_POSITION = 1

#: Transport bookkeeping CPU per operation, charged on each side.
PER_OP_CPU_US = 3.0

# Client recovery: a dead connection, or a reply timer (when
# ``reply_timeout_us`` is set) that expires, is redialed after
# RECONNECT_BACKOFF_US and the call resent, at most MAX_RECONNECTS times
# per call.  Each attempt's reply timer is BACKOFF_FACTOR times the
# last, up to MAX_REPLY_TIMEOUT_US.  Every delay is jittered by
# ±BACKOFF_JITTER of itself.
MAX_REPLY_TIMEOUT_US = 2_000_000.0
BACKOFF_FACTOR = 2.0
BACKOFF_JITTER = 0.1
MAX_RECONNECTS = 4
RECONNECT_BACKOFF_US = 1_000.0

#: a reply header's lane fields on a dedicated connection.
_NO_LANE = (None, 0, 0)


def slice_segments(segments: list[Segment], offset: int, length: int) -> list[Segment]:
    """A sub-window of a (possibly fragmented) segment list."""
    if offset == 0 and segments:
        stag, addr, first = segments[0]
        if 0 < length <= first:
            return [Segment(stag, addr, length)]
    out: list[Segment] = []
    pos = 0
    for seg in segments:
        if length <= 0:
            break
        if pos + seg.length <= offset:
            pos += seg.length
            continue
        start = max(0, offset - pos)
        take = min(seg.length - start, length)
        out.append(Segment(seg.stag, seg.addr + start, take))
        length -= take
        offset += take
        pos += seg.length
    if length > 0:
        raise TransportError(f"segment list short by {length} bytes")
    return out


def pair_transfers(
    src: list[Segment], dst: list[Segment], length: int
) -> list[tuple[list[Segment], Segment]]:
    """Split one logical transfer into per-destination-segment RDMA ops.

    Each RDMA Write/Read names exactly one remote segment; fragmented
    remote chunk lists (all-physical mode) therefore multiply operations
    — the Fig 9b effect.
    """
    ops: list[tuple[list[Segment], Segment]] = []
    offset = 0
    for dseg in dst:
        if offset >= length:
            break
        take = min(dseg.length, length - offset)
        ops.append(
            (
                slice_segments(src, offset, take),
                Segment(dseg.stag, dseg.addr, take),
            )
        )
        offset += take
    if offset < length:
        raise TransportError(
            f"destination chunk too small: {length} bytes into {sum(d.length for d in dst)}"
        )
    return ops


class _InlinePool:
    """Pre-registered fixed-size buffers for inline sends/receives.

    Registered once at connection setup, never per-operation — matching
    both real implementations and the paper's cost analysis (inline
    traffic contributes no registration cost).
    """

    def __init__(self, node: IBNode, count: int, size: int, name: str):
        self.node = node
        self.count = count
        self.size = size
        self.name = name
        self.free: Store = Store(node.sim, name=f"{name}.free")
        self.regions: list[RegisteredRegion] = []

    def setup(self) -> Generator:
        tpt = self.node.hca.tpt
        for _ in range(self.count):
            buffer = self.node.arena.alloc(self.size)
            mr = yield from tpt.register(buffer, AccessFlags.LOCAL_WRITE)
            region = RegisteredRegion(
                buffer=buffer,
                segments=[Segment(mr.stag, buffer.addr, self.size)],
                access=AccessFlags.LOCAL_WRITE,
                owned=True,
                mr=mr,
            )
            self.regions.append(region)
            self.free.put(region)

    def release(self) -> Generator:
        """Process: deregister and free every buffer; a second call
        finds none."""
        tpt = self.node.hca.tpt
        regions, self.regions = self.regions, []
        for region in regions:
            yield from tpt.deregister(region.mr)
            self.node.arena.free(region.buffer)


class _RdmaEndpoint:
    """Send-path plumbing shared by client and server endpoints, and the
    connection lifecycle: one :meth:`_open` and one :meth:`close`."""

    def __init__(
        self,
        node: IBNode,
        qp: QueuePair,
        config: RpcRdmaConfig,
        strategy: RegistrationStrategy,
        name: str,
        srq=None,
    ):
        self.node = node
        self.sim = node.sim
        self.config = config
        self.strategy = strategy
        self.name = name
        #: shared receive pool (:mod:`repro.ib.srq`); when set, this
        #: endpoint posts no private receive ring — inbound messages
        #: consume buffers from the HCA-wide pool instead.
        self.srq = srq
        self._srq_inbox = None
        self.headers_sent = Counter(f"{name}.headers")
        self.bytes_rdma_read = Counter(f"{name}.rdma_read_bytes")
        self.bytes_rdma_written = Counter(f"{name}.rdma_write_bytes")
        #: Event for the peer's setup (the CM handshake completes only
        #: once both sides have pre-posted receives); set by the wiring
        #: layer, waited on before the first send.
        self.peer_ready = None
        self._reclaim_name = f"{name}.reclaim"
        self._open(qp)

    # -- connection lifecycle -----------------------------------------------
    def _open(self, qp: QueuePair) -> None:
        """Adopt ``qp``: watch it for death, build fresh inline pools and
        start registering them (``ready`` fires when they are posted)."""
        self.qp = qp
        qp.on_error.append(self._qp_error_callback)
        self.failed = False
        node, config, name = self.node, self.config, self.name
        self.send_pool = _InlinePool(node, config.credits, config.inline_threshold,
                                     f"{name}.sendpool")
        self.recv_pool = (None if self.srq is not None else
                          _InlinePool(node, config.credits, config.inline_threshold,
                                      f"{name}.recvpool"))
        self._posted: deque = deque()
        self.ready = self.sim.process(self._setup_pools(), name=f"{name}.setup")

    def close(self, cause: str, redial: bool = False) -> Generator:
        """Process: end the connection and give back what it holds: both
        ends of the QP enter ERROR (a CM disconnect reaches the peer), the
        HCA destroys this end, the SRQ inbox closes, the design's pinned
        state is released and the inline pools are deregistered and
        freed.  A connection closed while ``ready`` still runs waits for
        its setup first, so no pool is registered or inbox attached after
        the close.  Closing twice is harmless.  A ``redial``'s close keeps
        what outlives the connection (the Read-Read client's bounce
        buffers); any other close is final."""
        self.qp.kill(cause)
        self.node.hca.destroy_qp(self.qp)
        if not self.ready.processed:
            yield self.ready
        if self.srq is not None:
            self.srq.detach(self.qp)  # also one attached after the QP died
        yield from self._reclaim_on_close()
        for pool in (self.send_pool, self.recv_pool):
            if pool is not None:
                yield from pool.release()

    def _reclaim_on_close(self) -> Generator:
        """Subclass hook: release design-specific pinned state."""
        return
        yield  # pragma: no cover

    def _qp_error_callback(self, qp: QueuePair, cause: str) -> None:
        # The QP's async error event; only the current QP raises it, as
        # close() destroys a QP (dropping its callbacks) before _open().
        self.failed = True
        if self.srq is not None:
            # Close the SRQ inbox promptly so in-flight deliveries
            # recycle into the pool instead of parking on a dead QP.
            self.srq.detach(qp)

    # -- setup ---------------------------------------------------------
    def _setup_pools(self) -> Generator:
        yield from self.send_pool.setup()
        if self.srq is not None:
            # Shared pool: registered once at server start; this
            # connection only waits for it and opens its inbox.
            if not self.srq.ready.processed:
                yield self.srq.ready
            self._srq_inbox = self.srq.attach(self.qp)
            return
        yield from self.recv_pool.setup()
        for region in self.recv_pool.regions:
            self.repost_recv(region)

    # -- inline send -----------------------------------------------------
    def send_header(self, wire: bytes) -> Generator:
        """Process: ship one encoded RPC/RDMA header (plus inline body)
        via Send.  Callers encode each message once and size-test those
        same bytes."""
        nbytes = len(wire)
        if nbytes > self.config.inline_threshold:
            raise TransportError(
                f"header of {nbytes} bytes exceeds inline threshold "
                f"{self.config.inline_threshold}"
            )
        sim = self.sim
        node = self.node
        region = yield self.send_pool.free.get()
        yield from node.cpu.copy(nbytes)  # marshal into send buffer
        stag, addr, _ = region.segments[0]
        region.buffer.fill(wire, addr - region.buffer.addr)
        wr = SendWR(sim, segments=[Segment(stag, addr, nbytes)])
        telemetry = sim.telemetry
        if telemetry is not None and telemetry.tracer is not None:
            wr.tspan = telemetry.tracer.task_span()
        yield from node.hca.post_send(self.qp, wr)
        self.headers_sent.add()
        sim.process(self._reclaim_send(region, wr), name=self._reclaim_name)
        return wr

    def _reclaim_send(self, region: RegisteredRegion, wr: SendWR) -> Generator:
        yield wr.completion
        if not wr.cqe.ok:
            self.failed = True
        self.send_pool.free.put(region)

    def _crypt(self, nbytes: int) -> Generator:
        """Process: one AES pass over ``nbytes`` when the encrypted
        payload path is configured; zero events when it is off."""
        if not self.config.aes_payload or nbytes <= 0:
            return
        yield from self.node.cpu.crypt(nbytes)

    def repost_recv(self, region: RegisteredRegion) -> None:
        wr = RecvWR(self.sim, list(region.segments))
        wr.pool_region = region
        try:
            self.qp.post_recv(wr)
        except QPError:
            # Connection died: the endpoint is finished, not the sim.
            self.failed = True
            return
        self._posted.append(wr)

    def next_recv(self) -> RecvWR:
        """The oldest posted receive (RC completes receives in order)."""
        if not self._posted:
            raise TransportError(f"{self.name}: receive queue empty")
        return self._posted.popleft()

    # -- chunk fetch (RDMA Read of peer-exposed chunks) -------------------
    def fetch_chunks(
        self, remote_segments: list[Segment], region: RegisteredRegion, length: int
    ) -> Generator:
        """Process: RDMA-Read ``length`` bytes of peer chunks into ``region``.

        Blocks until every read completes — the issuing thread cannot
        proceed because a subsequent Send could pass the Reads (§4.1).
        """
        telemetry = self.sim.telemetry
        tracer = telemetry.tracer if telemetry is not None else None
        span = None
        if tracer is not None:
            span = tracer.begin("rdma.read_chunks", "transport", self.node.name,
                                "rpcrdma", parent=tracer.task_span(), bytes=length)
        try:
            ops = pair_transfers(region.segments, remote_segments, length)
            wrs = []
            for local_slice, remote_seg in ops:
                # For a read, locals scatter and remote is the source; the
                # pairing helper treats the remote list as the op splitter.
                wr = RdmaReadWR(self.sim, local=local_slice, remote=remote_seg)
                if span is not None:
                    wr.tspan = span
                yield from self.node.hca.post_send(self.qp, wr)
                wrs.append(wr)
            for wr in wrs:
                yield wr.completion
                if not wr.cqe.ok:
                    raise TransportError(f"RDMA Read failed: {wr.cqe.error}")
            self.bytes_rdma_read.add(length)
        finally:
            if span is not None:
                span.end()

    def push_chunks(
        self, region: RegisteredRegion, remote_segments: list[Segment], length: int
    ) -> Generator:
        """Process: RDMA-Write ``length`` bytes of ``region`` into peer chunks.

        Writes are posted *unsignaled* and not waited for: InfiniBand
        guarantees a later Send on the same QP completes after them
        (§4.2), so the reply send carries the completion semantics.
        """
        telemetry = self.sim.telemetry
        tracer = telemetry.tracer if telemetry is not None else None
        span = None
        if tracer is not None:
            span = tracer.begin("rdma.write_chunks", "transport", self.node.name,
                                "rpcrdma", parent=tracer.task_span(), bytes=length)
        try:
            ops = pair_transfers(region.segments, remote_segments, length)
            for local_slice, remote_seg in ops:
                wr = RdmaWriteWR(self.sim, local=local_slice, remote=remote_seg,
                                 signaled=False)
                if span is not None:
                    wr.tspan = span
                yield from self.node.hca.post_send(self.qp, wr)
            self.bytes_rdma_written.add(length)
        finally:
            if span is not None:
                span.end()


class RpcRdmaClientBase(_RdmaEndpoint, RpcClientTransport):
    """Client half: marshalling, credits, XID demux, long calls, WRITE data.

    Subclasses provide the reply-direction behaviour:

    * ``_prepare_reply_resources(call, chunks, ctx)`` — what to advertise
      in the call (Read-Write: write/reply chunks; Read-Read: nothing);
    * ``_handle_reply(header, ctx)`` — how to obtain reply bulk data
      (Read-Write: already in client memory; Read-Read: RDMA-Read the
      server's chunks, then send RDMA_DONE).
    """

    design = "base"

    def __init__(self, node, qp, config, strategy, name=""):
        name = name or f"{node.name}.rpcrdma-{self.design}"
        super().__init__(node, qp, config, strategy, name)
        self.credits = CreditManager(node.sim, config.credits, name=f"{name}.credits")
        self._pending: dict[int, Event] = {}
        self._contexts: dict[int, dict] = {}
        self.calls_sent = Counter(f"{name}.calls")
        #: recovery policy, installed by the wiring layer (e.g. Cluster):
        #: a generator ``reconnector(client) -> (new_qp, peer_ready)``
        #: that redials the server.  None = fail-fast (legacy behaviour).
        self.reconnector = None
        self.retransmissions = Counter(f"{name}.retrans")
        self.reconnects = Counter(f"{name}.reconnects")
        self.calls_recovered = Counter(f"{name}.recovered")
        #: bumped on every successful reconnect so concurrent failed
        #: calls can tell "connection already renewed" from "dead".
        self._epoch = 0
        self._reconnect_done: Optional[Event] = None
        self._jitter_rng = node.rng.child(name, "backoff")
        #: mux hook: called with every lane-tagged reply header so the
        #: :class:`repro.ib.mux.QpMux` can refresh per-lane grants.
        #: None on dedicated connections — zero work on that path.
        self.lane_hook = None

    def _open(self, qp: QueuePair) -> None:
        super()._open(qp)
        self.sim.process(self._receiver(), name=f"{self.name}.rx")

    def _qp_error_callback(self, qp: QueuePair, cause: str) -> None:
        super()._qp_error_callback(qp, cause)
        # Prompt failure detection: fail every parked call now (the
        # verbs async event) instead of waiting for flushed CQEs.
        for xid, waiter in list(self._pending.items()):
            waiter.fail(TransportError(f"{self.name}: connection failed")).defused()
            del self._pending[xid]

    # -- public API ---------------------------------------------------------
    def call(self, call: RpcCall) -> Generator:
        """Issue one RPC; transparently redial and resend.

        A call is resent only on a new connection: when the old one
        dies or the reply timer expires (which kills it).  The xid is
        preserved across every redial, so the server's duplicate request
        cache guarantees at-most-once execution while the retry loop
        guarantees at-least-once delivery — together, exactly-once.
        """
        redials = 0
        timeout_us = self.config.reply_timeout_us
        while True:
            epoch = self._epoch
            try:
                return (yield from self._attempt_call(call, timeout_us))
            except (TransportError, QPError, RpcTimeout):
                if self.reconnector is None:
                    raise
                redials += 1
                if redials > MAX_RECONNECTS:
                    raise
                if self._epoch == epoch:
                    yield from self._recover()
                self.calls_recovered.add()
            if timeout_us is not None:
                timeout_us = min(timeout_us * BACKOFF_FACTOR, MAX_REPLY_TIMEOUT_US)
                timeout_us *= 1.0 + BACKOFF_JITTER * self._jitter_rng.uniform(-1.0, 1.0)

    def _attempt_call(self, call: RpcCall, timeout_us: Optional[float]) -> Generator:
        telemetry = self.sim.telemetry
        tracer = telemetry.tracer if telemetry is not None else None
        if tracer is None:
            return (yield from self._attempt_call_inner(call, timeout_us))
        span = tracer.begin("rpc.call", "rpc", self.node.name, "rpcrdma",
                            parent=tracer.task_span(), xid=call.xid)
        call.trace_id = span.trace_id
        prev = tracer.push_task(span)
        tracer.bind_xid(call.xid, span)
        try:
            return (yield from self._attempt_call_inner(call, timeout_us))
        finally:
            tracer.unbind_xid(call.xid, span)
            tracer.pop_task(prev)
            span.end()

    def _attempt_call_inner(self, call: RpcCall, timeout_us: Optional[float]) -> Generator:
        if not self.ready.processed:
            yield self.ready
        peer_ready = self.peer_ready
        if peer_ready is not None and not peer_ready.processed:
            yield peer_ready
        if self.failed:
            raise TransportError(f"{self.name}: connection failed")
        sim = self.sim
        xid = call.xid
        yield from self.credits.acquire()
        yield from self.node.cpu.consume(PER_OP_CPU_US)
        regions: list = []
        ctx: dict = {"regions": regions, "call": call}
        self._contexts[xid] = ctx
        try:
            header, wire = yield from self._build_call(call, ctx)
            san = sim.sanitizer
            if san is not None:
                san.advertise(self.node.hca.tpt.name, xid, header.chunks)
            waiter = Event(sim)
            self._pending[xid] = waiter
            qp = self.qp
            yield from self.send_header(wire)
            self.calls_sent.add()
            if timeout_us is None:
                # No timer configured: zero extra events on this path.
                reply_header: RpcRdmaHeader = yield waiter
            else:
                reply_header = yield from self._await_reply(
                    call, qp, waiter, timeout_us)
            return (yield from self._handle_reply(reply_header, ctx))
        finally:
            self._contexts.pop(xid, None)
            self._pending.pop(xid, None)
            san = sim.sanitizer
            if san is not None:
                san.retire(self.node.hca.tpt.name, xid)
            for region in regions:
                yield from self.strategy.release(region)
            self.credits.release(ctx.get("new_grant"))

    def _await_reply(self, call: RpcCall, qp: QueuePair, waiter: Event,
                     timeout_us: float) -> Generator:
        """Wait for the reply or for the reply timer.

        On expiry ``qp``, the connection the call went out on, enters
        ERROR before the caller releases the call's chunks: a late reply
        is then flushed by the HCA instead of landing in released
        memory, and ``call`` resends on a new connection."""
        yield AnyOf(self.sim, [waiter, self.sim.timeout(timeout_us)])
        if waiter.triggered:
            return waiter.value
        self.retransmissions.add()
        qp.enter_error(f"reply timeout: xid {call.xid:#x}")
        raise RpcTimeout(
            f"{self.name}: xid {call.xid:#x} unanswered after {timeout_us:.0f} us"
        )

    def _recover(self) -> Generator:
        """Redial the server: close the old connection, open the new QP
        with fresh pools, keep the same credit ledger.

        Serialized — the first failed call performs the reconnect while
        the rest park on ``_reconnect_done`` and then retry.
        """
        if self._reconnect_done is not None:
            yield self._reconnect_done
            return
        done = self._reconnect_done = Event(self.sim)
        try:
            backoff = RECONNECT_BACKOFF_US * (
                1.0 + BACKOFF_JITTER * self._jitter_rng.uniform(-1.0, 1.0))
            yield self.sim.timeout(backoff)
            # The reconnector finds the old server end by this QP's peer,
            # so the client end closes after it, even on a refusal.
            try:
                new_qp, peer_ready = yield from self.reconnector(self)
            except TransportError:
                yield from self.close("client-initiated redial", redial=True)
                raise
            yield from self.close("client-initiated redial", redial=True)
            # Re-run the CM handshake: re-register the inline pools,
            # pre-post receives, wait for the peer.
            self._open(new_qp)
            self.peer_ready = peer_ready
            yield self.ready
            if peer_ready is not None and not peer_ready.processed:
                yield peer_ready
            self._epoch += 1
            self.reconnects.add()
            telemetry = self.sim.telemetry
            if telemetry is not None and telemetry.tracer is not None:
                telemetry.tracer.instant("rpc.redial", "rpc", self.node.name,
                                         "rpcrdma", epoch=self._epoch)
        finally:
            self._reconnect_done = None
            done.succeed()

    # -- call marshalling ---------------------------------------------------
    def _build_call(self, call: RpcCall, ctx: dict) -> Generator:
        """Process: marshal ``call``; returns ``(header, wire bytes)``."""
        chunks = ChunkList()
        rpc_bytes = call.encode()
        inline_payload: Optional[bytes] = None
        payload = call.write_payload
        if payload is not None:
            if 4 + len(rpc_bytes) + len(payload) + 64 <= self.config.inline_threshold:
                inline_payload = payload  # small write rides inline
            else:
                yield from self._add_write_data_chunks(call, chunks, ctx)
        yield from self._prepare_reply_resources(call, chunks, ctx)
        message = frame_message(rpc_bytes, inline_payload)
        header = RpcRdmaHeader(
            xid=call.xid,
            credits=self.config.credits,
            mtype=MessageType.RDMA_MSG,
            chunks=chunks,
            rpc_message=message,
            lane=call.lane,
            lane_seq=call.lane_seq,
        )
        wire = header.encode()
        if len(wire) > self.config.inline_threshold:
            # RPC long call: body moves as position-0 read chunks.
            region = yield from self.strategy.acquire(len(message), AccessFlags.REMOTE_READ)
            yield from self.node.cpu.copy(len(message))
            yield from self._crypt(len(message))
            region.fill(message)
            ctx["regions"].append(region)
            chunks.read_chunks = [
                ReadChunk(position=0, segment=seg) for seg in region.segments
            ] + chunks.read_chunks
            header = RpcRdmaHeader(
                xid=call.xid,
                credits=self.config.credits,
                mtype=MessageType.RDMA_NOMSG,
                chunks=chunks,
                rpc_message=b"",
                lane=call.lane,
                lane_seq=call.lane_seq,
            )
            wire = header.encode()
        return header, wire

    def _add_write_data_chunks(self, call: RpcCall, chunks: ChunkList, ctx: dict) -> Generator:
        """Expose the NFS WRITE payload for server RDMA Reads.

        Identical in both designs (§4: "The NFS Procedure WRITE is
        similar in both the Read-Read and Read-Write based designs").
        """
        payload = call.write_payload
        if call.write_buffer is not None:
            # Zero-copy: register exactly the payload extent in place.
            region = yield from self.strategy.wrap(
                call.write_buffer, AccessFlags.REMOTE_READ,
                addr=call.write_buffer.addr,
                length=min(len(payload), call.write_buffer.length),
            )
        else:
            region = yield from self.strategy.acquire(len(payload), AccessFlags.REMOTE_READ)
            yield from self.node.cpu.copy(len(payload))
            region.fill(payload)
        yield from self._crypt(len(payload))
        ctx["regions"].append(region)
        chunks.read_chunks.extend(
            ReadChunk(position=DATA_CHUNK_POSITION, segment=seg)
            for seg in slice_segments(region.segments, 0, len(payload))
        )

    # -- design-specific hooks ---------------------------------------------
    def _prepare_reply_resources(self, call, chunks, ctx) -> Generator:
        raise NotImplementedError
        yield  # pragma: no cover

    def _handle_reply(self, header: RpcRdmaHeader, ctx: dict) -> Generator:
        raise NotImplementedError
        yield  # pragma: no cover

    # -- receive path ---------------------------------------------------------
    def _receiver(self) -> Generator:
        yield self.ready
        qp = self.qp
        # The QP's error event fails the parked calls; this loop only
        # stops (a redial's new QP has its own receiver).
        while self.qp is qp and not self.failed and self._posted:
            wr = self.next_recv()
            yield wr.completion
            if self.qp is not qp or not wr.cqe.ok:
                return
            header = RpcRdmaHeader.decode(wr.received)
            # Repost a fresh inline receive in this buffer's place.
            self.repost_recv(wr.pool_region)
            waiter = self._pending.pop(header.xid, None)
            if waiter is None:
                continue  # stale reply for an aborted call
            ctx = self._contexts.get(header.xid)
            if ctx is not None:
                ctx["new_grant"] = header.credits
            if header.lane is not None and self.lane_hook is not None:
                self.lane_hook(header)
            waiter.succeed(header)


class RpcRdmaServerBase(_RdmaEndpoint, RpcServerTransport):
    """Server half: receive path, long-call fetch, WRITE-data fetch.

    Subclasses implement ``_respond(call_ctx, reply)`` — the reply path
    is where the two designs genuinely differ.
    """

    design = "base"

    def __init__(self, node, qp, config, strategy, name="", credit_policy=None,
                 srq=None):
        name = name or f"{node.name}.rpcrdmad-{self.design}"
        super().__init__(node, qp, config, strategy, name, srq=srq)
        #: the node name of the client this transport serves.
        self.client_id: str = node_of(qp.peer)
        self.server: Optional[RpcServer] = None
        #: the dispatcher's security ledger (misbehavior scoring,
        #: throttle, exposure peak), bound by :meth:`attach`.
        self.policy = None
        self.calls_received = Counter(f"{name}.calls")
        #: server-side credit policy (§7 future work); defaults to the
        #: static grant from the transport config.
        self.credit_policy = credit_policy
        if credit_policy is not None:
            credit_policy.register_connection(qp.qp_num)
        #: per-lane ledger, created lazily on the first version-2 call;
        #: stays None (zero cost) on dedicated connections.
        self.lanes: Optional[LaneLedger] = None
        self._req_name = f"{name}.req"

    def grant(self) -> int:
        """Credits field for the next reply (policy- or config-driven)."""
        if self.credit_policy is None:
            return self.config.credits
        backlog = self.server.backlog if self.server is not None else 0
        return self.credit_policy.grant_for(self.qp.qp_num, backlog)

    def attach(self, server: RpcServer) -> None:
        if self.server is not None:
            raise RuntimeError("transport already attached")
        self.server = server
        self.policy = server.security_policy
        self.sim.process(self._receiver(), name=f"{self.name}.rx")

    # -- receive path ---------------------------------------------------------
    def _receiver(self) -> Generator:
        yield self.ready
        if self.srq is not None:
            yield from self._srq_receiver()
            return
        while not self.failed and self._posted:
            wr = self.next_recv()
            yield wr.completion
            if not wr.cqe.ok:
                return  # flushed: the QP's error event marked us failed
            raw = wr.received
            self.repost_recv(wr.pool_region)
            try:
                header = RpcRdmaHeader.decode(raw)
            except XdrError:
                # Garbage frame (flooding/fuzzing client): drop it, score
                # the sender, keep the receive loop alive.
                self.policy.record_malformed(self.client_id)
                continue
            # Handle each message off the receive loop so long fetches
            # don't head-of-line-block subsequent requests; a connection
            # dying mid-fetch fails that request, not the server.
            self.sim.process(self._handle_message_safely(header),
                             name=self._req_name)

    def _srq_receiver(self) -> Generator:
        """Receive loop in shared-pool mode: drain this QP's inbox.

        The buffer recycles into the pool the moment the header is
        decoded (the message body is inline by construction), so pool
        residency per request is the wire+decode time only — that is
        what lets one small pool serve hundreds of mounts.
        """
        inbox = self._srq_inbox
        while not self.failed:
            # Only successful deliveries reach the inbox (the pool
            # recycles flushed ones); detach() closes it.
            wr = yield inbox.get()
            if wr is self.srq.CLOSED:
                return
            raw = wr.received
            try:
                header = RpcRdmaHeader.decode(raw)
            except XdrError:
                self.srq.recycle(wr)
                self.policy.record_malformed(self.client_id)
                continue
            self.srq.recycle(wr)
            self.sim.process(self._handle_message_safely(header),
                             name=self._req_name)

    def _handle_message_safely(self, header: RpcRdmaHeader) -> Generator:
        try:
            yield from self._handle_message(header)
        except (QPError, TransportError):
            self.failed = True

    def _handle_message(self, header: RpcRdmaHeader) -> Generator:
        if header.mtype is MessageType.RDMA_DONE:
            yield from self._handle_done(header)
            return
        telemetry = self.sim.telemetry
        tracer = telemetry.tracer if telemetry is not None else None
        if tracer is None:
            yield from self._handle_message_inner(header)
            return
        # Parent onto the client's in-flight call span (xid binding is
        # read-only here: the client owns the entry).
        span = tracer.begin("rpc.receive", "transport", self.node.name,
                            "rpcrdma", parent=tracer.xid_span(header.xid),
                            xid=header.xid)
        prev = tracer.push_task(span)
        try:
            yield from self._handle_message_inner(header)
        finally:
            tracer.pop_task(prev)
            span.end()

    def _handle_message_inner(self, header: RpcRdmaHeader) -> Generator:
        # Throttled clients wait out their penalty before dispatch.
        penalty = self.policy.throttle_penalty_us(self.client_id)
        if penalty > 0:
            yield self.sim.timeout(penalty)
        yield from self.node.cpu.consume(PER_OP_CPU_US)
        if header.lane is not None:
            if self.lanes is None:
                self.lanes = LaneLedger(f"{self.name}.lanes")
            self.lanes.on_call(header.lane, header.lane_seq)
        ctx: dict = {"regions": [], "header": header}
        # 1. Obtain the RPC message (inline or long call).
        if header.mtype is MessageType.RDMA_NOMSG:
            body_chunks = header.chunks.read_chunks_at(0)
            length = sum(c.length for c in body_chunks)
            region = yield from self.strategy.acquire(length, AccessFlags.LOCAL_WRITE)
            try:
                yield from self.fetch_chunks([c.segment for c in body_chunks],
                                             region, length)
                yield from self._crypt(length)
                message = region.peek(length)
            finally:
                yield from self.strategy.release(region)
        else:
            message = header.rpc_message
        rpc_header, inline_payload = unframe_message(message)
        call = RpcCall.decode(rpc_header)
        call.write_payload = inline_payload
        telemetry = self.sim.telemetry
        if telemetry is not None and telemetry.tracer is not None:
            bound = telemetry.tracer.xid_span(call.xid)
            if bound is not None:
                call.trace_id = bound.trace_id
        # 2. Fetch NFS WRITE data chunks (both designs: server RDMA Read,
        #    synchronous — the worker blocks inside fetch_chunks).
        data_chunks = header.chunks.read_chunks_at(DATA_CHUNK_POSITION)
        if data_chunks:
            length = sum(c.length for c in data_chunks)
            region = yield from self.strategy.acquire(length, AccessFlags.LOCAL_WRITE)
            try:
                yield from self.fetch_chunks([c.segment for c in data_chunks],
                                             region, length)
            except (QPError, TransportError):
                # No responder will ever run for this call: release here.
                yield from self.strategy.release(region)
                raise
            ctx["regions"].append(region)
            yield from self._crypt(length)
            call.write_payload = region.peek(length)
        self.calls_received.add()
        call.client_id = self.client_id
        assert self.server is not None
        # Blocking submit: a full bounded run queue stalls this request
        # process (not the receive loop), which withholds the reply and
        # its credit grant — backpressure reaches the client in-band.
        yield from self.server.submit_process(call, self._responder(ctx))

    def _handle_done(self, header: RpcRdmaHeader) -> Generator:
        """Read-Read only; the base treats it as a protocol error."""
        raise TransportError(f"{self.name}: unexpected RDMA_DONE")
        # The unreachable bare yield only marks this handler as a
        # generator so `yield from` accepts it.
        yield  # pragma: no cover # lint-sim: allow[process-yield]

    def _responder(self, ctx: dict):
        def respond(reply: RpcReply) -> Generator:
            telemetry = self.node.sim.telemetry
            tracer = telemetry.tracer if telemetry is not None else None
            span = prev = None
            if tracer is not None:
                # Reply path (chunk pushes + reply send) as one span
                # nested under the dispatch span of the serving worker.
                span = tracer.begin("rpc.reply", "transport", self.node.name,
                                    "rpcrdma", parent=tracer.task_span(),
                                    xid=reply.xid)
                prev = tracer.push_task(span)
            try:
                yield from self._respond(ctx, reply)
            except (QPError, TransportError):
                # The client's connection died while we replied: drop
                # the reply, keep the worker; resources still release.
                self.failed = True
            finally:
                if tracer is not None:
                    tracer.pop_task(prev)
                    span.end()
                for region in ctx["regions"]:
                    yield from self.strategy.release(region)

        return respond

    def _lane_reply_fields(self, ctx: dict) -> tuple:
        """The reply header's ``(lane, lane_seq, lane_credits)``: the
        call's lane echoed at version 2, or ``_NO_LANE`` for dedicated
        connections, which keeps replies at wire version 1."""
        header = ctx["header"]
        lane = header.lane
        if lane is None or self.lanes is None:
            return _NO_LANE
        return lane, header.lane_seq, self.lanes.grant_for(lane, self.grant())

    def _respond(self, ctx: dict, reply: RpcReply) -> Generator:
        raise NotImplementedError
        yield  # pragma: no cover

    def disconnect(self) -> Generator:
        """Process: tear the connection down and reclaim every resource.

        This is the operational defense against misbehaving clients:
        whatever a client managed to pin (§4.1's withheld-DONE attack)
        comes back the moment the server drops the connection, and the
        client's pending calls flush instead of awaiting lost replies.
        """
        if self.credit_policy is not None:
            self.credit_policy.unregister_connection(self.qp.qp_num)
        yield from self.close("server-initiated disconnect")
