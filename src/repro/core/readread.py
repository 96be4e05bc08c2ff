"""Callaghan's original Read-Read design (§3, critiqued in §4.1).

All bulk data moves by RDMA Read.  For NFS READ and long replies the
*server* registers its buffers with remote-read rights and returns their
steering tags as read chunks in the RPC reply; the client issues the
RDMA Reads, then sends ``RDMA_DONE`` so the server can deregister and
release.  Faithfully modeled liabilities:

* **Exposed server stags** — every bulk reply leaves windows in the
  server TPT that any guessed 32-bit stag could hit
  (:meth:`ReadReadServer.exposed_regions` is the audit hook).
* **Client-controlled lifetime** — buffers stay pinned until the DONE
  arrives; a malicious or crashed client pins them forever
  (:attr:`ReadReadServer.pending_done`).
* **Client data copy** — the client reads into pre-registered bounce
  buffers and memcpy's to the application (no per-op client
  registration, but burning client CPU — the 24 % line in Fig 6).
* **Read serialisation** — the client's RDMA Reads are served one at a
  time by the server HCA's per-QP read engine and capped by IRD/ORD.
* **Extra messages/interrupts** — the DONE send costs wire, server CPU
  and a server interrupt per bulk operation.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.base import (
    DATA_CHUNK_POSITION,
    RpcRdmaClientBase,
    RpcRdmaServerBase,
    TransportError,
    _InlinePool,
    slice_segments,
)
from repro.core.chunks import ChunkList, ReadChunk
from repro.core.header import MessageType, RpcRdmaHeader
from repro.core.strategies import RegisteredRegion
from repro.ib.memory import AccessFlags
from repro.rpc.msg import RpcCall, RpcReply, frame_message, unframe_message
from repro.sim import Counter

__all__ = ["ReadReadClient", "ReadReadServer"]

#: Client bounce buffers: count and size (one covers the 1 MiB rsize).
BOUNCE_POOL_ENTRIES = 32
BOUNCE_BUFFER_BYTES = 1 << 20
#: Server CPU to process one RDMA_DONE.
DONE_HANDLER_CPU_US = 2.0


class ReadReadClient(RpcRdmaClientBase):
    """Client half of the Read-Read design (bounce buffers + copies)."""

    design = "read-read"

    def __init__(self, node, qp, config, strategy, name=""):
        super().__init__(node, qp, config, strategy, name)
        # Pre-registered bounce buffers: the Read-Read client never
        # registers per-operation — it pays in copies instead.
        self.bounce_pool = _InlinePool(node, BOUNCE_POOL_ENTRIES,
                                       BOUNCE_BUFFER_BYTES, f"{self.name}.bounce")
        self.dones_sent = Counter(f"{self.name}.dones")
        self.bounce_copies_bytes = Counter(f"{self.name}.bounce_copy_bytes")

    def _setup_pools(self) -> Generator:
        yield from super()._setup_pools()
        # Once per transport: a redial re-runs this setup, but the bounce
        # buffers outlive the connection.
        if not self.bounce_pool.regions:
            yield from self.bounce_pool.setup()

    def close(self, cause: str, redial: bool = False) -> Generator:
        yield from super().close(cause, redial)
        if not redial:
            yield from self.bounce_pool.release()

    def _prepare_reply_resources(self, call: RpcCall, chunks: ChunkList, ctx: dict) -> Generator:
        # Nothing to advertise: the server will expose *its* buffers in
        # the reply — the defining (and insecure) move of this design.
        return
        yield  # pragma: no cover

    def _handle_reply(self, header: RpcRdmaHeader, ctx: dict) -> Generator:
        fetched_chunks = False
        # Long reply: the entire RPC message is a position-0 read chunk
        # in the server's memory; fetch it.
        if header.mtype is MessageType.RDMA_NOMSG:
            body = header.chunks.read_chunks_at(0)
            if not body:
                raise TransportError(f"{self.name}: NOMSG reply without chunks")
            length = sum(c.length for c in body)
            message = yield from self._fetch_via_bounce([c.segment for c in body], length)
            fetched_chunks = True
        elif header.mtype is MessageType.RDMA_MSG:
            message = header.rpc_message
        else:
            raise TransportError(f"{self.name}: unexpected reply type {header.mtype}")
        rpc_header, inline_payload = unframe_message(message)
        reply = RpcReply.decode(rpc_header)
        reply.read_payload = inline_payload
        # READ data chunks: server-exposed; client issues the RDMA Reads.
        data = header.chunks.read_chunks_at(DATA_CHUNK_POSITION)
        if data:
            length = sum(c.length for c in data)
            reply.read_payload = yield from self._fetch_via_bounce(
                [c.segment for c in data], length
            )
            fetched_chunks = True
        if fetched_chunks:
            # Tell the server it may free its exposed buffers.
            yield from self._send_done(header.xid)
        return reply

    def _fetch_via_bounce(self, segments, length: int) -> Generator:
        """RDMA-Read server chunks into a bounce buffer, copy out."""
        if length > BOUNCE_BUFFER_BYTES:
            raise TransportError(
                f"{self.name}: {length} bytes exceed bounce buffer size"
            )
        bounce: RegisteredRegion = yield self.bounce_pool.free.get()
        try:
            yield from self.fetch_chunks(segments, bounce, length)
            yield from self._crypt(length)
            # The copy the Read-Write design eliminates (Fig 6's CPU gap):
            # bounce buffer -> application memory.
            yield from self.node.cpu.copy(length)
            self.bounce_copies_bytes.add(length)
            return bounce.peek(length)
        finally:
            self.bounce_pool.free.put(bounce)

    def _send_done(self, xid: int) -> Generator:
        done = RpcRdmaHeader(
            xid=xid,
            credits=self.config.credits,
            mtype=MessageType.RDMA_DONE,
        )
        yield from self.send_header(done.encode())
        self.dones_sent.add()


class ReadReadServer(RpcRdmaServerBase):
    """Server half of the Read-Read design (exposes buffers, awaits DONE)."""

    design = "read-read"

    def __init__(self, node, qp, config, strategy, name="", credit_policy=None,
                 srq=None):
        super().__init__(node, qp, config, strategy, name,
                         credit_policy=credit_policy, srq=srq)
        # DONE messages consume receives beyond the credit grant; post
        # double the receives so bulk-heavy workloads never go RNR.
        # (In shared-pool mode the wiring layer sizes the pool instead.)
        if self.recv_pool is not None:
            self.recv_pool.count = config.credits * 2
        #: xid -> regions awaiting the client's RDMA_DONE.
        self.pending_done: dict[int, list[RegisteredRegion]] = {}
        #: bytes across ``pending_done`` (kept running, never re-summed).
        self.exposed_bytes = 0
        self.dones_received = Counter(f"{self.name}.dones")

    def _respond(self, ctx: dict, reply: RpcReply) -> Generator:
        reply_chunks = ChunkList()
        reply_bytes = reply.encode()
        inline_payload: Optional[bytes] = None
        exposed: list[RegisteredRegion] = []
        payload = reply.read_payload

        if payload:
            if 4 + len(reply_bytes) + len(payload) + 64 <= self.config.inline_threshold:
                inline_payload = payload
            else:
                # Expose a server buffer for the client to RDMA Read —
                # the security hole §4.1 identifies.
                region = yield from self.strategy.acquire(
                    len(payload), AccessFlags.REMOTE_READ
                )
                yield from self._crypt(len(payload))
                region.fill(payload)
                exposed.append(region)
                reply_chunks.read_chunks.extend(
                    ReadChunk(position=DATA_CHUNK_POSITION, segment=seg)
                    for seg in slice_segments(region.segments, 0, len(payload))
                )

        message = frame_message(reply_bytes, inline_payload)
        lane_fields = self._lane_reply_fields(ctx)
        wire = RpcRdmaHeader(reply.xid, self.grant(), MessageType.RDMA_MSG,
                             reply_chunks, message, *lane_fields).encode()
        if len(wire) > self.config.inline_threshold:
            # RPC long reply, Read-Read style: expose the message itself.
            region = yield from self.strategy.acquire(len(message), AccessFlags.REMOTE_READ)
            yield from self._crypt(len(message))
            region.fill(message)
            exposed.append(region)
            reply_chunks.read_chunks = [
                *(ReadChunk(position=0, segment=seg) for seg in region.segments),
                *(c for c in reply_chunks.read_chunks if c.position != 0),
            ]
            wire = RpcRdmaHeader(reply.xid, self.grant(), MessageType.RDMA_NOMSG,
                                 reply_chunks, b"", *lane_fields).encode()
        if exposed:
            # Lifetime now rests with the client: nothing is released
            # until (unless!) its RDMA_DONE arrives.  Merge, don't
            # overwrite — a DRC replay re-exposes under the same xid and
            # the single DONE must release both generations.
            self.pending_done.setdefault(reply.xid, []).extend(exposed)
            self.exposed_bytes += sum(r.length for r in exposed)
            self.policy.record_exposure(self.exposed_bytes)
            san = self.sim.sanitizer
            if san is not None:
                san.advertise(self.node.hca.tpt.name, reply.xid,
                              reply_chunks)
            if self.config.exposure_quota_bytes is not None:
                yield from self._enforce_quota(reply.xid)
            if self.config.lease_timeout_us is not None:
                self.sim.process(self._lease_timer(reply.xid),
                                 name=f"{self.name}.lease")
        yield from self.send_header(wire)

    # -- retiring exposures -------------------------------------------------
    def _retire(self, xid: int, reclaim=None) -> Generator:
        """Process: end exposure ``xid`` if it is still pending.

        Every way an exposure ends comes here: DONE, lease expiry, quota
        eviction and close.  Bookkeeping runs before the first release
        yield — the running total, the sanitizer's un-advertise, then
        ``reclaim(client, nbytes)``, the ledger's count and score for a
        reclaimed exposure (which may spawn a quarantine) — and the
        windows are released last.
        """
        regions = self.pending_done.pop(xid, None)
        if regions is None:
            return  # DONE (or quota/lease/close reclaim) got there first
        nbytes = sum(r.length for r in regions)
        self.exposed_bytes -= nbytes
        san = self.sim.sanitizer
        if san is not None:
            san.retire(self.node.hca.tpt.name, xid)
        if reclaim is not None:
            reclaim(self.client_id, nbytes)
        for region in regions:
            yield from self.strategy.release(region)

    def _enforce_quota(self, current_xid: int) -> Generator:
        """Admission control: this connection's exposed bytes must fit
        ``exposure_quota_bytes``.  While over, the *oldest* pending
        exposure (never the one just admitted) is reclaimed — the
        misbehaving client loses its own stalest window, well-behaved
        clients are untouched because their DONEs keep them under quota.
        """
        quota = self.config.exposure_quota_bytes
        while len(self.pending_done) > 1 and self.exposed_bytes > quota:
            oldest = next(x for x in self.pending_done if x != current_xid)
            yield from self._retire(oldest, self.policy.record_quota_eviction)

    def _lease_timer(self, xid: int) -> Generator:
        """Deadline-based reclamation: if the DONE has not arrived when
        the lease expires, deregister the windows (a sanitizer-visible
        epoch bump) and score the client."""
        yield self.sim.timeout(self.config.lease_timeout_us)
        yield from self._retire(xid, self.policy.record_lease_reclaim)

    def _handle_done(self, header: RpcRdmaHeader) -> Generator:
        yield from self.node.cpu.consume(DONE_HANDLER_CPU_US)
        self.dones_received.add()
        # A duplicate/stray DONE finds nothing: ignore, as a robust
        # server must.
        yield from self._retire(header.xid)

    def _reclaim_on_close(self) -> Generator:
        """Release every window awaiting a DONE that will never come,
        newest first."""
        while self.pending_done:
            yield from self._retire(next(reversed(self.pending_done)))

    # -- audit hooks ---------------------------------------------------------
    def exposed_regions(self) -> list[RegisteredRegion]:
        """Server windows currently readable by the client (attack surface)."""
        return [r for regions in self.pending_done.values() for r in regions]

    @property
    def pending_done_count(self) -> int:
        return len(self.pending_done)
