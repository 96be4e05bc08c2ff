"""The proposed Read-Write design (§4): server-issued RDMA Writes.

The client advertises, *in the RPC call*, where reply bulk data should
land: a write chunk list for NFS READ data, a reply chunk for long
replies.  When the file system returns, the server RDMA-Writes the data
directly into client memory and immediately sends the RPC reply —
InfiniBand's guaranteed Write→Send completion ordering means the send's
completion proves the writes landed, so the server neither blocks nor
takes extra interrupts, and its buffers deregister as soon as the send
completes.  Consequences (§4.2):

* **Security** — the server exposes no steering tags, ever; a client
  cannot issue any RDMA operation against server memory.
* **No RDMA_DONE** — buffer lifetime is server-controlled; a malicious
  client cannot pin server resources by withholding completion signals.
* **Parallel writes** — RDMA Writes don't consume IRD/ORD slots and the
  HCA issues many concurrently; the §4.1 read-serialisation bottleneck
  disappears from the READ path.
* **Zero-copy client** — with direct I/O the client wraps the
  application buffer itself in the write chunk (registration instead of
  a copy; the copy-CPU collapse of Fig 6).

The exposure trade runs the other way: *client* buffers are exposed to
the server — acceptable because NFS deployments trust the server.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.base import (
    RpcRdmaClientBase,
    RpcRdmaServerBase,
    TransportError,
    slice_segments,
)
from repro.core.chunks import ChunkList, WriteChunk
from repro.core.header import MessageType, RpcRdmaHeader
from repro.ib.memory import AccessFlags
from repro.rpc.msg import RpcCall, RpcReply, frame_message, unframe_message
from repro.sim import Counter

__all__ = ["ReadWriteClient", "ReadWriteServer"]

#: Conservative bound on reply-header framing overhead when deciding
#: whether an expected reply still fits inline.
_REPLY_OVERHEAD = 192


class ReadWriteClient(RpcRdmaClientBase):
    """Client half of the Read-Write design."""

    design = "read-write"

    def __init__(self, node, qp, config, strategy, name=""):
        super().__init__(node, qp, config, strategy, name)
        self.zero_copy_reads = Counter(f"{self.name}.zero_copy_reads")
        self.buffered_reads = Counter(f"{self.name}.buffered_reads")

    def _prepare_reply_resources(self, call: RpcCall, chunks: ChunkList, ctx: dict) -> Generator:
        # NFS READ (and friends): advertise a write chunk sized to the
        # expected data so the server can RDMA-Write straight back.
        if call.read_len_hint > 0 and (
            call.read_len_hint + _REPLY_OVERHEAD > self.config.inline_threshold
        ):
            if call.read_buffer is not None:
                # Direct I/O zero-copy: register exactly the I/O window
                # of the app buffer in place.
                region = yield from self.strategy.wrap(
                    call.read_buffer, AccessFlags.REMOTE_WRITE,
                    addr=call.read_buffer.addr,
                    length=min(call.read_len_hint, call.read_buffer.length),
                )
                ctx["read_zero_copy"] = True
                self.zero_copy_reads.add()
            else:
                region = yield from self.strategy.acquire(
                    call.read_len_hint, AccessFlags.REMOTE_WRITE
                )
                ctx["read_zero_copy"] = False
                self.buffered_reads.add()
            ctx["regions"].append(region)
            ctx["read_region"] = region
            chunks.write_chunks.append(
                WriteChunk(slice_segments(region.segments, 0, call.read_len_hint))
            )
        # Long reply (READDIR/READLINK): advertise a reply chunk.
        if call.reply_len_hint + _REPLY_OVERHEAD > self.config.inline_threshold:
            region = yield from self.strategy.acquire(
                max(call.reply_len_hint, 4096), AccessFlags.REMOTE_WRITE
            )
            ctx["regions"].append(region)
            ctx["reply_region"] = region
            chunks.reply_chunk = WriteChunk(region.segments)

    def _handle_reply(self, header: RpcRdmaHeader, ctx: dict) -> Generator:
        if header.mtype is MessageType.RDMA_NOMSG:
            # Long reply: the entire RPC message was RDMA-written into
            # our reply chunk; its echoed length says how much.
            region = ctx.get("reply_region")
            if region is None or header.chunks.reply_chunk is None:
                raise TransportError(f"{self.name}: long reply without reply chunk")
            actual = header.chunks.reply_chunk.capacity
            yield from self._crypt(actual)
            message = region.peek(actual)
        elif header.mtype is MessageType.RDMA_MSG:
            message = header.rpc_message
        else:
            raise TransportError(f"{self.name}: unexpected reply type {header.mtype}")
        rpc_header, inline_payload = unframe_message(message)
        reply = RpcReply.decode(rpc_header)
        reply.read_payload = inline_payload
        # READ data: already in client memory courtesy of the server's
        # RDMA Writes; the echoed write chunk tells us how much arrived.
        if header.chunks.write_chunks:
            actual = sum(w.capacity for w in header.chunks.write_chunks)
            region = ctx.get("read_region")
            if region is None:
                raise TransportError(f"{self.name}: write chunk echo without window")
            yield from self._crypt(actual)
            if not ctx.get("read_zero_copy", False):
                # Buffered path: one copy from the transport buffer to
                # the application (direct I/O skips this entirely).
                yield from self.node.cpu.copy(actual)
            reply.read_payload = region.peek(actual)
        return reply


class ReadWriteServer(RpcRdmaServerBase):
    """Server half of the Read-Write design."""

    design = "read-write"

    def __init__(self, node, qp, config, strategy, name="", credit_policy=None,
                 srq=None):
        super().__init__(node, qp, config, strategy, name,
                         credit_policy=credit_policy, srq=srq)
        self.rdma_writes_issued = Counter(f"{self.name}.writes")
        self.long_replies = Counter(f"{self.name}.long_replies")

    def _respond(self, ctx: dict, reply: RpcReply) -> Generator:
        call_header: RpcRdmaHeader = ctx["header"]
        reply_chunks = ChunkList()
        reply_bytes = reply.encode()
        inline_payload: Optional[bytes] = None
        payload = reply.read_payload

        if payload:
            nbytes = len(payload)
            write_chunks = call_header.chunks.write_chunks
            if write_chunks:
                # RDMA-Write the data into the client's advertised chunk.
                target = write_chunks[0]
                if nbytes > target.capacity:
                    raise TransportError(
                        f"{self.name}: {nbytes} bytes exceed client's "
                        f"write chunk of {target.capacity}"
                    )
                region = yield from self.strategy.acquire(
                    nbytes, AccessFlags.LOCAL_WRITE
                )
                ctx["regions"].append(region)
                yield from self._crypt(nbytes)
                region.fill(payload)
                yield from self.push_chunks(region, target, nbytes)
                self.rdma_writes_issued.add()
                # Echo the chunk trimmed to the bytes actually written.
                reply_chunks.write_chunks.append(
                    WriteChunk(slice_segments(target, 0, nbytes))
                )
            elif 4 + len(reply_bytes) + nbytes + 64 <= self.config.inline_threshold:
                inline_payload = payload
            else:
                raise TransportError(
                    f"{self.name}: bulk reply but client advertised no write chunk"
                )

        message = frame_message(reply_bytes, inline_payload)
        lane_fields = self._lane_reply_fields(ctx)
        wire = RpcRdmaHeader(reply.xid, self.grant(), MessageType.RDMA_MSG,
                             reply_chunks, message, *lane_fields).encode()
        if len(wire) > self.config.inline_threshold:
            # RPC long reply: write the whole message into the client's
            # reply chunk, send a bodyless NOMSG reply.
            target = call_header.chunks.reply_chunk
            if target is None:
                raise TransportError(
                    f"{self.name}: long reply but client advertised no reply chunk"
                )
            if len(message) > target.capacity:
                raise TransportError(
                    f"{self.name}: long reply of {len(message)} bytes exceeds "
                    f"client reply chunk of {target.capacity}"
                )
            region = yield from self.strategy.acquire(len(message), AccessFlags.LOCAL_WRITE)
            ctx["regions"].append(region)
            yield from self._crypt(len(message))
            region.fill(message)
            yield from self.push_chunks(region, target, len(message))
            self.long_replies.add()
            reply_chunks.reply_chunk = WriteChunk(
                slice_segments(target, 0, len(message))
            )
            wire = RpcRdmaHeader(reply.xid, self.grant(), MessageType.RDMA_NOMSG,
                                 reply_chunks, b"", *lane_fields).encode()
        send_wr = yield from self.send_header(wire)
        # The send's completion guarantees all prior RDMA Writes landed
        # (§4.2); only then may the bulk buffers be released — which the
        # base class does right after this returns.
        yield send_wr.completion
        if not send_wr.cqe.ok:
            raise TransportError(f"{self.name}: reply send failed: {send_wr.cqe.error}")
