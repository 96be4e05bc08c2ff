"""ONC RPC call/reply messages (RFC 5531, trimmed to what NFS needs).

``RpcCall``/``RpcReply`` carry the XDR-encoded procedure header in
``header`` and bulk data out-of-band in ``write_payload`` (client →
server, e.g. NFS WRITE data) and ``read_payload`` (server → client,
e.g. NFS READ data).  On TCP the transport just concatenates them; on
RPC/RDMA the transport moves them via chunks — which is the entire
subject of the paper.

The client also passes *hints*:

``read_len_hint``
    Upper bound on the reply's bulk data (the NFS READ ``count``).  The
    Read-Write design uses it to size the write chunk advertised in the
    call.
``reply_len_hint``
    Upper bound on the reply *header* when it may exceed the inline
    threshold (READDIR/READLINK).  Sizes the reply chunk (RPC long
    reply).
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field
from typing import Optional

from repro.payload import Payload
from repro.rpc.xdr import XdrDecoder, XdrEncoder

__all__ = [
    "MSG_ACCEPTED",
    "MSG_DENIED",
    "RpcCall",
    "RpcError",
    "RpcReply",
    "frame_message",
    "unframe_message",
]

_xids = itertools.count(0x10_0000)

RPC_VERSION = 2
CALL = 0
REPLY = 1
MSG_ACCEPTED = 0
MSG_DENIED = 1

#: call prefix: xid, message type, RPC version, program, version, procedure.
_CALL_PREFIX = struct.Struct(">6I")
#: reply prefix: xid, message type, reply status.
_REPLY_PREFIX = struct.Struct(">3I")


class RpcError(Exception):
    """Protocol-level RPC failure (garbage args, prog unavailable...)."""


@dataclass
class RpcCall:
    """One RPC request."""

    prog: int
    vers: int
    proc: int
    header: bytes = b""
    write_payload: Optional[bytes] = None
    read_len_hint: int = 0
    reply_len_hint: int = 0
    #: Optional caller-owned, RDMA-addressable source holding
    #: ``write_payload`` — lets RDMA transports send zero-copy.
    write_buffer: Optional[object] = None
    #: Optional caller-owned destination for reply bulk data — the
    #: direct-I/O zero-copy READ path of the Read-Write design.
    read_buffer: Optional[object] = None
    xid: int = field(default_factory=lambda: next(_xids))
    #: Telemetry correlation handle, set by the transport when tracing
    #: is enabled.  Deliberately *not* encoded: real RPC has no such
    #: field, and adding wire bytes would change simulated timing.
    trace_id: Optional[int] = None
    #: Virtual lane on a multiplexed connection, set by
    #: :class:`repro.ib.mux.MuxLane` before handing the call to the
    #: shared channel.  Not encoded here — the RPC/RDMA *transport*
    #: header carries it (version 2), mirroring how the real protocol
    #: would extend rpcrdma1 rather than ONC RPC itself.
    lane: Optional[int] = None
    #: Per-lane send sequence number (see :attr:`lane`).
    lane_seq: int = 0
    #: Node name of the caller, set by the server transport that
    #: received the call (None over TCP); not encoded.
    client_id: Optional[str] = None

    def encode(self) -> bytes:
        """Wire encoding of the call *header* (bulk rides separately)."""
        enc = XdrEncoder()
        enc.pack(_CALL_PREFIX, self.xid, CALL, RPC_VERSION, self.prog,
                 self.vers, self.proc)
        # AUTH_NONE credential + verifier.
        enc.u32(0).opaque(b"")
        enc.u32(0).opaque(b"")
        enc.raw(_aligned(self.header))
        return enc.take()

    @classmethod
    def decode(cls, data: bytes, header_len: Optional[int] = None) -> "RpcCall":
        dec = XdrDecoder(data)
        xid, mtype, rpcvers, prog, vers, proc = dec.unpack(_CALL_PREFIX)
        if mtype != CALL:
            raise RpcError("not an RPC call")
        if rpcvers != RPC_VERSION:
            raise RpcError("bad RPC version")
        dec.u32(); dec.opaque()  # cred
        dec.u32(); dec.opaque()  # verf
        header = dec.remainder()
        call = cls(prog=prog, vers=vers, proc=proc, header=header, xid=xid)
        return call


@dataclass
class RpcReply:
    """One RPC response."""

    xid: int
    stat: int = MSG_ACCEPTED
    header: bytes = b""
    read_payload: Optional[bytes] = None
    #: Telemetry correlation handle (see :attr:`RpcCall.trace_id`).
    trace_id: Optional[int] = None

    def encode(self) -> bytes:
        enc = XdrEncoder()
        enc.pack(_REPLY_PREFIX, self.xid, REPLY, self.stat)
        enc.u32(0).opaque(b"")  # verifier
        enc.u32(0)              # accept stat SUCCESS
        enc.raw(_aligned(self.header))
        return enc.take()

    @classmethod
    def decode(cls, data: bytes) -> "RpcReply":
        dec = XdrDecoder(data)
        xid, mtype, stat = dec.unpack(_REPLY_PREFIX)
        if mtype != REPLY:
            raise RpcError("not an RPC reply")
        dec.u32(); dec.opaque()  # verifier
        accept = dec.u32()
        if stat == MSG_ACCEPTED and accept != 0:
            raise RpcError(f"RPC accepted with error status {accept}")
        return cls(xid=xid, stat=stat, header=dec.remainder())


def _aligned(data: bytes) -> bytes:
    """Pad arbitrary header bytes to XDR alignment for splicing."""
    pad = (4 - len(data) % 4) % 4
    return data + b"\x00" * pad if pad else data


_FRAME_LEN = struct.Struct(">I")


def frame_message(header: bytes, payload) -> "bytes | Payload":
    """``[u32 header_len][header][bulk]`` — the byte-count-equivalent
    stand-in for XDR-inline bulk encoding, shared by every transport.

    Headers are always real bytes; bulk may be a zero-copy
    :class:`~repro.payload.Payload`, in which case the framed message
    stays a payload descriptor (the simulated wire only needs its
    length) instead of materialising the bulk bytes.
    """
    prefix = _FRAME_LEN.pack(len(header)) + header
    if not payload:
        return prefix
    if isinstance(payload, Payload):
        return Payload.concat((prefix, payload))
    return prefix + payload


def unframe_message(message) -> tuple[bytes, "Optional[bytes | Payload]"]:
    """Inverse of :func:`frame_message`.

    The returned header is always materialised bytes (decoders index
    into it); the bulk payload keeps whatever representation it rode in
    with.
    """
    if len(message) < 4:
        raise RpcError("short RPC record")
    if isinstance(message, Payload):
        head = message[0:4].tobytes()
        (hlen,) = _FRAME_LEN.unpack(head)
        if 4 + hlen > len(message):
            raise RpcError("RPC record header overruns message")
        header = message[4:4 + hlen].tobytes()
        payload = message[4 + hlen:] or None
        return header, payload
    (hlen,) = _FRAME_LEN.unpack_from(message)
    if 4 + hlen > len(message):
        raise RpcError("RPC record header overruns message")
    header = message[4 : 4 + hlen]
    payload = message[4 + hlen :] or None
    return header, payload
