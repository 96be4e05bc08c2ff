"""The RPC/RDMA header of Fig 2.

Transaction XID, RPC/RDMA version, credit (flow-control) field, message
type, then the three chunk lists, then — for ``RDMA_MSG`` — the RPC
message proper.  ``RDMA_NOMSG`` means the RPC message body travels as
read chunks (the long call / long reply); ``RDMA_DONE`` is the
Read-Read design's completion signal that lets the server release its
exposed buffers.

Version 2 is the QP-multiplexing extension (DESIGN.md §15): when many
mounts share one connection, each call carries its virtual *lane* id
(the mount's identity on the shared QP), a per-lane sequence number for
FIFO auditing, and — on replies — a per-lane credit grant carved out of
the connection's window.  Version 2 words are written only when
``lane`` is set, so non-muxed traffic stays byte-for-byte version 1.
"""

from __future__ import annotations

import enum
import struct
from typing import Optional

from repro.core.chunks import ChunkList
from repro.rpc.xdr import XdrDecoder, XdrEncoder, XdrError

__all__ = ["MessageType", "RpcRdmaHeader", "RPC_RDMA_VERSION",
           "RPC_RDMA_VERSION_MUX"]

RPC_RDMA_VERSION = 1
#: version advertised by connections carrying multiplexed lanes.
RPC_RDMA_VERSION_MUX = 2

#: xid, version, credits, message type.
_FIXED = struct.Struct(">4I")
#: version 2 only: lane id, per-lane sequence, per-lane credit grant.
_LANE = struct.Struct(">3I")


class MessageType(enum.IntEnum):
    RDMA_MSG = 0    # RPC call/reply follows inline
    RDMA_NOMSG = 1  # RPC body entirely in chunks
    RDMA_MSGP = 2   # padded variant (alignment optimisation)
    RDMA_DONE = 3   # client signals chunk consumption (Read-Read only)


#: wire value -> member; the values are 0..3, so decode indexes.
_MTYPES = tuple(MessageType)
#: message types whose RPC message rides inline after the chunk lists.
_WITH_BODY = (MessageType.RDMA_MSG, MessageType.RDMA_MSGP)


class RpcRdmaHeader:
    """One transport header, always sent inline via RDMA Send.

    ``lane`` is the virtual lane (mount id) on a shared QP; ``None`` on
    dedicated connections, which keeps the wire encoding at version 1.
    ``lane_seq`` is the per-lane send sequence number (FIFO audit) and
    ``lane_credits`` the per-lane credit grant on replies (0 on calls);
    both are written at version 2 only.
    """

    __slots__ = ("xid", "credits", "mtype", "chunks", "rpc_message", "lane",
                 "lane_seq", "lane_credits")

    def __init__(self, xid: int, credits: int, mtype: MessageType,
                 chunks: Optional[ChunkList] = None, rpc_message: bytes = b"",
                 lane: Optional[int] = None, lane_seq: int = 0,
                 lane_credits: int = 0):
        self.xid = xid
        self.credits = credits
        self.mtype = mtype
        self.chunks = ChunkList() if chunks is None else chunks
        self.rpc_message = rpc_message
        self.lane = lane
        self.lane_seq = lane_seq
        self.lane_credits = lane_credits

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"RpcRdmaHeader(xid={self.xid:#x}, credits={self.credits}, "
                f"mtype={self.mtype!r}, chunks={self.chunks!r}, "
                f"rpc_message=<{len(self.rpc_message)} bytes>, lane={self.lane}, "
                f"lane_seq={self.lane_seq}, lane_credits={self.lane_credits})")

    def encode(self) -> bytes:
        """The wire bytes.  The transport encodes each message once and
        tests ``len()`` of the result against the inline threshold."""
        enc = XdrEncoder()
        lane = self.lane
        enc.pack(_FIXED, self.xid,
                 RPC_RDMA_VERSION if lane is None else RPC_RDMA_VERSION_MUX,
                 self.credits, self.mtype)
        if lane is not None:
            enc.pack(_LANE, lane, self.lane_seq, self.lane_credits)
        self.chunks.encode(enc)
        if self.mtype in _WITH_BODY:
            enc.opaque(self.rpc_message)
        return enc.take()

    @classmethod
    def decode(cls, data: bytes) -> "RpcRdmaHeader":
        dec = XdrDecoder(data)
        xid, version, credits, wire_mtype = dec.unpack(_FIXED)
        if version not in (RPC_RDMA_VERSION, RPC_RDMA_VERSION_MUX):
            raise XdrError(f"unsupported RPC/RDMA version {version}")
        if wire_mtype >= len(_MTYPES):
            raise XdrError(f"{wire_mtype} is not a valid MessageType")
        mtype = _MTYPES[wire_mtype]
        lane = None
        lane_seq = lane_credits = 0
        if version == RPC_RDMA_VERSION_MUX:
            lane, lane_seq, lane_credits = dec.unpack(_LANE)
        chunks = ChunkList.decode(dec)
        message = b""
        if mtype in _WITH_BODY:
            message = dec.opaque()
        return cls(xid, credits, mtype, chunks, message, lane, lane_seq,
                   lane_credits)
