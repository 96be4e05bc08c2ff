"""Chunk lists: the RPC/RDMA encoding of bulk-data placement (§3.1).

A *segment* names a registered buffer window by steering tag, address
and length (:class:`repro.ib.verbs.Segment`).  Chunks aggregate
segments:

* **Read chunks** — data the peer may RDMA-Read from the sender.  Each
  carries an XDR ``position`` locating it in the RPC message stream
  (position 0 = the long-call header itself).
* **Write chunks** — client-advertised windows the server RDMA-Writes
  NFS READ data into (Read-Write design only).
* **Reply chunk** — one write chunk reserved for an entire long reply
  (READDIR/READLINK).

Wire format follows RFC 5666's shape: three optional lists, each a
counted sequence; segments are (handle u32, length u32, offset u64).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from repro.ib.verbs import Segment
from repro.rpc.xdr import XdrDecoder, XdrEncoder

__all__ = ["ChunkList", "ReadChunk", "WriteChunk"]


@dataclass(frozen=True)
class ReadChunk:
    """One remotely-readable segment plus its XDR stream position."""

    position: int
    segment: Segment

    @property
    def length(self) -> int:
        return self.segment.length


class WriteChunk(tuple):
    """A counted array of remotely-writable segments (one target window).

    An immutable tuple of its segments; ``segments`` names the same
    tuple.
    """

    __slots__ = ()

    def __new__(cls, segments):
        chunk = tuple.__new__(cls, segments)
        if not chunk:
            raise ValueError("write chunk needs at least one segment")
        return chunk

    def __getnewargs__(self):
        return (tuple(self),)

    def __repr__(self) -> str:
        return f"WriteChunk(segments={tuple(self)!r})"

    @property
    def segments(self) -> "WriteChunk":
        return self

    @property
    def capacity(self) -> int:
        return sum(s.length for s in self)


#: one segment: handle, length, offset.
_SEGMENT = struct.Struct(">IIQ")
#: one read-list entry: XDR position, then its segment.
_READ_SEGMENT = struct.Struct(">IIIQ")


def _encode_segment(enc: XdrEncoder, seg: Segment) -> None:
    enc.pack(_SEGMENT, seg.stag, seg.length, seg.addr)


def _decode_segment(dec: XdrDecoder) -> Segment:
    stag, length, addr = dec.unpack(_SEGMENT)
    return Segment(stag, addr, length)


def _encode_segments(enc: XdrEncoder, segments) -> None:
    enc.array(segments, _encode_segment)


def _decode_segments(dec: XdrDecoder) -> list[Segment]:
    return dec.array(_decode_segment, max_items=4096)


def _encode_read_chunk(enc: XdrEncoder, chunk: ReadChunk) -> None:
    seg = chunk.segment
    enc.pack(_READ_SEGMENT, chunk.position, seg.stag, seg.length, seg.addr)


def _decode_read_chunk(dec: XdrDecoder) -> ReadChunk:
    position, stag, length, addr = dec.unpack(_READ_SEGMENT)
    return ReadChunk(position, Segment(stag, addr, length))


class ChunkList:
    """The three chunk lists carried by one RPC/RDMA header."""

    __slots__ = ("read_chunks", "write_chunks", "reply_chunk")

    def __init__(self, read_chunks: Optional[list[ReadChunk]] = None,
                 write_chunks: Optional[list[WriteChunk]] = None,
                 reply_chunk: Optional[WriteChunk] = None):
        self.read_chunks = [] if read_chunks is None else read_chunks
        self.write_chunks = [] if write_chunks is None else write_chunks
        self.reply_chunk = reply_chunk

    def __eq__(self, other) -> bool:
        if type(other) is not ChunkList:
            return NotImplemented
        return (self.read_chunks == other.read_chunks
                and self.write_chunks == other.write_chunks
                and self.reply_chunk == other.reply_chunk)

    __hash__ = None

    def __repr__(self) -> str:
        return (f"ChunkList(read_chunks={self.read_chunks!r}, "
                f"write_chunks={self.write_chunks!r}, "
                f"reply_chunk={self.reply_chunk!r})")

    @property
    def empty(self) -> bool:
        return not (self.read_chunks or self.write_chunks or self.reply_chunk)

    def read_chunks_at(self, position: int) -> list[ReadChunk]:
        return [c for c in self.read_chunks if c.position == position]

    def read_length(self) -> int:
        return sum(c.length for c in self.read_chunks)

    def encode(self, enc: XdrEncoder) -> None:
        enc.array(self.read_chunks, _encode_read_chunk)
        enc.array(self.write_chunks,
                  lambda e, w: _encode_segments(e, w.segments))
        enc.optional(self.reply_chunk,
                     lambda e, w: _encode_segments(e, w.segments))

    @classmethod
    def decode(cls, dec: XdrDecoder) -> "ChunkList":
        read_chunks = dec.array(_decode_read_chunk, max_items=4096)
        write_chunks = [
            WriteChunk(segs)
            for segs in dec.array(_decode_segments, max_items=256)
        ]
        reply = dec.optional(_decode_segments)
        return cls(read_chunks, write_chunks,
                   WriteChunk(reply) if reply else None)
