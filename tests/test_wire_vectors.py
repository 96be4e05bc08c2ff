"""Byte-pinned wire vectors for every hand-written codec.

Header sizes drive the transport's inline-versus-chunk decisions (and so
every simulated figure), so these encodings are pinned byte for byte.
Each vector also decodes back to the value it came from.
"""

import pytest

from repro.core.chunks import ChunkList, ReadChunk, WriteChunk
from repro.core.header import MessageType, RpcRdmaHeader
from repro.fs.api import FileKind, FsAttributes
from repro.ib.verbs import Segment
from repro.nfs.fh import FileHandle
from repro.nfs.protocol import decode_fattr, encode_fattr
from repro.rpc.msg import RpcCall, RpcReply
from repro.rpc.xdr import XdrDecoder, XdrEncoder


def words(*parts: str) -> bytes:
    return bytes.fromhex("".join(parts))


RDMA_HEADERS = {
    "v1-msg-all-chunk-lists": (
        RpcRdmaHeader(
            xid=0x01020304, credits=32, mtype=MessageType.RDMA_MSG,
            chunks=ChunkList(
                read_chunks=[ReadChunk(1, Segment(0xA1, 0x1000, 0x200))],
                write_chunks=[WriteChunk([Segment(0xB1, 0x2000, 0x300),
                                          Segment(0xB2, 0x3000, 0x400)])],
                reply_chunk=WriteChunk([Segment(0xC1, 0x4000, 0x500)]),
            ),
            rpc_message=b"abcdef",
        ),
        words(
            "01020304", "00000001", "00000020", "00000000",
            # read list: one chunk at position 1
            "00000001", "00000001", "000000a1", "00000200", "0000000000001000",
            # write list: one chunk of two segments
            "00000001", "00000002",
            "000000b1", "00000300", "0000000000002000",
            "000000b2", "00000400", "0000000000003000",
            # reply chunk: present, one segment
            "00000001", "00000001", "000000c1", "00000500", "0000000000004000",
            # inline RPC message, padded to 4 bytes
            "00000006", "616263646566", "0000",
        ),
    ),
    "v1-nomsg": (
        RpcRdmaHeader(
            xid=7, credits=8, mtype=MessageType.RDMA_NOMSG,
            chunks=ChunkList(read_chunks=[ReadChunk(0, Segment(0xD1, 0x5000, 0x600))]),
        ),
        words(
            "00000007", "00000001", "00000008", "00000001",
            "00000001", "00000000", "000000d1", "00000600", "0000000000005000",
            "00000000", "00000000",
        ),
    ),
    "v1-done": (
        RpcRdmaHeader(xid=9, credits=16, mtype=MessageType.RDMA_DONE),
        words("00000009", "00000001", "00000010", "00000003",
              "00000000", "00000000", "00000000"),
    ),
    "v2-lane-words": (
        RpcRdmaHeader(xid=0x11, credits=3, mtype=MessageType.RDMA_MSG,
                      rpc_message=b"xyz!", lane=5, lane_seq=6, lane_credits=2),
        words(
            "00000011", "00000002", "00000003", "00000000",
            "00000005", "00000006", "00000002",
            "00000000", "00000000", "00000000",
            "00000004", "78797a21",
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(RDMA_HEADERS))
def test_rpc_rdma_header_bytes(name):
    header, wire = RDMA_HEADERS[name]
    assert header.encode() == wire
    out = RpcRdmaHeader.decode(wire)
    assert (out.xid, out.credits, out.mtype) == (header.xid, header.credits,
                                                 header.mtype)
    assert out.chunks == header.chunks
    assert out.lane == header.lane
    assert (out.lane_seq, out.lane_credits) == (header.lane_seq,
                                                header.lane_credits)
    if header.mtype is MessageType.RDMA_MSG:
        assert out.rpc_message == header.rpc_message


def test_rpc_call_bytes():
    call = RpcCall(prog=100003, vers=3, proc=6, header=b"\x01\x02\x03\x04\x05",
                   xid=0x12345678)
    wire = words(
        "12345678", "00000000", "00000002", "000186a3", "00000003", "00000006",
        "00000000", "00000000",  # AUTH_NONE credential
        "00000000", "00000000",  # AUTH_NONE verifier
        "0102030405000000",      # procedure header, padded
    )
    assert call.encode() == wire
    out = RpcCall.decode(wire)
    assert (out.xid, out.prog, out.vers, out.proc) == (0x12345678, 100003, 3, 6)
    assert out.header == b"\x01\x02\x03\x04\x05\x00\x00\x00"


def test_rpc_reply_bytes():
    reply = RpcReply(xid=0x12345678, header=b"\xaa\xbb\xcc\xdd")
    wire = words("12345678", "00000001", "00000000", "00000000", "00000000",
                 "00000000", "aabbccdd")
    assert reply.encode() == wire
    out = RpcReply.decode(wire)
    assert (out.xid, out.stat, out.header) == (0x12345678, 0, b"\xaa\xbb\xcc\xdd")


def test_fattr3_bytes():
    attrs = FsAttributes(fileid=0x0102030405060708, kind=FileKind.REGULAR,
                         size=0x1122334455, mode=0o644, nlink=1, uid=1000,
                         gid=100, atime=1.5, mtime=2.25, ctime=3.0)
    enc = XdrEncoder()
    encode_fattr(enc, attrs)
    wire = words(
        "00000001", "000001a4", "00000001", "000003e8", "00000064",
        "0000001122334455", "0000001122334455",  # size, used
        "0000000000000000", "0000000000000001",  # rdev, fsid
        "0102030405060708",                      # fileid
        "00000001", "1dcd6500", "00000002", "0ee6b280", "00000003", "00000000",
    )
    assert enc.take() == wire
    dec = XdrDecoder(wire)
    assert decode_fattr(dec) == attrs
    dec.done()


def test_file_handle_bytes():
    fh = FileHandle(fsid=1, fileid=0x0102030405060708, generation=7)
    enc = XdrEncoder()
    fh.encode(enc)
    wire = words("00000010", "00000001", "0102030405060708", "00000007")
    assert enc.take() == wire
    dec = XdrDecoder(wire)
    assert FileHandle.decode(dec) == fh
    dec.done()
