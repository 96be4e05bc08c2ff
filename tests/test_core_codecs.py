"""Tests for RPC/RDMA header and chunk-list codecs."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core.chunks import ChunkList, ReadChunk, WriteChunk
from repro.core.header import MessageType, RpcRdmaHeader
from repro.ib.verbs import Segment
from repro.rpc.xdr import XdrDecoder, XdrEncoder, XdrError


def seg(stag=0x1234, addr=0x10000, length=4096):
    return Segment(stag, addr, length)


def test_empty_chunk_list_roundtrip():
    enc = XdrEncoder()
    ChunkList().encode(enc)
    out = ChunkList.decode(XdrDecoder(enc.take()))
    assert out.empty


def test_full_chunk_list_roundtrip():
    chunks = ChunkList(
        read_chunks=[ReadChunk(0, seg(1, 100, 10)), ReadChunk(1, seg(2, 200, 20))],
        write_chunks=[WriteChunk([seg(3, 300, 30), seg(4, 400, 40)])],
        reply_chunk=WriteChunk([seg(5, 500, 50)]),
    )
    enc = XdrEncoder()
    chunks.encode(enc)
    out = ChunkList.decode(XdrDecoder(enc.take()))
    assert out.read_chunks == chunks.read_chunks
    assert out.write_chunks == chunks.write_chunks
    assert out.reply_chunk == chunks.reply_chunk


def test_chunk_list_position_filter():
    chunks = ChunkList(read_chunks=[ReadChunk(0, seg(1)), ReadChunk(1, seg(2)),
                                    ReadChunk(1, seg(3))])
    assert len(chunks.read_chunks_at(0)) == 1
    assert len(chunks.read_chunks_at(1)) == 2
    assert chunks.read_length() == 3 * 4096


def test_write_chunk_requires_segments():
    with pytest.raises(ValueError):
        WriteChunk([])


def test_write_chunk_capacity():
    assert WriteChunk([seg(length=10), seg(length=20)]).capacity == 30


def test_write_chunk_is_an_immutable_tuple_of_its_segments():
    chunk = WriteChunk([seg(1), seg(2)])
    assert chunk.segments == (seg(1), seg(2)) and chunk == WriteChunk((seg(1), seg(2)))
    with pytest.raises(AttributeError):
        chunk.segments = ()
    for clone in (copy.deepcopy(chunk), pickle.loads(pickle.dumps(chunk))):
        assert type(clone) is WriteChunk and clone == chunk


def test_header_msg_roundtrip():
    header = RpcRdmaHeader(
        xid=0xABCD, credits=32, mtype=MessageType.RDMA_MSG,
        rpc_message=b"rpc-call-here",
    )
    out = RpcRdmaHeader.decode(header.encode())
    assert out.xid == 0xABCD
    assert out.credits == 32
    assert out.mtype is MessageType.RDMA_MSG
    assert out.rpc_message == b"rpc-call-here"


def test_header_nomsg_carries_no_body():
    header = RpcRdmaHeader(
        xid=1, credits=8, mtype=MessageType.RDMA_NOMSG,
        chunks=ChunkList(read_chunks=[ReadChunk(0, seg())]),
        rpc_message=b"ignored-for-nomsg",
    )
    out = RpcRdmaHeader.decode(header.encode())
    assert out.mtype is MessageType.RDMA_NOMSG
    assert out.rpc_message == b""
    assert out.chunks.read_chunks == [ReadChunk(0, seg())]


def test_header_done_roundtrip():
    header = RpcRdmaHeader(xid=99, credits=16, mtype=MessageType.RDMA_DONE)
    out = RpcRdmaHeader.decode(header.encode())
    assert out.mtype is MessageType.RDMA_DONE
    assert out.xid == 99


def test_header_bad_version_rejected():
    raw = bytearray(RpcRdmaHeader(xid=1, credits=1, mtype=MessageType.RDMA_MSG).encode())
    raw[4:8] = (99).to_bytes(4, "big")  # clobber the version field
    with pytest.raises(XdrError):
        RpcRdmaHeader.decode(bytes(raw))


def test_header_bad_mtype_rejected():
    raw = bytearray(RpcRdmaHeader(xid=1, credits=1, mtype=MessageType.RDMA_MSG).encode())
    raw[12:16] = (77).to_bytes(4, "big")
    with pytest.raises(XdrError):
        RpcRdmaHeader.decode(bytes(raw))


def test_header_wire_size_counts_chunks():
    small = RpcRdmaHeader(xid=1, credits=1, mtype=MessageType.RDMA_MSG).encode()
    with_chunks = RpcRdmaHeader(
        xid=1, credits=1, mtype=MessageType.RDMA_MSG,
        chunks=ChunkList(read_chunks=[ReadChunk(0, seg())] * 4),
    ).encode()
    assert len(with_chunks) == len(small) + 4 * 20
    assert not hasattr(RpcRdmaHeader, "wire_size")


segments_st = st.builds(
    Segment,
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**31),
)


@given(
    st.lists(st.tuples(st.integers(0, 2**32 - 1), segments_st), max_size=8),
    st.lists(st.lists(segments_st, min_size=1, max_size=4), max_size=4),
    st.one_of(st.none(), st.lists(segments_st, min_size=1, max_size=4)),
    st.binary(max_size=512),
)
def test_header_roundtrip_property(reads, writes, reply, body):
    header = RpcRdmaHeader(
        xid=7, credits=3, mtype=MessageType.RDMA_MSG,
        chunks=ChunkList(
            read_chunks=[ReadChunk(p, s) for p, s in reads],
            write_chunks=[WriteChunk(w) for w in writes],
            reply_chunk=WriteChunk(reply) if reply else None,
        ),
        rpc_message=body,
    )
    out = RpcRdmaHeader.decode(header.encode())
    assert out.chunks.read_chunks == header.chunks.read_chunks
    assert out.chunks.write_chunks == header.chunks.write_chunks
    assert out.chunks.reply_chunk == header.chunks.reply_chunk
    assert out.rpc_message == body
