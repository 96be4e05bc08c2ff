"""SparseFile semantics: page-granular holes, growth and truncation.

The oracle is a plain bytearray driven through the same operations —
the sparse store must be observationally identical while keeping
``resident_bytes`` proportional to data actually written.
"""

import pytest

from repro.fs.sparse import SparseFile
from repro.payload import Payload


def _bytes(data) -> bytes:
    return data.tobytes() if isinstance(data, Payload) else bytes(data)


def test_empty_file_reads_nothing():
    f = SparseFile(page_bytes=64)
    assert len(f) == 0
    assert _bytes(f.read(0, 100)) == b""
    assert f.resident_bytes == 0


def test_holes_read_as_zeros():
    f = SparseFile(page_bytes=64)
    f.write(1000, b"DATA")
    assert len(f) == 1004
    got = _bytes(f.read(0, 1004))
    assert got == bytes(1000) + b"DATA"
    # Only the one touched page holds real bytes.
    assert f.resident_bytes <= 64


def test_write_past_eof_grows_with_implicit_zero_gap():
    f = SparseFile(page_bytes=32)
    f.write(0, b"start")
    f.write(100, b"end")
    assert len(f) == 103
    blob = _bytes(f.read(0, 103))
    assert blob[:5] == b"start"
    assert blob[5:100] == bytes(95)
    assert blob[100:] == b"end"


def test_overwrite_within_page():
    f = SparseFile(page_bytes=16)
    f.write(0, b"A" * 16)
    f.write(4, b"BB")
    assert _bytes(f.read(0, 16)) == b"AAAABBAAAAAAAAAA"


def test_write_spanning_pages_matches_oracle():
    f = SparseFile(page_bytes=16)
    oracle = bytearray(200)
    for offset, chunk in [(3, b"x" * 40), (90, b"y" * 50), (10, b"z" * 7),
                          (150, b"w" * 50), (0, b"Q")]:
        f.write(offset, chunk)
        end = offset + len(chunk)
        if end > len(oracle):
            oracle.extend(bytes(end - len(oracle)))
        oracle[offset:end] = chunk
    assert len(f) == len(oracle)
    assert _bytes(f.read(0, len(f))) == bytes(oracle)


def test_read_clamps_to_size():
    f = SparseFile(page_bytes=16)
    f.write(0, b"abc")
    assert _bytes(f.read(1, 100)) == b"bc"
    assert _bytes(f.read(3, 10)) == b""
    assert _bytes(f.read(50, 10)) == b""


def test_truncate_up_is_zero_fill_without_residency():
    f = SparseFile(page_bytes=64)
    f.write(0, b"data")
    before = f.resident_bytes
    f.truncate(1 << 20)
    assert len(f) == 1 << 20
    assert f.resident_bytes == before      # growth allocates nothing
    assert _bytes(f.read(1 << 19, 8)) == bytes(8)


def test_truncate_down_drops_pages_and_clips_boundary():
    f = SparseFile(page_bytes=16)
    f.write(0, b"A" * 64)
    assert f.resident_pages == 4
    f.truncate(20)
    assert len(f) == 20
    assert f.resident_pages <= 2
    assert _bytes(f.read(0, 20)) == b"A" * 20
    # Growing back re-reads zeros, not the clipped residue.
    f.truncate(64)
    assert _bytes(f.read(0, 64)) == b"A" * 20 + bytes(44)


def test_truncate_to_zero_clears_everything():
    f = SparseFile(page_bytes=16)
    f.write(0, b"B" * 100)
    f.truncate(0)
    assert len(f) == 0
    assert f.resident_bytes == 0


def test_zero_writes_do_not_take_residency():
    f = SparseFile(page_bytes=64)
    f.write(0, Payload.zeros(64 * 100))
    assert len(f) == 6400
    assert f.resident_bytes == 0
    assert _bytes(f.read(0, 6400)) == bytes(6400)


def test_payload_tile_write_stays_virtual():
    pattern = bytes(range(1, 17))
    f = SparseFile(page_bytes=64)
    f.write(0, Payload.tile(pattern, 640))
    assert f.resident_bytes == 0           # descriptors, not bytes
    assert _bytes(f.read(0, 640)) == pattern * 40


def test_identical_pages_share_one_object_counted_once():
    page = bytes(range(1, 65))
    f = SparseFile(page_bytes=64)
    for i in range(8):
        f.write(i * 64, bytearray(page))        # eight distinct objects in
    assert f.resident_pages == 8
    assert len({id(p) for p in f._pages.values()}) == 1
    assert f.resident_bytes == 64
    assert _bytes(f.read(0, 512)) == page * 8


def test_sparse_giant_file_is_cheap():
    f = SparseFile()
    f.write(10 << 30, b"tail")            # 10 GiB offset
    assert len(f) == (10 << 30) + 4
    assert f.resident_bytes <= f.page_bytes
    assert _bytes(f.read((10 << 30) - 2, 6)) == bytes(2) + b"tail"


def test_clear():
    f = SparseFile(page_bytes=16)
    f.write(0, b"data")
    f.clear()
    assert len(f) == 0
    assert f.resident_bytes == 0


def test_negative_offset_rejected():
    f = SparseFile()
    with pytest.raises(ValueError):
        f.write(-1, b"x")
