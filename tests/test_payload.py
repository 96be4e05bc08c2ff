"""Payload algebra: the zero-copy laws the data plane depends on.

Every law is checked against the materialised-bytes oracle: whatever a
``Payload`` operation claims, ``tobytes()`` of the result must equal the
same operation on real bytes.
"""

import pytest

from repro.payload import Payload, join_parts


PATTERN = bytes(range(1, 32))


def test_zeros_reads_as_zero_bytes():
    p = Payload.zeros(1000)
    assert len(p) == 1000
    assert p.tobytes() == bytes(1000)
    assert p.is_zeros()
    assert p.resident_bytes == 0


def test_tile_matches_repeated_pattern():
    p = Payload.tile(PATTERN, 100)
    want = (PATTERN * 5)[:100]
    assert p.tobytes() == want
    assert p.resident_bytes == 0
    assert not p.is_zeros()


def test_tile_offset_rotates_pattern():
    p = Payload.tile(PATTERN, 40, offset=7)
    blob = PATTERN * 3
    assert p.tobytes() == blob[7:47]


def test_wrap_real_bytes_round_trip():
    p = Payload.wrap(b"hello world")
    assert p.tobytes() == b"hello world"
    assert p.resident_bytes == 11


def test_slice_law_matches_bytes_slicing():
    p = Payload.concat([Payload.tile(PATTERN, 50), b"MIDDLE", Payload.zeros(20)])
    blob = p.tobytes()
    for start, stop in [(0, 76), (0, 10), (45, 60), (50, 56), (56, 76),
                        (10, 10), (75, 76), (3, 71)]:
        assert p[start:stop].tobytes() == blob[start:stop], (start, stop)


def test_negative_and_open_slices():
    p = Payload.tile(PATTERN, 64)
    blob = p.tobytes()
    assert p[:16].tobytes() == blob[:16]
    assert p[16:].tobytes() == blob[16:]
    assert p[-8:].tobytes() == blob[-8:]
    assert p[:-8].tobytes() == blob[:-8]


def test_int_indexing():
    p = Payload.concat([b"ab", Payload.zeros(2), Payload.tile(b"xy", 4)])
    blob = p.tobytes()
    for i in range(len(p)):
        assert p[i] == blob[i]


def test_concat_law_matches_byte_concat():
    parts = [b"head", Payload.zeros(10), Payload.tile(PATTERN, 33), b"tail"]
    p = Payload.concat(parts)
    want = b"".join(bytes(x) if isinstance(x, Payload) else x for x in parts)
    assert len(p) == len(want)
    assert p.tobytes() == want


def test_add_operator():
    p = Payload.tile(PATTERN, 10) + b"xyz"
    q = b"abc" + Payload.zeros(4)
    assert p.tobytes() == (PATTERN * 1)[:10] + b"xyz"
    assert q.tobytes() == b"abc" + bytes(4)


def test_adjacent_tile_runs_merge():
    a = Payload.tile(PATTERN, 31)     # exactly one pattern period
    b = Payload.tile(PATTERN, 62)
    joined = Payload.concat([a, b])
    assert joined.nruns == 1
    assert joined.tobytes() == (PATTERN * 3)


def test_slice_of_slice_composes():
    p = Payload.tile(PATTERN, 500)
    blob = p.tobytes()
    q = p[100:400]
    r = q[50:200]
    assert r.tobytes() == blob[150:300]


def test_equality_against_bytes_and_payloads():
    a = Payload.tile(PATTERN, 40)
    b = Payload.wrap((PATTERN * 2)[:40])
    assert a == b
    assert a == (PATTERN * 2)[:40]
    assert a != Payload.zeros(40)
    assert a != (PATTERN * 2)[:39]


def test_resident_bytes_counts_only_real_runs():
    p = Payload.concat([b"1234", Payload.zeros(1 << 20), b"56"])
    assert len(p) == 6 + (1 << 20)
    assert p.resident_bytes == 6


def test_wrap_and_join_parts():
    assert Payload.wrap(b"abc").tobytes() == b"abc"
    assert join_parts([b"a", b"b"]) == b"ab"        # all-real stays bytes
    mixed = join_parts([b"a", Payload.zeros(3)])
    assert isinstance(mixed, Payload)
    assert mixed.tobytes() == b"a\x00\x00\x00"
    assert join_parts([]) == b""


def test_large_virtual_payload_is_cheap():
    # A 1 GiB descriptor must not materialise a gigabyte anywhere.
    p = Payload.tile(PATTERN, 1 << 30)
    assert len(p) == 1 << 30
    assert p.resident_bytes == 0
    assert p[123_456_789] == (PATTERN * 4)[123_456_789 % len(PATTERN)]
    window = p[500_000_000:500_000_064]
    assert len(window.tobytes()) == 64


def test_out_of_range_index_raises():
    p = Payload.zeros(4)
    with pytest.raises(IndexError):
        p[4]


def test_key_interns_identical_descriptors():
    a = Payload.tile(PATTERN, 64)
    b = Payload.tile(PATTERN, 64)
    assert a.key() == b.key()
    assert a.key() != Payload.tile(PATTERN, 65).key()
