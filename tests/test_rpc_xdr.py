"""Unit + property tests for the XDR codec."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.nfs.fh import FileHandle
from repro.rpc.xdr import XdrDecoder, XdrEncoder, XdrError


def roundtrip(build, read):
    enc = XdrEncoder()
    build(enc)
    dec = XdrDecoder(enc.take())
    out = read(dec)
    dec.done()
    return out


def test_u32_roundtrip_and_bounds():
    assert roundtrip(lambda e: e.u32(0xDEADBEEF), lambda d: d.u32()) == 0xDEADBEEF
    with pytest.raises(XdrError):
        XdrEncoder().u32(-1)
    with pytest.raises(XdrError):
        XdrEncoder().u32(2**32)


def test_i32_roundtrip_and_bounds():
    assert roundtrip(lambda e: e.i32(-42), lambda d: d.i32()) == -42
    with pytest.raises(XdrError):
        XdrEncoder().i32(2**31)


def test_u64_i64_roundtrip():
    assert roundtrip(lambda e: e.u64(2**63 + 5), lambda d: d.u64()) == 2**63 + 5
    assert roundtrip(lambda e: e.i64(-(2**62)), lambda d: d.i64()) == -(2**62)


def test_boolean_roundtrip_and_strictness():
    assert roundtrip(lambda e: e.boolean(True), lambda d: d.boolean()) is True
    dec = XdrDecoder(XdrEncoder().u32(7).take())
    with pytest.raises(XdrError):
        dec.boolean()


def test_opaque_padding_to_four_bytes():
    enc = XdrEncoder()
    enc.opaque(b"abcde")  # 5 bytes -> 4 len + 5 data + 3 pad
    raw = enc.take()
    assert len(raw) == 12
    dec = XdrDecoder(raw)
    assert dec.opaque() == b"abcde"
    dec.done()


def test_fixed_opaque():
    out = roundtrip(lambda e: e.fixed_opaque(b"abc", 3), lambda d: d.fixed_opaque(3))
    assert out == b"abc"
    with pytest.raises(XdrError):
        XdrEncoder().fixed_opaque(b"ab", 3)


def test_string_unicode_roundtrip():
    assert roundtrip(lambda e: e.string("fichier-éü"), lambda d: d.string()) == "fichier-éü"


def test_array_roundtrip():
    items = [3, 1, 4, 1, 5]
    out = roundtrip(
        lambda e: e.array(items, lambda enc, i: enc.u32(i)),
        lambda d: d.array(lambda dec: dec.u32()),
    )
    assert out == items


def test_array_cap_enforced():
    raw = XdrEncoder().u32(10**9).take()
    with pytest.raises(XdrError):
        XdrDecoder(raw).array(lambda d: d.u32(), max_items=100)


def test_optional_roundtrip():
    assert roundtrip(
        lambda e: e.optional(7, lambda enc, v: enc.u32(v)),
        lambda d: d.optional(lambda dec: dec.u32()),
    ) == 7
    assert roundtrip(
        lambda e: e.optional(None, lambda enc, v: enc.u32(v)),
        lambda d: d.optional(lambda dec: dec.u32()),
    ) is None


@pytest.mark.parametrize("encode", [
    lambda: XdrEncoder().u32(1.5),
    lambda: XdrEncoder().u64(2.5),
    lambda: XdrEncoder().u32(None),
    lambda: XdrEncoder().i32("7"),
    lambda: XdrEncoder().i64(2**63),
    lambda: FileHandle(1, 2**64).encode(XdrEncoder()),
    lambda: FileHandle(-1, 2).encode(XdrEncoder()),
], ids=["u32-float", "u64-float", "u32-none", "i32-str", "i64-overflow",
        "fh-fileid-overflow", "fh-negative-fsid"])
def test_bad_values_raise_xdr_error(encode):
    with pytest.raises(XdrError):
        encode()


def test_pack_unpack_fixed_layout():
    layout = struct.Struct(">IQi")
    raw = XdrEncoder().pack(layout, 7, 2**40, -3).u32(9).take()
    assert len(raw) == 20
    dec = XdrDecoder(raw)
    assert dec.unpack(layout) == (7, 2**40, -3)
    assert dec.u32() == 9
    dec.done()
    with pytest.raises(XdrError):
        XdrEncoder().pack(layout, 7, 2**40)  # one value short
    with pytest.raises(XdrError):
        XdrEncoder().pack(layout, -1, 0, 0)
    with pytest.raises(XdrError):
        XdrDecoder(raw[:12]).unpack(layout)


def test_truncated_decode_raises():
    with pytest.raises(XdrError):
        XdrDecoder(b"\x00\x00").u32()


def test_trailing_bytes_detected():
    dec = XdrDecoder(XdrEncoder().u32(1).u32(2).take())
    dec.u32()
    with pytest.raises(XdrError):
        dec.done()


def test_raw_splice_alignment():
    with pytest.raises(XdrError):
        XdrEncoder().raw(b"abc")
    enc = XdrEncoder().raw(b"abcd")
    assert enc.take() == b"abcd"


# ---------------------------------------------------------------- properties
@given(st.binary(max_size=4096))
def test_opaque_roundtrip_property(data):
    raw = XdrEncoder().opaque(data).take()
    assert len(raw) % 4 == 0
    assert XdrDecoder(raw).opaque() == data


@given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=64))
def test_u32_array_roundtrip_property(values):
    raw = XdrEncoder().array(values, lambda e, v: e.u32(v)).take()
    assert XdrDecoder(raw).array(lambda d: d.u32()) == values


@given(
    st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1), st.binary(max_size=64)),
        max_size=16,
    )
)
def test_mixed_sequence_roundtrip_property(records):
    enc = XdrEncoder()
    for a, b, c in records:
        enc.u32(a).u64(b).opaque(c)
    dec = XdrDecoder(enc.take())
    for a, b, c in records:
        assert dec.u32() == a
        assert dec.u64() == b
        assert dec.opaque() == c
    dec.done()
