"""XDR (RFC 4506) encoding — the wire language of ONC RPC and NFS.

Only the subset NFS v3 and RPC/RDMA need: 32/64-bit (un)signed ints,
booleans, variable-length opaques/strings (padded to 4-byte alignment)
and counted arrays.  Everything the stack puts on the simulated wire
round-trips through these real bytes, so header sizes — and therefore
inline-threshold decisions in the RPC/RDMA transport — are genuine.

A fixed run of scalars (a fattr3, a chunk segment, the RPC/RDMA fixed
words) goes through :meth:`XdrEncoder.pack` / :meth:`XdrDecoder.unpack`
with a module-level big-endian ``struct.Struct`` layout of ``I``/``i``/
``Q``/``q`` words: one C-level call per run instead of one Python call
per field.  The ``wire`` static pack pairs every ``pack(L, ...)`` with an
``unpack(L)`` and checks the value count against the layout.
"""

from __future__ import annotations

import struct
from typing import Callable, TypeVar

__all__ = ["XdrDecoder", "XdrEncoder", "XdrError"]

T = TypeVar("T")

_U32 = struct.Struct(">I")
_I32 = struct.Struct(">i")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")

_FALSE = _U32.pack(0)
_TRUE = _U32.pack(1)


class XdrError(ValueError):
    """Malformed XDR data or out-of-range value."""


#: Shared padding table: XDR alignment needs at most 3 zero bytes, so
#: index by ``length & 3`` instead of allocating ``b"\x00" * pad`` on
#: every opaque (a measurable per-call allocation in the seed profile).
_PADDING = (b"", b"\x00\x00\x00", b"\x00\x00", b"\x00")


def _bad_value(kind: str, value) -> XdrError:
    return XdrError(f"{kind} out of range or not an integer: {value!r}")


class XdrEncoder:
    """Append-only XDR byte builder over one ``bytearray``.

    Any value ``struct`` refuses (out of range, not an integer, None)
    raises :class:`XdrError`.
    """

    __slots__ = ("_buf",)

    def __init__(self):
        self._buf = bytearray()

    # -- scalars -----------------------------------------------------------
    def u32(self, value: int) -> "XdrEncoder":
        try:
            self._buf += _U32.pack(value)
        except struct.error:
            raise _bad_value("u32", value) from None
        return self

    def i32(self, value: int) -> "XdrEncoder":
        try:
            self._buf += _I32.pack(value)
        except struct.error:
            raise _bad_value("i32", value) from None
        return self

    def u64(self, value: int) -> "XdrEncoder":
        try:
            self._buf += _U64.pack(value)
        except struct.error:
            raise _bad_value("u64", value) from None
        return self

    def i64(self, value: int) -> "XdrEncoder":
        try:
            self._buf += _I64.pack(value)
        except struct.error:
            raise _bad_value("i64", value) from None
        return self

    def boolean(self, value: bool) -> "XdrEncoder":
        self._buf += _TRUE if value else _FALSE
        return self

    def pack(self, layout: struct.Struct, *values) -> "XdrEncoder":
        """Append a fixed run of scalars laid out by ``layout``."""
        try:
            self._buf += layout.pack(*values)
        except struct.error as exc:
            raise XdrError(f"layout {layout.format!r}: {exc}") from None
        return self

    # -- composites -----------------------------------------------------------
    def opaque(self, data: bytes) -> "XdrEncoder":
        """Variable-length opaque: length prefix + data + pad."""
        n = len(data)
        buf = self._buf
        try:
            buf += _U32.pack(n)
        except struct.error:
            raise _bad_value("opaque length", n) from None
        buf += data if isinstance(data, bytes) else bytes(data)
        buf += _PADDING[n & 3]
        return self

    def fixed_opaque(self, data: bytes, size: int) -> "XdrEncoder":
        if len(data) != size:
            raise XdrError(f"fixed opaque of {len(data)} bytes, expected {size}")
        buf = self._buf
        buf += data if isinstance(data, bytes) else bytes(data)
        buf += _PADDING[size & 3]
        return self

    def string(self, text: str) -> "XdrEncoder":
        return self.opaque(text.encode("utf-8"))

    def array(self, items, encode_item: Callable[["XdrEncoder", T], None]) -> "XdrEncoder":
        """Counted array: u32 length then each element."""
        self._buf += _U32.pack(len(items))
        for item in items:
            encode_item(self, item)
        return self

    def optional(self, value, encode_value: Callable[["XdrEncoder", T], None]) -> "XdrEncoder":
        """XDR optional-data (``*`` in XDR language): bool then value."""
        if value is None:
            return self.boolean(False)
        self.boolean(True)
        encode_value(self, value)
        return self

    def raw(self, data: bytes) -> "XdrEncoder":
        """Splice pre-encoded XDR (must already be 4-byte aligned)."""
        if len(data) % 4:
            raise XdrError("raw splice not 4-byte aligned")
        self._buf += data
        return self

    # -- output -----------------------------------------------------------
    def take(self) -> bytes:
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


class XdrDecoder:
    """Cursor-based XDR reader with strict bounds checking."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes):
        self._data = bytes(data)
        self._pos = 0

    def _truncated(self, n: int) -> XdrError:
        return XdrError(
            f"truncated XDR: wanted {n} bytes at offset {self._pos}, "
            f"have {len(self._data) - self._pos}"
        )

    # -- scalars -----------------------------------------------------------
    def u32(self) -> int:
        pos = self._pos
        try:
            (value,) = _U32.unpack_from(self._data, pos)
        except struct.error:
            raise self._truncated(4) from None
        self._pos = pos + 4
        return value

    def i32(self) -> int:
        pos = self._pos
        try:
            (value,) = _I32.unpack_from(self._data, pos)
        except struct.error:
            raise self._truncated(4) from None
        self._pos = pos + 4
        return value

    def u64(self) -> int:
        pos = self._pos
        try:
            (value,) = _U64.unpack_from(self._data, pos)
        except struct.error:
            raise self._truncated(8) from None
        self._pos = pos + 8
        return value

    def i64(self) -> int:
        pos = self._pos
        try:
            (value,) = _I64.unpack_from(self._data, pos)
        except struct.error:
            raise self._truncated(8) from None
        self._pos = pos + 8
        return value

    def boolean(self) -> bool:
        value = self.u32()
        if value not in (0, 1):
            raise XdrError(f"boolean encoded as {value}")
        return bool(value)

    def unpack(self, layout: struct.Struct) -> tuple:
        """Read a fixed run of scalars laid out by ``layout``."""
        pos = self._pos
        try:
            values = layout.unpack_from(self._data, pos)
        except struct.error:
            raise self._truncated(layout.size) from None
        self._pos = pos + layout.size
        return values

    # -- composites -----------------------------------------------------------
    def opaque(self) -> bytes:
        pos = self._pos
        try:
            (size,) = _U32.unpack_from(self._data, pos)
        except struct.error:
            raise self._truncated(4) from None
        self._pos = pos + 4
        return self.fixed_opaque(size)

    def fixed_opaque(self, size: int) -> bytes:
        start = self._pos
        end = start + size
        stop = end + len(_PADDING[size & 3])
        if stop > len(self._data):
            raise self._truncated(stop - start)
        self._pos = stop
        return self._data[start:end]

    def string(self) -> str:
        return self.opaque().decode("utf-8")

    def array(self, decode_item: Callable[["XdrDecoder"], T], max_items: int = 1 << 20) -> list[T]:
        n = self.u32()
        if n > max_items:
            raise XdrError(f"array of {n} items exceeds cap {max_items}")
        if not n:
            return []
        return [decode_item(self) for _ in range(n)]

    def optional(self, decode_value: Callable[["XdrDecoder"], T]):
        return decode_value(self) if self.boolean() else None

    def remainder(self) -> bytes:
        out = self._data[self._pos :]
        self._pos = len(self._data)
        return out

    @property
    def consumed(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def done(self) -> None:
        """Assert the message was fully consumed (catches codec drift)."""
        if self.remaining:
            raise XdrError(f"{self.remaining} trailing bytes after decode")
