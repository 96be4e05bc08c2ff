"""Zero-copy payload descriptors for the simulated data plane.

The paper's whole argument is that a transport should move *data* with
descriptors (steering tags, chunk lists) and touch bytes only at the
edges.  The simulator takes the same stance about itself: NFS READ and
WRITE payloads travel as :class:`Payload` descriptors — a run-list of
either real ``bytes`` or *virtual tile runs* ``(pattern, offset,
length)`` whose byte ``i`` is ``pattern[(offset + i) % len(pattern)]``
— so marshalling, page-cache insertion and RDMA scatter/gather never
materialise or copy payload bytes on the host.  Simulated copy costs
(``cpu.copy``) are charged exactly as before from ``len(payload)``;
only the *host-side* byte shuffling disappears.

A ``Payload`` behaves like an immutable byte string for everything the
data plane needs: ``len()``, slicing (O(runs), zero-copy), ``+`` /
:meth:`concat` (O(runs)), equality against ``bytes`` or another
payload, and lazy :meth:`tobytes` for the few edges that genuinely
need octets (inline RPC headers, test assertions).

Invariant (the "slice law" the property tests pin down)::

    p[i:j].tobytes() == p.tobytes()[i:j]
"""

from __future__ import annotations

from typing import Iterable, Union

__all__ = ["Payload", "PayloadLike", "join_parts"]

PayloadLike = Union[bytes, bytearray, memoryview, "Payload"]

#: Merge adjacent real-byte runs only below this size: merging copies,
#: so it must stay cheap; above it, keeping two runs is the zero-copy
#: move.
_MERGE_BYTES = 512

#: Run tags. A run is ``(_BYTES, data)`` with ``data`` bytes-like, or
#: ``(_TILE, pattern, offset, length)`` with ``offset`` already reduced
#: modulo ``len(pattern)``.
_BYTES = 0
_TILE = 1

_ZERO_PATTERN = b"\x00"


def _tile_bytes(pattern: bytes, offset: int, length: int) -> bytes:
    """Materialise one tile run."""
    if pattern == _ZERO_PATTERN:
        return bytes(length)
    plen = len(pattern)
    offset %= plen
    reps = (offset + length + plen - 1) // plen
    return bytes((pattern * reps)[offset:offset + length])


class Payload:
    """Immutable byte-string stand-in backed by a run list."""

    __slots__ = ("_runs", "_length")

    def __init__(self, runs: Iterable[tuple] = ()):
        merged: list[tuple] = []
        length = 0
        for run in runs:
            if run[0] == _TILE:
                _, pattern, offset, nbytes = run
                if nbytes <= 0:
                    continue
                plen = len(pattern)
                offset %= plen
                if merged and merged[-1][0] == _TILE:
                    _, lp, loff, llen = merged[-1]
                    if lp == pattern and (loff + llen) % plen == offset:
                        merged[-1] = (_TILE, pattern, loff, llen + nbytes)
                        length += nbytes
                        continue
                merged.append((_TILE, pattern, offset, nbytes))
                length += nbytes
            else:
                data = run[1]
                n = len(data)
                if n == 0:
                    continue
                if (merged and merged[-1][0] == _BYTES
                        and len(merged[-1][1]) + n <= _MERGE_BYTES):
                    merged[-1] = (_BYTES, bytes(merged[-1][1]) + bytes(data))
                else:
                    merged.append((_BYTES, data))
                length += n
        self._runs = tuple(merged)
        self._length = length

    # ------------------------------------------------------------ build
    @classmethod
    def zeros(cls, length: int) -> "Payload":
        """A hole: ``length`` zero bytes, O(1) storage."""
        if length <= 0:
            return _EMPTY
        return cls(((_TILE, _ZERO_PATTERN, 0, length),))

    @classmethod
    def tile(cls, pattern: PayloadLike, length: int, offset: int = 0) -> "Payload":
        """``length`` bytes of ``pattern`` repeated, starting at ``offset``."""
        pattern = bytes(pattern)
        if not pattern:
            raise ValueError("tile pattern must be non-empty")
        if length <= 0:
            return _EMPTY
        if not any(pattern):
            return cls.zeros(length)
        return cls(((_TILE, pattern, offset, length),))

    @classmethod
    def wrap(cls, data: PayloadLike) -> "Payload":
        """View ``data`` as a Payload without copying it."""
        if isinstance(data, Payload):
            return data
        if isinstance(data, bytearray):
            data = bytes(data)      # freeze: payloads are immutable
        if len(data) == 0:
            return _EMPTY
        return cls(((_BYTES, data),))

    @classmethod
    def concat(cls, parts: Iterable[PayloadLike]) -> "Payload":
        runs: list[tuple] = []
        for part in parts:
            if isinstance(part, Payload):
                runs.extend(part._runs)
            elif len(part):
                if isinstance(part, bytearray):
                    part = bytes(part)
                runs.append((_BYTES, part))
        return cls(runs)

    # ------------------------------------------------------------ sizes
    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    @property
    def nruns(self) -> int:
        return len(self._runs)

    @property
    def resident_bytes(self) -> int:
        """Host bytes actually held (real runs only) — the zero-copy score."""
        return sum(len(r[1]) for r in self._runs if r[0] == _BYTES)

    def is_zeros(self) -> bool:
        """True iff every byte is zero (O(real bytes), no materialisation)."""
        for run in self._runs:
            if run[0] == _TILE:
                if any(run[1]):
                    return False
            elif any(run[1]):
                return False
        return True

    # ------------------------------------------------------------ views
    def slice(self, start: int, stop: int) -> "Payload":
        length = self._length
        if start < 0:
            start = 0
        elif start > length:
            start = length
        if stop > length:
            stop = length
        if stop < start:
            stop = start
        if start == 0 and stop == length:
            return self
        want = stop - start
        if want == 0:
            return _EMPTY
        runs: list[tuple] = []
        pos = 0
        for run in self._runs:
            tile = run[0] == _TILE
            rlen = run[3] if tile else len(run[1])
            if pos + rlen <= start:
                pos += rlen
                continue
            lo = start - pos if start > pos else 0
            hi = stop - pos if stop - pos < rlen else rlen
            if tile:
                pattern = run[1]
                runs.append((_TILE, pattern, (run[2] + lo) % len(pattern), hi - lo))
            else:
                runs.append((_BYTES, run[1][lo:hi]))
            pos += rlen
            if pos >= stop:
                break
        if len(runs) == 1:
            # One non-empty run with its tile offset reduced: what the
            # constructor would build, without its merge pass.
            view = _new_payload(Payload)
            view._runs = (runs[0],)
            view._length = want
            return view
        return Payload(runs)

    def __getitem__(self, item):
        if isinstance(item, slice):
            start, stop, step = item.indices(self._length)
            if step != 1:
                raise ValueError("Payload slices must be contiguous (step 1)")
            return self.slice(start, stop)
        if item < 0:
            item += self._length
        if not 0 <= item < self._length:
            raise IndexError("Payload index out of range")
        pos = 0
        for run in self._runs:
            rlen = run[3] if run[0] == _TILE else len(run[1])
            if item < pos + rlen:
                off = item - pos
                if run[0] == _TILE:
                    return run[1][(run[2] + off) % len(run[1])]
                return run[1][off]
            pos += rlen
        raise IndexError("Payload index out of range")   # pragma: no cover

    def __add__(self, other: PayloadLike) -> "Payload":
        return Payload.concat((self, other))

    def __radd__(self, other: PayloadLike) -> "Payload":
        return Payload.concat((other, self))

    # ------------------------------------------------------------ bytes
    def tobytes(self) -> bytes:
        """Materialise — the only O(length) operation; edges only."""
        if not self._runs:
            return b""
        if len(self._runs) == 1:
            run = self._runs[0]
            if run[0] == _BYTES:
                return bytes(run[1])
            return _tile_bytes(run[1], run[2], run[3])
        return b"".join(
            bytes(r[1]) if r[0] == _BYTES else _tile_bytes(r[1], r[2], r[3])
            for r in self._runs
        )

    __bytes__ = tobytes

    def key(self) -> tuple:
        """Hashable content token (for page interning)."""
        return tuple(
            (r[0], bytes(r[1])) if r[0] == _BYTES else (r[0], r[1], r[2], r[3])
            for r in self._runs
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, Payload):
            if self._length != other._length:
                return False
            if self._runs == other._runs:
                return True
            return self.tobytes() == other.tobytes()
        if isinstance(other, (bytes, bytearray, memoryview)):
            if self._length != len(other):
                return False
            return self.tobytes() == bytes(other)
        return NotImplemented

    __hash__ = None  # content hashing would defeat laziness; use .key()

    def __repr__(self) -> str:   # pragma: no cover - debugging aid
        return f"Payload(len={self._length}, runs={len(self._runs)})"


_EMPTY = Payload()
_new_payload = object.__new__


def join_parts(parts: list) -> PayloadLike:
    """Join byte-plane fragments: stays ``bytes`` when every part is
    real bytes (header paths), lifts to :class:`Payload` otherwise."""
    parts = [p for p in parts if len(p)]
    if not parts:
        return b""
    if len(parts) == 1:
        return parts[0]
    if all(isinstance(p, (bytes, bytearray, memoryview)) for p in parts):
        return b"".join(bytes(p) for p in parts)
    return Payload.concat(parts)
