"""Node memory, memory regions and the Translation Protection Table.

Registration is the paper's central overhead (§4.3): pinning pages and
translating addresses costs CPU, and updating the HCA's TPT costs a
serialized I/O-bus transaction whose latency depends on region size.
Both costs are modeled here; the serialized TPT engine (one per HCA) is
what makes dynamic per-operation registration a throughput ceiling and
what the FMR / registration-cache / all-physical strategies attack.

Steering tags are real 32-bit capabilities: every remote access is
checked against the TPT, which is what gives the security evaluation
teeth (a malicious client guessing stags faces a genuine 2^32 space
minus what the transport exposed).
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Generator, Optional

from repro.errors import ReproError
from repro.payload import Payload, join_parts
from repro.sim import Counter, DeterministicRNG, Resource, Simulator

__all__ = [
    "AccessFlags",
    "MemoryArena",
    "MemoryBuffer",
    "MemoryRegion",
    "ProtectionError",
    "RegistrationCosts",
    "TranslationProtectionTable",
    "PAGE_SIZE",
]

PAGE_SIZE = 4096


class ProtectionError(ReproError):
    """A remote (or local) access failed TPT validation.

    ``cause`` classifies the refusal — ``"stag"`` (no live registration),
    ``"access"`` (rights mismatch) or ``"bounds"`` (range overrun) — so
    NAK consumers (misbehavior scoring, stats) can break faults down the
    way ``nfsstat`` breaks down error replies.
    """

    def __init__(self, reason: str, stag: int = 0, cause: str = "stag"):
        super().__init__(reason)
        self.reason = reason
        self.stag = stag
        self.cause = cause


class AccessFlags(enum.IntFlag):
    """MR access rights; remote flags are what 'exposes' a buffer."""

    LOCAL_WRITE = 1
    REMOTE_READ = 2
    REMOTE_WRITE = 4

    @property
    def remote(self) -> bool:
        return bool(int(self) & _REMOTE_RIGHTS)


#: the rights that expose a buffer, as a plain int: an ``IntFlag``
#: operation builds a new member on every call.
_REMOTE_RIGHTS = AccessFlags.REMOTE_READ.value | AccessFlags.REMOTE_WRITE.value


class MemoryBuffer:
    """A contiguous allocation in a node's arena (virtually addressed).

    Storage is zero-copy: the backing ``bytearray`` is allocated lazily
    (an untouched buffer is all zeros and costs nothing), and
    :class:`~repro.payload.Payload` descriptors written through
    :meth:`fill` are kept as *overlays* — ``(start, end, payload)``
    windows that mask the backing bytes — instead of being materialised.
    :meth:`peek` hands descriptors straight back, so a bulk transfer
    passes through registered memory without the host ever copying the
    simulated bytes.  Real-bytes fills and direct ``data`` access
    behave exactly as before.
    """

    __slots__ = ("arena", "addr", "length", "pinned_pages", "_data", "_overlays")

    def __init__(self, arena: "MemoryArena", addr: int, length: int):
        self.arena = arena
        self.addr = addr
        self.length = length
        self.pinned_pages = 0
        self._data: Optional[bytearray] = None
        self._overlays: list = []   # sorted disjoint (start, end, Payload)

    @property
    def npages(self) -> int:
        return pages_spanned(self.addr, self.length)

    @property
    def data(self) -> bytearray:
        """The backing bytes, with overlays folded in (compat path)."""
        return self._materialize()

    def _materialize(self) -> bytearray:
        if self._data is None:
            self._data = bytearray(self.length)
        if self._overlays:
            for start, end, payload in self._overlays:
                self._data[start:end] = payload.tobytes()
            self._overlays.clear()
        return self._data

    def _clip_overlays(self, start: int, end: int) -> None:
        """Remove overlay coverage of ``[start, end)``, keeping edges."""
        kept = []
        for s, e, p in self._overlays:
            if e <= start or s >= end:
                kept.append((s, e, p))
                continue
            if s < start:
                kept.append((s, start, p.slice(0, start - s)))
            if e > end:
                kept.append((end, e, p.slice(end - s, e - s)))
        self._overlays = kept

    def fill(self, payload, offset: int = 0) -> None:
        n = len(payload)
        end = offset + n
        if offset < 0 or end > self.length:
            raise ValueError(
                f"fill of {n} bytes at offset {offset} "
                f"overruns buffer of {self.length}"
            )
        if n == 0:
            return
        if self._overlays:
            self._clip_overlays(offset, end)
        if isinstance(payload, Payload):
            # Clipping left the overlays disjoint from [offset, end), so
            # no other overlay starts at ``offset``: tuples compare by
            # their start alone, never by payload.
            insort(self._overlays, (offset, end, payload))
            return
        data = self._data
        if data is None:
            data = self._data = bytearray(self.length)
        data[offset:end] = payload

    def peek(self, offset: int = 0, length: Optional[int] = None):
        if length is None:
            length = self.length - offset
        end = offset + length
        if offset < 0 or end > self.length:
            raise ValueError("peek out of bounds")
        if length == 0:
            return b""
        if self._overlays:
            hits = [o for o in self._overlays if o[0] < end and o[1] > offset]
            if hits:
                return self._peek_overlaid(offset, end, hits)
        if self._data is None:
            return bytes(length)
        return bytes(self._data[offset:end])

    def _peek_overlaid(self, offset: int, end: int, hits: list):
        """``peek`` of ``[offset, end)`` where the ``hits`` overlays cover
        some of it: one overlay slice, or the pieces joined."""
        s, e, p = hits[0]
        if len(hits) == 1 and s <= offset and e >= end:
            return p.slice(offset - s, end - s)
        parts = []
        pos = offset
        for s, e, p in hits:
            if s > pos:
                parts.append(bytes(self._data[pos:s]) if self._data is not None
                             else Payload.zeros(s - pos))
            lo = max(pos, s)
            hi = min(end, e)
            parts.append(p.slice(lo - s, hi - s))
            pos = hi
        if pos < end:
            parts.append(bytes(self._data[pos:end]) if self._data is not None
                         else Payload.zeros(end - pos))
        return join_parts(parts)


def pages_spanned(addr: int, length: int) -> int:
    """Number of pages a virtual range touches (page-alignment aware)."""
    if length <= 0:
        return 0
    first = addr // PAGE_SIZE
    last = (addr + length - 1) // PAGE_SIZE
    return last - first + 1


class MemoryArena:
    """Per-node virtual memory: a bump allocator over real bytearrays.

    Allocations are page-aligned so registration page counts match what a
    kernel would see.  ``resolve`` maps an arbitrary virtual range back to
    the buffer that contains it — this is the path the all-physical
    (global steering tag) mode uses, since it bypasses the TPT entirely.
    """

    def __init__(self, name: str = "mem", base: int = 0x1000_0000):
        self.name = name
        self._next = base
        self._starts: list[int] = []
        self._buffers: dict[int, MemoryBuffer] = {}
        self.allocated_bytes = 0

    def alloc(self, length: int) -> MemoryBuffer:
        if length <= 0:
            raise ValueError(f"allocation of {length} bytes")
        addr = self._next
        buf = MemoryBuffer(self, addr, length)
        self._buffers[addr] = buf
        insort(self._starts, addr)
        # Page-align the next allocation; keep a guard page between
        # buffers so stray accesses can't silently alias a neighbour.
        self._next += ((length + PAGE_SIZE - 1) // PAGE_SIZE + 1) * PAGE_SIZE
        self.allocated_bytes += length
        return buf

    def free(self, buf: MemoryBuffer) -> None:
        if self._buffers.pop(buf.addr, None) is None:
            raise ValueError("free of buffer not in this arena")
        del self._starts[bisect_left(self._starts, buf.addr)]
        self.allocated_bytes -= buf.length

    def resolve(self, addr: int, length: int) -> tuple[MemoryBuffer, int]:
        """Find the buffer containing ``[addr, addr+length)``; offset into it."""
        idx = bisect_right(self._starts, addr) - 1
        if idx >= 0:
            buf = self._buffers[self._starts[idx]]
            off = addr - buf.addr
            if 0 <= off and off + length <= buf.length:
                return buf, off
        raise ProtectionError(f"address range {addr:#x}+{length} maps no buffer")


@dataclass(frozen=True)
class RegistrationCosts:
    """Cost model for the registration machinery (DESIGN.md §4).

    *CPU* costs (pinning, address translation) run on the node's cores
    and parallelise; *TPT* costs occupy the HCA's single TPT engine and
    serialise, which is why they bound throughput under multi-threaded
    load.  FMR pre-allocates TPT entries so its map/unmap transactions
    are cheaper; unmapping an FMR batches the invalidate (Mellanox-style
    deferred flush), making it cheaper still.
    """

    pin_cpu_per_page_us: float = 0.25
    unpin_cpu_per_page_us: float = 0.10
    reg_tpt_base_us: float = 4.0
    reg_tpt_per_page_us: float = 7.0
    dereg_tpt_base_us: float = 3.0
    dereg_tpt_per_page_us: float = 3.8
    fmr_map_base_us: float = 3.0
    fmr_map_per_page_us: float = 5.5
    fmr_unmap_base_us: float = 2.0
    fmr_unmap_per_page_us: float = 2.8

    def reg_tpt_us(self, npages: int) -> float:
        return self.reg_tpt_base_us + npages * self.reg_tpt_per_page_us

    def dereg_tpt_us(self, npages: int) -> float:
        return self.dereg_tpt_base_us + npages * self.dereg_tpt_per_page_us

    def fmr_map_us(self, npages: int) -> float:
        return self.fmr_map_base_us + npages * self.fmr_map_per_page_us

    def fmr_unmap_us(self, npages: int) -> float:
        return self.fmr_unmap_base_us + npages * self.fmr_unmap_per_page_us


class MemoryRegion:
    """A registered window over a buffer, addressable by steering tag."""

    __slots__ = ("tpt", "stag", "buffer", "addr", "length", "access", "rights",
                 "valid", "is_fmr")

    def __init__(
        self,
        tpt: "TranslationProtectionTable",
        stag: int,
        buffer: MemoryBuffer,
        addr: int,
        length: int,
        access: AccessFlags,
        is_fmr: bool = False,
    ):
        self.tpt = tpt
        self.stag = stag
        self.buffer = buffer
        self.addr = addr
        self.length = length
        self.access = access
        #: ``access`` as a plain int for the per-WR check in ``lookup``.
        self.rights = int(access)
        self.valid = True
        self.is_fmr = is_fmr

    @property
    def npages(self) -> int:
        return pages_spanned(self.addr, self.length)

    def _offset(self, addr: int, length: int) -> int:
        if not self.valid:
            raise ProtectionError("access through invalidated MR", self.stag)
        if addr < self.addr or addr + length > self.addr + self.length:
            raise ProtectionError(
                f"range {addr:#x}+{length} outside MR [{self.addr:#x}, "
                f"{self.addr + self.length:#x})",
                self.stag,
            )
        return (addr - self.addr) + (self.addr - self.buffer.addr)

    def read(self, addr: int, length: int):
        off = self._offset(addr, length)
        return self.buffer.peek(off, length)

    def write(self, addr: int, payload) -> None:
        off = self._offset(addr, len(payload))
        self.buffer.fill(payload, off)

    def invalidate(self) -> None:
        """Synchronously drop the mapping (no cost; used by teardown paths)."""
        if self.valid:
            self.valid = False
            self.tpt._entries.pop(self.stag, None)
            san = self.tpt.sim.sanitizer
            if san is not None:
                san.on_invalidate(self.tpt, self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "valid" if self.valid else "stale"
        return f"<MR stag={self.stag:#010x} {self.addr:#x}+{self.length} {state}>"


class TranslationProtectionTable:
    """Per-HCA stag → MR map plus the serialized TPT update engine.

    ``register``/``deregister`` are *processes*: they charge pin/unpin
    CPU on the owning node and occupy the TPT engine for the modeled
    I/O-bus transaction.  ``lookup`` is the zero-cost data-path check
    performed by the HCA on every incoming RDMA operation.
    """

    def __init__(
        self,
        sim: Simulator,
        cpu,  # repro.osmodel.CPU
        costs: RegistrationCosts,
        rng: DeterministicRNG,
        name: str = "tpt",
    ):
        self.sim = sim
        self.cpu = cpu
        self.costs = costs
        self.rng = rng
        self.name = name
        self.engine = Resource(sim, capacity=1, name=f"{name}.engine")
        self._entries: dict[int, MemoryRegion] = {}
        self.registrations = Counter(f"{name}.registrations")
        self.deregistrations = Counter(f"{name}.deregistrations")
        self.protection_faults = Counter(f"{name}.faults")
        self.faults_by_cause: dict[str, int] = {
            "stag": 0, "access": 0, "bounds": 0}
        self.stags_exposed_ever: set[int] = set()

    # -- stag management --------------------------------------------------
    def _fresh_stag(self) -> int:
        while True:
            stag = self.rng.integers(1, 2**32)  # 0 is reserved
            if stag not in self._entries:
                return stag

    def allocate_stag(self) -> int:
        """Reserve a stag without binding it (FMR pools pre-allocate these)."""
        stag = self._fresh_stag()
        self._entries[stag] = None  # type: ignore[assignment]
        return stag

    # -- control path (costed processes) ----------------------------------
    def register(
        self,
        buffer: MemoryBuffer,
        access: AccessFlags,
        addr: Optional[int] = None,
        length: Optional[int] = None,
    ) -> Generator:
        """Process: register a window of ``buffer``; returns the MR."""
        addr = buffer.addr if addr is None else addr
        length = buffer.length if length is None else length
        if addr < buffer.addr or addr + length > buffer.addr + buffer.length:
            raise ValueError("registration window outside buffer")
        npages = pages_spanned(addr, length)
        span = self._reg_span("reg.register", npages=npages)
        try:
            # Pin + translate on the CPU (parallelisable across cores).
            yield from self.cpu.consume(npages * self.costs.pin_cpu_per_page_us)
            buffer.pinned_pages += npages
            # Serialized TPT update transaction on the HCA.
            yield from self.engine.hold(self.costs.reg_tpt_us(npages))
        finally:
            if span is not None:
                span.end()
        stag = self._fresh_stag()
        mr = MemoryRegion(self, stag, buffer, addr, length, access)
        self._entries[stag] = mr
        self.registrations.add()
        if access.remote:
            self.stags_exposed_ever.add(stag)
        san = self.sim.sanitizer
        if san is not None:
            san.on_register(self, mr)
        return mr

    def deregister(self, mr: MemoryRegion) -> Generator:
        """Process: invalidate TPT entries, then unpin pages."""
        if not mr.valid:
            return
        npages = mr.npages
        span = self._reg_span("reg.deregister", npages=npages)
        try:
            yield from self.engine.hold(self.costs.dereg_tpt_us(npages))
            mr.invalidate()
            mr.buffer.pinned_pages -= npages
            yield from self.cpu.consume(npages * self.costs.unpin_cpu_per_page_us)
        finally:
            if span is not None:
                span.end()
        self.deregistrations.add()

    def _reg_span(self, name: str, **args):
        """Registration-path span (cat ``reg``), or None when telemetry is off."""
        telemetry = self.sim.telemetry
        if telemetry is None or telemetry.tracer is None:
            return None
        tracer = telemetry.tracer
        pid = self.name.split(".")[0] if "." in self.name else self.name
        return tracer.begin(name, "reg", pid, "tpt",
                            parent=tracer.task_span(), **args)

    # -- data path (free; performed by HCA hardware) ----------------------
    def lookup(self, stag: int, addr: int, length: int, need: int) -> MemoryRegion:
        """The MR behind ``stag``, checked for bounds and for the access
        bits in ``need`` (``AccessFlags`` values as a plain int: an
        ``IntFlag`` operation builds a new member on every call)."""
        mr = self._entries.get(stag)
        if mr is None or not mr.valid:
            self.protection_faults.add()
            self.faults_by_cause["stag"] += 1
            raise ProtectionError(f"stag {stag:#010x} not in TPT", stag,
                                  cause="stag")
        if need & ~mr.rights:
            self.protection_faults.add()
            self.faults_by_cause["access"] += 1
            raise ProtectionError(
                f"stag {stag:#010x} lacks {AccessFlags(need)!r} "
                f"(has {mr.access!r})", stag,
                cause="access",
            )
        if addr < mr.addr or addr + length > mr.addr + mr.length:
            self.protection_faults.add()
            self.faults_by_cause["bounds"] += 1
            raise ProtectionError(
                f"stag {stag:#010x} range {addr:#x}+{length} out of bounds", stag,
                cause="bounds",
            )
        return mr

    # -- audit -------------------------------------------------------------
    def remotely_exposed(self) -> list[MemoryRegion]:
        """MRs a remote peer could currently name (the attack surface)."""
        return [
            mr
            for mr in self._entries.values()
            if mr is not None and mr.valid and mr.access.remote
        ]

    @property
    def live_entries(self) -> int:
        return sum(1 for mr in self._entries.values() if mr is not None and mr.valid)
