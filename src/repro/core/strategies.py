"""Registration strategies (§4.3), pluggable into either transport design.

Every bulk transfer needs local (and sometimes remote) RDMA-addressable
memory.  How that memory gets registered is the paper's main
performance lever; each strategy below implements the same three-call
interface so the transports and experiments can swap them freely:

``acquire(nbytes, access)``
    Produce a transport-owned registered buffer (server bulk buffers,
    client bounce buffers).

``wrap(buffer, access, addr, length)``
    Register caller-owned memory in place — the client direct-I/O path
    that gives the Read-Write design its zero-copy property.

``release(region)``
    Undo whichever of the above produced ``region``.

Strategies: :class:`DynamicRegistration` (register/deregister every
operation — the baseline), :class:`FmrStrategy` (Mellanox fast memory
registration with fallback), :class:`AllPhysicalStrategy` (global
steering tag, no TPT work, but no scatter/gather — transfers fragment
at physical-run boundaries), and the server buffer-registration cache
in :mod:`repro.core.regcache`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Generator, Optional

from repro.ib.fabric import IBNode
from repro.ib.fmr import FMRExhausted, FMRPool, FMRTooLarge
from repro.ib.memory import AccessFlags, MemoryBuffer, MemoryRegion
from repro.ib.phys import GLOBAL_STAG
from repro.ib.verbs import Segment
from repro.sim import Counter

__all__ = [
    "AllPhysicalStrategy",
    "DynamicRegistration",
    "FmrStrategy",
    "RegisteredRegion",
    "RegistrationStrategy",
]


#: ``RegisteredRegion.handle`` of a region that a pool or cache handed
#: to dynamic registration; compared by identity.
FALLBACK = "fallback"


@dataclass(slots=True)
class RegisteredRegion:
    """A usable, RDMA-addressable window plus how to give it back."""

    buffer: MemoryBuffer
    segments: list[Segment]
    access: AccessFlags
    owned: bool                       # buffer allocated by the strategy
    mr: Optional[MemoryRegion] = None
    handle: object = None             # strategy-private bookkeeping

    @property
    def length(self) -> int:
        return sum(s.length for s in self.segments)

    @property
    def addr(self) -> int:
        return self.segments[0].addr

    def fill(self, payload: bytes) -> None:
        offset = self.segments[0].addr - self.buffer.addr
        self.buffer.fill(payload, offset)

    def peek(self, length: Optional[int] = None) -> bytes:
        offset = self.segments[0].addr - self.buffer.addr
        return self.buffer.peek(offset, self.length if length is None else length)


class RegistrationStrategy(abc.ABC):
    """Common interface; see module docstring for the three calls."""

    name: str = "abstract"

    def __init__(self, node: IBNode):
        self.node = node
        self.acquires = Counter(f"{node.name}.{self.name}.acquires")
        self.releases = Counter(f"{node.name}.{self.name}.releases")

    @abc.abstractmethod
    def acquire(self, nbytes: int, access: AccessFlags) -> Generator:
        """Process → RegisteredRegion over a freshly provided buffer."""

    @abc.abstractmethod
    def wrap(
        self,
        buffer: MemoryBuffer,
        access: AccessFlags,
        addr: Optional[int] = None,
        length: Optional[int] = None,
    ) -> Generator:
        """Process → RegisteredRegion over caller-owned memory."""

    @abc.abstractmethod
    def release(self, region: RegisteredRegion) -> Generator:
        """Process: return/deregister ``region``."""


class DynamicRegistration(RegistrationStrategy):
    """Register on every operation, deregister right after — the baseline
    whose cost Figs 7–9 quantify."""

    name = "register"

    def acquire(self, nbytes: int, access: AccessFlags) -> Generator:
        buffer = self.node.arena.alloc(nbytes)
        region = yield from self.wrap(buffer, access)
        region.owned = True
        return region

    def wrap(self, buffer, access, addr=None, length=None) -> Generator:
        mr = yield from self.node.hca.tpt.register(buffer, access, addr=addr, length=length)
        self.acquires.add()
        return RegisteredRegion(
            buffer=buffer,
            segments=[Segment(mr.stag, mr.addr, mr.length)],
            access=access,
            owned=False,
            mr=mr,
        )

    def release(self, region: RegisteredRegion) -> Generator:
        yield from self.node.hca.tpt.deregister(region.mr)
        if region.owned:
            self.node.arena.free(region.buffer)
        self.releases.add()


class FmrStrategy(RegistrationStrategy):
    """Fast Memory Registration with transparent fallback (§4.3).

    Mappings larger than the pool's fixed maximum — or arriving when the
    pool is empty — fall back to regular dynamic registration, exactly
    as the paper's implementation does.
    """

    name = "fmr"

    def __init__(self, node: IBNode, pool_size: int = 512, max_bytes: int = 1 << 20):
        super().__init__(node)
        self.pool = FMRPool(node.hca.tpt, pool_size=pool_size, max_bytes=max_bytes,
                            name=f"{node.name}.fmr")
        self._fallback = DynamicRegistration(node)
        #: graceful-degradation accounting: mappings that fell back to
        #: dynamic registration (pool exhausted or mapping too large).
        self.fallbacks = Counter(f"{node.name}.fmr.fallbacks")

    def acquire(self, nbytes: int, access: AccessFlags) -> Generator:
        buffer = self.node.arena.alloc(nbytes)
        region = yield from self.wrap(buffer, access)
        region.owned = True
        return region

    def wrap(self, buffer, access, addr=None, length=None) -> Generator:
        try:
            mr = yield from self.pool.map(buffer, access, addr=addr, length=length)
        except (FMRExhausted, FMRTooLarge):
            region = yield from self._fallback.wrap(buffer, access, addr=addr, length=length)
            region.handle = FALLBACK
            self.fallbacks.add()
            self.acquires.add()
            return region
        self.acquires.add()
        return RegisteredRegion(
            buffer=buffer,
            segments=[Segment(mr.stag, mr.addr, mr.length)],
            access=access,
            owned=False,
            mr=mr,
        )

    def release(self, region: RegisteredRegion) -> Generator:
        if region.handle is FALLBACK:
            owned, region.owned = region.owned, False
            yield from self._fallback.release(region)
            if owned:
                self.node.arena.free(region.buffer)
        else:
            yield from self.pool.unmap(region.mr)
            if region.owned:
                self.node.arena.free(region.buffer)
        self.releases.add()


class AllPhysicalStrategy(RegistrationStrategy):
    """Global-steering-tag mode: no TPT work at all (§4.3, Fig 9).

    The consumer still pins pages (CPU cost), but no registration
    transaction happens.  The price: segments must follow physical
    contiguity, so a logically single transfer fragments into several
    segments — hence several RDMA Reads on the NFS WRITE path.
    """

    name = "all-physical"

    def __init__(self, node: IBNode):
        super().__init__(node)
        if not node.hca.phys.enabled:
            raise ValueError(
                f"node {node.name!r} does not honour the global stag; "
                "construct it with allow_physical=True"
            )

    def acquire(self, nbytes: int, access: AccessFlags) -> Generator:
        buffer = self.node.arena.alloc(nbytes)
        region = yield from self.wrap(buffer, access)
        region.owned = True
        return region

    def wrap(self, buffer, access, addr=None, length=None) -> Generator:
        addr = buffer.addr if addr is None else addr
        length = buffer.length if length is None else length
        npages = (length + 4095) // 4096
        costs = self.node.hca.config.registration
        yield from self.node.cpu.consume(npages * costs.pin_cpu_per_page_us)
        buffer.pinned_pages += npages
        segments = [
            Segment(GLOBAL_STAG, run_addr, run_len)
            for run_addr, run_len in self.node.hca.phys.chunk_runs(addr, length)
        ]
        self.acquires.add()
        return RegisteredRegion(
            buffer=buffer, segments=segments, access=access, owned=False,
            handle=npages,
        )

    def release(self, region: RegisteredRegion) -> Generator:
        costs = self.node.hca.config.registration
        npages = region.handle or 0
        region.buffer.pinned_pages -= npages
        yield from self.node.cpu.consume(npages * costs.unpin_cpu_per_page_us)
        if region.owned:
            self.node.arena.free(region.buffer)
        self.releases.add()
