"""Fast Memory Registration pools (§4.3, "Fast Memory Registration").

FMR pre-allocates TPT entries (and their steering tags) at pool-creation
time; mapping a buffer onto a pool entry still pins pages and installs a
translation, but skips entry allocation and uses a cheaper, batched TPT
transaction — the Mellanox FMR optimisation.  Limitations modeled as in
the paper: privileged (kernel) consumers only, a fixed maximum mapping
size set at initialisation, and a finite pool; the RPC/RDMA transport
falls back to regular registration when a request doesn't fit.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

from repro.sim import Counter
from repro.ib.memory import (
    AccessFlags,
    MemoryBuffer,
    MemoryRegion,
    TranslationProtectionTable,
    pages_spanned,
)

__all__ = ["FMRPool", "FMRRegion", "FMRExhausted", "FMRTooLarge"]


class FMRExhausted(Exception):
    """All pool entries are mapped; caller must fall back or wait."""


class FMRTooLarge(Exception):
    """Mapping exceeds the pool's fixed maximum region size."""


class FMRRegion(MemoryRegion):
    """An MR whose stag/TPT slot came from an FMR pool."""

    __slots__ = ("pool",)

    def __init__(self, pool: "FMRPool", stag: int, buffer, addr, length, access):
        super().__init__(pool.tpt, stag, buffer, addr, length, access, is_fmr=True)
        self.pool = pool


class FMRPool:
    """A fixed set of pre-allocated TPT entries for fast map/unmap."""

    def __init__(
        self,
        tpt: TranslationProtectionTable,
        pool_size: int = 512,
        max_bytes: int = 1 << 20,
        name: str = "fmr",
    ):
        if pool_size < 1:
            raise ValueError("FMR pool needs at least one entry")
        if max_bytes < 1:
            raise ValueError("FMR max mapping size must be positive")
        self.tpt = tpt
        self.max_bytes = max_bytes
        self.name = name
        # Entry allocation happens once, here, at initialisation: this is
        # the whole point of FMR (no TPT-entry allocation per mapping).
        self._free_stags: deque[int] = deque(tpt.allocate_stag() for _ in range(pool_size))
        self.pool_size = pool_size
        self.maps = Counter(f"{name}.maps")
        self.unmaps = Counter(f"{name}.unmaps")
        self.fallbacks = Counter(f"{name}.fallbacks")

    @property
    def available(self) -> int:
        return len(self._free_stags)

    def map(
        self,
        buffer: MemoryBuffer,
        access: AccessFlags,
        addr: Optional[int] = None,
        length: Optional[int] = None,
    ) -> Generator:
        """Process: bind a buffer window to a pre-allocated entry."""
        addr = buffer.addr if addr is None else addr
        length = buffer.length if length is None else length
        if length > self.max_bytes:
            self.fallbacks.add()
            raise FMRTooLarge(f"{length} bytes > FMR max {self.max_bytes}")
        if not self._free_stags:
            raise FMRExhausted(f"pool {self.name!r} has no free entries")
        # Reserve the entry *before* yielding: concurrent mappers must
        # not observe the same free stag (classic check-then-act hazard).
        stag = self._free_stags.popleft()
        npages = pages_spanned(addr, length)
        span = self.tpt._reg_span("reg.fmr_map", npages=npages)
        try:
            # Pinning and translation are unchanged relative to regular
            # registration; only the TPT transaction is cheaper.
            yield from self.tpt.cpu.consume(npages * self.tpt.costs.pin_cpu_per_page_us)
            buffer.pinned_pages += npages
            yield from self.tpt.engine.hold(self.tpt.costs.fmr_map_us(npages))
        except BaseException:
            self._free_stags.append(stag)
            raise
        finally:
            if span is not None:
                span.end()
        mr = FMRRegion(self, stag, buffer, addr, length, access)
        self.tpt._entries[stag] = mr
        self.tpt.registrations.add()
        if access.remote:
            self.tpt.stags_exposed_ever.add(stag)
        self.maps.add()
        san = self.tpt.sim.sanitizer
        if san is not None:
            san.on_register(self.tpt, mr)
        return mr

    def unmap(self, mr: FMRRegion) -> Generator:
        """Process: release the mapping; the stag returns to the pool."""
        if mr.pool is not self:
            raise ValueError("unmap of FMR from a different pool")
        if not mr.valid:
            return
        npages = mr.npages
        span = self.tpt._reg_span("reg.fmr_unmap", npages=npages)
        try:
            yield from self.tpt.engine.hold(self.tpt.costs.fmr_unmap_us(npages))
        finally:
            if span is not None:
                span.end()
        mr.valid = False
        # The entry (slot + stag) survives; only the binding is dropped.
        self.tpt._entries[mr.stag] = None  # type: ignore[assignment]
        self._free_stags.append(mr.stag)
        san = self.tpt.sim.sanitizer
        if san is not None:
            san.on_invalidate(self.tpt, mr)
        mr.buffer.pinned_pages -= npages
        yield from self.tpt.cpu.consume(npages * self.tpt.costs.unpin_cpu_per_page_us)
        self.tpt.deregistrations.add()
        self.unmaps.add()
