"""The server buffer registration cache (§4.3, "Design of the Buffer
Registration Cache").

The NFS server's buffer allocation and registration calls are overridden
to draw from per-size slab caches whose objects *keep their memory
registration across free/alloc cycles*.  A buffer that comes back from
the slab already registered costs nothing to "register" again.  Because
the cache is keyed on slab identity — never on a virtual address — it
sidesteps the correctness hazards of virtual-address registration
caches [Wyckoff & Wu 2005], and because the slab honours a memory
budget with reclaim it cannot grow without bound.  The server never
discloses cached stags except through the normal chunk protocol, so the
scheme is exactly as secure as regular registration.

``wrap`` (caller-owned memory, i.e. the client direct-I/O path) cannot
be cached by the slab scheme — there is no slab identity to key on — so
it falls back to dynamic registration; the paper's client-side variant
(discussed in its technical report) is implemented here as
:class:`ClientRegistrationCache`, which keys on buffer-object identity.
"""

from __future__ import annotations

from typing import Generator

from repro.ib.fabric import IBNode
from repro.ib.memory import AccessFlags, MemoryBuffer
from repro.ib.verbs import Segment
from repro.osmodel.slab import SlabAllocator, SlabObject
from repro.sim import Counter

from repro.core.strategies import (
    FALLBACK,
    DynamicRegistration,
    RegisteredRegion,
    RegistrationStrategy,
)

__all__ = ["ClientRegistrationCache", "RegistrationCacheStrategy"]


class RegistrationCacheStrategy(RegistrationStrategy):
    """Slab-backed registration cache for transport-owned buffers."""

    name = "regcache"

    def __init__(self, node: IBNode, budget_bytes: float = float("inf")):
        super().__init__(node)
        self.slab = SlabAllocator(
            budget_bytes=budget_bytes,
            name=f"{node.name}.regcache",
            factory=node.arena.alloc,
            destructor=node.arena.free,
        )
        self._fallback = DynamicRegistration(node)
        self.hits = Counter(f"{node.name}.regcache.hits")
        self.misses = Counter(f"{node.name}.regcache.misses")

    def acquire(self, nbytes: int, access: AccessFlags) -> Generator:
        obj: SlabObject = self.slab.alloc(nbytes)
        buffer: MemoryBuffer = obj.buffer
        mr = obj.registration
        if mr is not None and mr.valid and not (int(access) & ~mr.rights):
            # Cache hit: the slab object came back still registered with
            # (at least) the rights we need.  Zero registration cost.
            self.hits.add()
            self._hit_instant(nbytes)
        else:
            if mr is not None and mr.valid:
                # Registered with narrower rights: replace the mapping.
                yield from self.node.hca.tpt.deregister(mr)
            # Register with the union of rights this size class has
            # needed so far, maximising future hits.
            wanted = access | (mr.access if mr is not None else AccessFlags(0))
            mr = yield from self.node.hca.tpt.register(buffer, wanted)
            obj.registration = mr
            self.misses.add()
        self.acquires.add()
        return RegisteredRegion(
            buffer=buffer,
            segments=[Segment(mr.stag, buffer.addr, nbytes)],
            access=access,
            owned=True,
            mr=mr,
            handle=obj,
        )

    def wrap(self, buffer, access, addr=None, length=None) -> Generator:
        region = yield from self._fallback.wrap(buffer, access, addr=addr, length=length)
        region.handle = FALLBACK
        self.acquires.add()
        return region

    def release(self, region: RegisteredRegion) -> Generator:
        if region.handle is FALLBACK:
            yield from self._fallback.release(region)
        else:
            # Return to the slab *registered*; reclaim (if the budget
            # forces it) invalidates the MR and frees the arena buffer.
            self.slab.free(region.handle)
        self.releases.add()

    def _hit_instant(self, nbytes: int) -> None:
        telemetry = self.node.sim.telemetry
        if telemetry is not None and telemetry.tracer is not None:
            telemetry.tracer.instant("reg.cache_hit", "reg", self.node.name,
                                     "regcache", bytes=nbytes)

    @property
    def footprint_bytes(self) -> int:
        return self.slab.footprint_bytes()


class ClientRegistrationCache(RegistrationStrategy):
    """Client-side registration cache — the technical-report extension.

    "The server registration cache scheme described above can also be
    applied to the client side, as discussed in the technical report."

    Caches ``wrap`` registrations of caller-owned buffers keyed on the
    exact (buffer identity, window, rights) triple.  Unlike user-level
    virtual-address caches, the key includes the buffer *object*, so a
    freed-and-reallocated buffer at the same virtual address can never
    alias a stale mapping (the Wyckoff & Wu hazard): dropping the
    buffer drops the key.  Entries are evicted LRU beyond ``max_entries``
    and on explicit ``invalidate_buffer``.

    ``acquire`` (transport-owned buffers) delegates to a nested
    server-style slab cache, so this strategy is usable on either side.
    """

    name = "client-regcache"

    def __init__(self, node: IBNode, max_entries: int = 128,
                 budget_bytes: float = float("inf")):
        super().__init__(node)
        if max_entries < 1:
            raise ValueError("cache needs at least one entry")
        self.max_entries = max_entries
        self._slab_side = RegistrationCacheStrategy(node, budget_bytes=budget_bytes)
        #: (id(buffer), addr, length) -> (buffer, MR); insertion-ordered
        #: for LRU.
        self._wrapped: dict[tuple, tuple] = {}
        self.hits = Counter(f"{node.name}.cliregcache.hits")
        self.misses = Counter(f"{node.name}.cliregcache.misses")

    def acquire(self, nbytes: int, access: AccessFlags) -> Generator:
        region = yield from self._slab_side.acquire(nbytes, access)
        region.handle = ("slab", region.handle)
        return region

    def wrap(self, buffer, access, addr=None, length=None) -> Generator:
        addr = buffer.addr if addr is None else addr
        length = buffer.length if length is None else length
        key = (id(buffer), addr, length)
        entry = self._wrapped.get(key)
        if entry is not None:
            cached_buffer, mr = entry
            if mr.valid and not (int(access) & ~mr.rights):
                # LRU-promote and reuse: zero registration cost.
                del self._wrapped[key]
                self._wrapped[key] = entry
                self.hits.add()
                self._slab_side._hit_instant(length)
                self.acquires.add()
                from repro.ib.verbs import Segment

                return RegisteredRegion(
                    buffer=buffer,
                    segments=[Segment(mr.stag, addr, length)],
                    access=access,
                    owned=False,
                    mr=mr,
                    handle=("cached", key),
                )
            del self._wrapped[key]
        self.misses.add()
        wanted = access
        if entry is not None and entry[1].valid:
            wanted |= entry[1].access
            yield from self.node.hca.tpt.deregister(entry[1])
        mr = yield from self.node.hca.tpt.register(
            buffer, wanted, addr=addr, length=length
        )
        self._wrapped[key] = (buffer, mr)
        yield from self._evict_over_capacity()
        self.acquires.add()
        from repro.ib.verbs import Segment

        return RegisteredRegion(
            buffer=buffer,
            segments=[Segment(mr.stag, addr, length)],
            access=access,
            owned=False,
            mr=mr,
            handle=("cached", key),
        )

    def _evict_over_capacity(self) -> Generator:
        while len(self._wrapped) > self.max_entries:
            key, (buffer, mr) = next(iter(self._wrapped.items()))
            del self._wrapped[key]
            if mr.valid:
                yield from self.node.hca.tpt.deregister(mr)

    def release(self, region: RegisteredRegion) -> Generator:
        kind = region.handle[0] if isinstance(region.handle, tuple) else None
        if kind == "slab":
            region.handle = region.handle[1]
            yield from self._slab_side.release(region)
        else:
            # Cached wrap: the registration stays live for reuse.
            pass
        self.releases.add()

    def invalidate_buffer(self, buffer) -> Generator:
        """Drop every cached window of ``buffer`` (free/teardown hook)."""
        doomed = [k for k in self._wrapped if k[0] == id(buffer)]
        for key in doomed:
            _, mr = self._wrapped.pop(key)
            if mr.valid:
                yield from self.node.hca.tpt.deregister(mr)

    @property
    def cached_entries(self) -> int:
        return len(self._wrapped)
