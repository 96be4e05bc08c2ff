"""Slab allocator: size-classed buffer caches with reclaim.

This is the substrate for the server-side buffer registration cache of
§4.3: NFS buffer allocations are overridden to draw from per-size slab
caches, and a buffer that comes back from the slab *still registered*
skips the registration cost entirely.  Because the cache is keyed on the
slab object — not on a virtual address — it avoids the correctness
hazards of user-level virtual-address registration caches [Wyckoff &
Wu 2005], and because the slab participates in system reclaim it cannot
grow without bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.sim import Counter


def _round_up_pow2(n: int) -> int:
    if n <= 0:
        raise ValueError("slab object size must be positive")
    return 1 << (n - 1).bit_length()


@dataclass
class SlabObject:
    """One buffer handed out by a slab cache.

    ``registration`` is an opaque slot where the RPC/RDMA layer parks a
    live memory-region handle; the slab preserves it across free/alloc
    cycles, which is precisely what makes the registration cache work.
    """

    size_class: int
    buffer: bytearray
    registration: Any = None
    generation: int = 0

    @property
    def size(self) -> int:
        return self.size_class


class SlabCache:
    """A single size class: freelist of reusable objects.

    ``factory``/``destructor`` let callers back slab objects with other
    memory (the registration cache uses HCA-arena buffers so the cached
    objects are RDMA-addressable).
    """

    def __init__(self, size_class: int, name: str = "", factory=None, destructor=None):
        self.size_class = size_class
        self.name = name or f"slab-{size_class}"
        self.factory = factory or bytearray
        self.destructor = destructor
        self._free: deque[SlabObject] = deque()
        self.allocated = 0           # live objects handed out
        self.total_objects = 0       # live + cached
        self.hits = Counter(f"{self.name}.hits")
        self.misses = Counter(f"{self.name}.misses")

    def alloc(self) -> SlabObject:
        if self._free:
            obj = self._free.popleft()
            self.hits.add()
        else:
            obj = SlabObject(self.size_class, self.factory(self.size_class))
            self.total_objects += 1
            self.misses.add()
        self.allocated += 1
        return obj

    def free(self, obj: SlabObject) -> None:
        if obj.size_class != self.size_class:
            raise ValueError(f"object of class {obj.size_class} freed to {self.size_class} cache")
        if self.allocated <= 0:
            raise ValueError(f"double free into {self.name}")
        self.allocated -= 1
        obj.generation += 1
        self._free.append(obj)

    @property
    def cached(self) -> int:
        return len(self._free)

    def reclaim(self, target_objects: int) -> list[SlabObject]:
        """Shrink the freelist to ``target_objects``; return the evictees.

        Evictees are returned (not dropped) so the caller can tear down
        any live registrations they carry before the memory goes back to
        the page pool.
        """
        evicted: list[SlabObject] = []
        while len(self._free) > target_objects:
            obj = self._free.pop()  # LIFO: coldest stay, hottest reused
            self.total_objects -= 1
            evicted.append(obj)
        return evicted


class SlabAllocator:
    """Size-classed allocator front-end with a global memory budget."""

    def __init__(self, budget_bytes: float = float("inf"), name: str = "slab",
                 factory=None, destructor=None):
        self.budget_bytes = budget_bytes
        self.name = name
        self.factory = factory
        self.destructor = destructor
        self._caches: dict[int, SlabCache] = {}
        self._footprint = 0  # bytes of live + cached objects

    def cache_for(self, nbytes: int) -> SlabCache:
        size_class = _round_up_pow2(nbytes)
        cache = self._caches.get(size_class)
        if cache is None:
            cache = SlabCache(size_class, name=f"{self.name}-{size_class}",
                              factory=self.factory, destructor=self.destructor)
            self._caches[size_class] = cache
        return cache

    def alloc(self, nbytes: int) -> SlabObject:
        cache = self.cache_for(nbytes)
        if not cache.cached:  # a miss adds an object to the footprint
            self._footprint += cache.size_class
        obj = cache.alloc()
        self._maybe_reclaim()
        return obj

    def free(self, obj: SlabObject) -> None:
        cache = self._caches.get(obj.size_class)
        if cache is None:
            raise ValueError(f"free of object from unknown size class {obj.size_class}")
        cache.free(obj)
        self._maybe_reclaim()

    def footprint_bytes(self) -> int:
        return self._footprint

    def _maybe_reclaim(self) -> None:
        """Evict cold cached objects while over the memory budget."""
        if self._footprint <= self.budget_bytes:
            return
        evictees: list[SlabObject] = []
        # Evict from the largest classes first: fewest evictions needed.
        for cache in sorted(self._caches.values(), key=lambda c: -c.size_class):
            while cache.cached and self._footprint > self.budget_bytes:
                evictees.extend(cache.reclaim(cache.cached - 1))  # one object
                self._footprint -= cache.size_class
            if self._footprint <= self.budget_bytes:
                break
        for obj in evictees:
            if obj.registration is not None and hasattr(obj.registration, "invalidate"):
                obj.registration.invalidate()
                obj.registration = None
            if self.destructor is not None:
                self.destructor(obj.buffer)
