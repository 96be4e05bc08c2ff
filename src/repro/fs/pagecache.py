"""LRU page cache: the 4 GB / 8 GB server memory of Fig 10.

Tracks *residency and dirtiness* of (file, page) keys under a byte
budget; page contents live with the owning file system (one copy in the
whole simulation).  Dirty keys are also kept in their own index, in LRU
order, so a flusher reads the oldest dirty pages without scanning every
resident one.  The capacity is the experiment's headline variable:
with 4 GB, three 1 GB client files fit and aggregate read bandwidth
peaks, a fourth starts LRU-thrashing a sequential scan (the worst case
for LRU) and throughput falls toward spindle speed; with 8 GB the knee
moves out past seven clients.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import Optional

from repro.sim import Counter

__all__ = ["PageCache", "PageKey"]

#: (fileid, page_index)
PageKey = tuple[int, int]


class PageCache:
    """Byte-budgeted LRU over fixed-size pages with dirty tracking.

    Each dirtying gives the page a fresh *generation*.  A write-back
    reads :meth:`generation` when it starts and passes it to
    :meth:`mark_clean` when it ends, so a page dirtied again while its
    write-back was in flight stays dirty.
    """

    def __init__(self, capacity_bytes: int, page_bytes: int = 64 * 1024,
                 name: str = "pagecache"):
        if page_bytes < 4096:
            raise ValueError("page size below 4 KB")
        if capacity_bytes < page_bytes:
            raise ValueError("cache smaller than one page")
        self.capacity_bytes = capacity_bytes
        self.page_bytes = page_bytes
        self.name = name
        self._lru: OrderedDict[PageKey, None] = OrderedDict()
        #: the dirty keys, in the same (LRU) order as ``_lru`` -> generation
        self._dirty: OrderedDict[PageKey, int] = OrderedDict()
        self._generation = 0
        self.hits = Counter(f"{name}.hits")
        self.misses = Counter(f"{name}.misses")
        self.evictions = Counter(f"{name}.evictions")
        self.writebacks = Counter(f"{name}.writebacks")

    # -- inspection ---------------------------------------------------------
    @property
    def resident_pages(self) -> int:
        return len(self._lru)

    @property
    def resident_bytes(self) -> int:
        return len(self._lru) * self.page_bytes

    @property
    def dirty_bytes(self) -> int:
        return len(self._dirty) * self.page_bytes

    @property
    def max_pages(self) -> int:
        return self.capacity_bytes // self.page_bytes

    def is_resident(self, key: PageKey) -> bool:
        return key in self._lru

    def dirty_pages(self, fileid: Optional[int] = None,
                    limit: Optional[int] = None) -> list[PageKey]:
        """Dirty keys, least recently used first (of one file if given)."""
        keys = iter(self._dirty) if fileid is None else (
            k for k in self._dirty if k[0] == fileid)
        return list(islice(keys, limit))

    def generation(self, key: PageKey) -> int:
        """The page's dirty generation; 0 when it is clean or absent."""
        return self._dirty.get(key, 0)

    # -- access -----------------------------------------------------------
    def touch(self, key: PageKey) -> bool:
        """Record an access; True on hit (and promote to MRU)."""
        if key in self._lru:
            self._lru.move_to_end(key)
            if key in self._dirty:
                self._dirty.move_to_end(key)
            self.hits.add()
            return True
        self.misses.add()
        return False

    def insert(self, key: PageKey, dirty: bool = False) -> list[tuple[PageKey, bool]]:
        """Make ``key`` resident; returns evicted (key, was_dirty) pairs.

        The caller owns the consequences of dirty evictions (write-back
        timing against the backing device).
        """
        if key in self._lru:
            self._lru.move_to_end(key)
            if dirty:
                self._dirty.pop(key, None)
                self._mark_dirty(key)
            elif key in self._dirty:
                self._dirty.move_to_end(key)
            return []
        evicted: list[tuple[PageKey, bool]] = []
        while len(self._lru) >= self.max_pages:
            old_key, _ = self._lru.popitem(last=False)
            was_dirty = self._dirty.pop(old_key, 0) != 0
            self.evictions.add()
            if was_dirty:
                self.writebacks.add()
            evicted.append((old_key, was_dirty))
        self._lru[key] = None
        if dirty:
            self._mark_dirty(key)
        return evicted

    def _mark_dirty(self, key: PageKey) -> None:
        self._generation += 1
        self._dirty[key] = self._generation

    def mark_clean(self, key: PageKey, generation: Optional[int] = None) -> None:
        """Clear the dirty bit; with ``generation``, only if still that one."""
        if key in self._dirty and (generation is None
                                   or self._dirty[key] == generation):
            del self._dirty[key]

    def invalidate(self, fileid: int) -> int:
        """Drop every page of one file (unlink); returns pages dropped."""
        doomed = [k for k in self._lru if k[0] == fileid]
        for k in doomed:
            del self._lru[k]
            self._dirty.pop(k, None)
        return len(doomed)

    def hit_ratio(self) -> float:
        total = self.hits.events + self.misses.events
        return self.hits.events / total if total else 0.0
