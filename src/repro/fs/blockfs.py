"""Extent-based file system over RAID with a page cache (the paper's
"eight HighPoint SCSI disks with RAID-0 stripping, formatted with the
XFS file system", §5.3).

Files get contiguous extents on the striped volume; reads and writes go
through the LRU page cache.  Writes are *unstable* (NFSv3 semantics):
they dirty cache pages and return; a background flusher and the COMMIT
procedure push them to the spindles.  Under memory pressure, dirty
evictions force synchronous write-back, throttling writers to aggregate
spindle bandwidth — and sequential re-reads that overflow the cache
collapse to spindle bandwidth too, which is the mechanism behind the
Fig 10a decline beyond three clients.

File bytes live in each inode's :class:`~repro.fs.sparse.SparseFile`,
paged at this FS's ``page_bytes`` exactly as on tmpfs; the page cache
tracks only which pages are resident and dirty.
"""

from __future__ import annotations

from typing import Generator

from repro.fs.api import FileKind, FsError, FsStat
from repro.fs.namespace import NamespaceFs, _Inode
from repro.fs.pagecache import PageCache, PageKey
from repro.fs.raid import Raid0
from repro.osmodel import CPU
from repro.sim import Simulator

__all__ = ["BlockFs"]


class BlockFs(NamespaceFs):
    """XFS-like extent FS on a striped volume, fronted by a page cache."""

    def __init__(
        self,
        sim: Simulator,
        cpu: CPU,
        raid: Raid0,
        cache_bytes: int,
        page_bytes: int = 64 * 1024,
        extent_bytes: int = 64 << 20,
        flush_interval_us: float = 200_000.0,
        flush_batch_pages: int = 64,
        per_op_cpu_us: float = 2.5,
        name: str = "blockfs",
    ):
        if extent_bytes % page_bytes:
            raise ValueError("extent size must be a page multiple")
        self.page_bytes = page_bytes    # before the root inode's SparseFile
        super().__init__(sim, cpu, capacity_bytes=1 << 40,
                         per_op_cpu_us=per_op_cpu_us, name=name)
        self.raid = raid
        self.cache = PageCache(cache_bytes, page_bytes, name=f"{name}.cache")
        self.extent_bytes = extent_bytes
        self._extents: dict[int, list[int]] = {}
        self._next_free = 0
        self.flush_interval_us = flush_interval_us
        self.flush_batch_pages = flush_batch_pages
        if flush_interval_us > 0:
            sim.process(self._flusher(), name=f"{name}.flusher")

    # -- layout -----------------------------------------------------------
    def _disk_offset(self, key: PageKey) -> int:
        fileid, page = key
        pages_per_extent = self.extent_bytes // self.page_bytes
        extent_index = page // pages_per_extent
        extents = self._extents.setdefault(fileid, [])
        while len(extents) <= extent_index:
            extents.append(self._next_free)
            self._next_free += self.extent_bytes
        return extents[extent_index] + (page % pages_per_extent) * self.page_bytes

    # -- cache/disk interaction ------------------------------------------
    def _absorb_evictions(self, evicted) -> Generator:
        """Write back dirty evictees synchronously (memory pressure)."""
        for key, was_dirty in evicted:
            if was_dirty:
                yield from self.raid.write(self._disk_offset(key), self.page_bytes)

    def _write_back(self, keys: list[PageKey]) -> Generator:
        """Write ``keys`` to disk; each stays dirty if rewritten meanwhile."""
        for key in keys:
            generation = self.cache.generation(key)
            yield from self.raid.write(self._disk_offset(key), self.page_bytes)
            self.cache.mark_clean(key, generation)

    def _flusher(self) -> Generator:
        """Background write-back, pdflush style."""
        while True:
            yield self.sim.timeout(self.flush_interval_us)
            yield from self._write_back(
                self.cache.dirty_pages(limit=self.flush_batch_pages))

    # -- data operations ------------------------------------------------------
    def read(self, fileid: int, offset: int, length: int) -> Generator:
        inode = self._get(fileid)
        if inode.attrs.kind is not FileKind.REGULAR:
            raise FsError("INVAL", "read of non-file")
        token = self._data_span("read", fileid=fileid, bytes=length)
        try:
            return (yield from self._read_inner(inode, fileid, offset, length))
        finally:
            self._end_span(token)

    def _read_inner(self, inode, fileid: int, offset: int, length: int) -> Generator:
        yield from self._tick()
        length = max(0, min(length, inode.attrs.size - offset))
        first = offset // self.page_bytes
        last = (offset + length - 1) // self.page_bytes if length else first - 1
        # Classify pages, then fetch misses in contiguous disk runs.
        miss_run: list[PageKey] = []
        for page in range(first, last + 1):
            key = (fileid, page)
            if self.cache.touch(key):
                if miss_run:
                    yield from self._fetch_run(miss_run)
                    miss_run = []
            else:
                miss_run.append(key)
        if miss_run:
            yield from self._fetch_run(miss_run)
        data = inode.data.read(offset, length)
        yield from self.cpu.copy(len(data))
        inode.attrs.atime = self.sim.now
        return data, offset + length >= inode.attrs.size

    def _fetch_run(self, keys: list[PageKey]) -> Generator:
        """One striped read covering a contiguous run of missed pages."""
        base = self._disk_offset(keys[0])
        yield from self.raid.read(base, len(keys) * self.page_bytes)
        for key in keys:
            evicted = self.cache.insert(key, dirty=False)
            yield from self._absorb_evictions(evicted)

    def write(self, fileid: int, offset: int, data: bytes) -> Generator:
        inode = self._get(fileid)
        if inode.attrs.kind is not FileKind.REGULAR:
            raise FsError("INVAL", "write of non-file")
        token = self._data_span("write", fileid=fileid, bytes=len(data))
        try:
            return (yield from self._write_inner(inode, fileid, offset, data))
        finally:
            self._end_span(token)

    def _write_inner(self, inode, fileid: int, offset: int, data: bytes) -> Generator:
        yield from self._tick()
        yield from self.cpu.copy(len(data))
        end = offset + len(data)
        pos = offset
        while pos < end:
            page, within = divmod(pos, self.page_bytes)
            take = min(self.page_bytes - within, end - pos)
            key = (fileid, page)
            if take < self.page_bytes:
                # Read-modify-write a partial page (fetch if not resident
                # and previously written).
                if not self.cache.touch(key) and inode.data.holds(page):
                    yield from self.raid.read(self._disk_offset(key), self.page_bytes)
            inode.data.write(pos, data[pos - offset: pos - offset + take])
            evicted = self.cache.insert(key, dirty=True)
            yield from self._absorb_evictions(evicted)
            pos += take
        if end > inode.attrs.size:
            self.used_bytes += end - inode.attrs.size
            inode.attrs.size = end
            if len(inode.data) < end:   # a zero-length write past EOF
                inode.data.truncate(end)
        inode.attrs.mtime = self.sim.now
        return len(data)

    def commit(self, fileid: int) -> Generator:
        token = self._data_span("commit", fileid=fileid)
        try:
            yield from self._tick()
            yield from self._write_back(self.cache.dirty_pages(fileid))
        finally:
            self._end_span(token)

    def fsstat(self) -> Generator:
        yield from self._tick()
        total = 1 << 40
        return FsStat(
            total_bytes=total,
            free_bytes=total - self.used_bytes,
            total_files=1 << 20,
            free_files=(1 << 20) - len(self._inodes),
        )

    # -- namespace data hook ----------------------------------------------
    def _drop_data(self, inode: _Inode) -> None:
        super()._drop_data(inode)
        self.cache.invalidate(inode.attrs.fileid)
        self._extents.pop(inode.attrs.fileid, None)
