"""Client-side NFS caching: attributes, names, data, close-to-open.

The paper's introduction motivates the transport work precisely from
the limits of client caching: "The ability of clients to cache this
data for fast and efficient access is limited, partly because of the
demands on main memory on the client ... for medium and large scale
clusters the overhead of keeping client caches coherent quickly becomes
prohibitively expensive."  This module implements the standard NFSv3
client caching model so those limits are measurable, and so buffered
I/O can be ablated against the direct-I/O paths the paper benchmarks:

* **attribute cache** — getattr/lookup results held for a timeout;
* **name cache (dnlc)** — (directory, name) → handle;
* **data cache** — LRU page cache of file contents with write-back;
* **close-to-open consistency** — ``open`` revalidates attributes and
  drops cached data if the file changed on the server; ``close``
  flushes dirty pages and COMMITs, so another client's subsequent open
  sees the data.  Between open and close, reads may be served stale —
  exactly NFS's contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.fs.api import FsAttributes
from repro.fs.pagecache import PageCache
from repro.nfs.client import NfsClient
from repro.nfs.fh import FileHandle
from repro.payload import Payload, PayloadLike, join_parts
from repro.sim import Counter, Simulator

__all__ = ["CachingNfsClient", "ClientCacheConfig", "OpenFile"]


@dataclass(frozen=True)
class ClientCacheConfig:
    """Knobs of the client caching model."""

    attr_timeout_us: float = 3_000_000.0      # acregmin-style, 3 s
    data_cache_bytes: int = 64 << 20
    page_bytes: int = 16 * 1024
    #: maximum dirty bytes before writes flush synchronously.
    dirty_limit_bytes: int = 16 << 20
    close_to_open: bool = True


@dataclass
class OpenFile:
    """An open handle: identity + the mtime seen at open (for CTO)."""

    fh: FileHandle
    attrs: FsAttributes
    dirty: bool = False


class CachingNfsClient:
    """Caching wrapper over :class:`NfsClient` (same generator API)."""

    def __init__(self, inner: NfsClient, sim: Simulator,
                 config: Optional[ClientCacheConfig] = None,
                 name: str = "nfs-cache"):
        self.inner = inner
        self.sim = sim
        self.config = config or ClientCacheConfig()
        self.name = name
        self.root = inner.root
        self._attrs: dict[int, tuple[FsAttributes, float]] = {}
        self._names: dict[tuple[int, str], FileHandle] = {}
        self.pages = PageCache(self.config.data_cache_bytes,
                               self.config.page_bytes, name=f"{name}.data")
        #: cached page contents: ``bytes`` or zero-copy :class:`Payload`
        #: descriptors, possibly shorter than a page (zero tail implied).
        self._content: dict[tuple[int, int], PayloadLike] = {}
        self.attr_hits = Counter(f"{name}.attr_hits")
        self.attr_misses = Counter(f"{name}.attr_misses")
        self.name_hits = Counter(f"{name}.name_hits")
        self.read_hits = Counter(f"{name}.read_hits")
        self.read_misses = Counter(f"{name}.read_misses")

    # -- attribute cache -----------------------------------------------------
    def _remember_attrs(self, attrs: FsAttributes) -> None:
        self._attrs[attrs.fileid] = (attrs, self.sim.now + self.config.attr_timeout_us)

    def _cached_attrs(self, fileid: int) -> Optional[FsAttributes]:
        entry = self._attrs.get(fileid)
        if entry is None:
            return None
        attrs, expiry = entry
        if self.sim.now >= expiry:
            del self._attrs[fileid]
            return None
        return attrs

    def getattr(self, fh: FileHandle) -> Generator:
        cached = self._cached_attrs(fh.fileid)
        if cached is not None:
            self.attr_hits.add()
            return cached
        self.attr_misses.add()
        attrs = yield from self.inner.getattr(fh)
        self._remember_attrs(attrs)
        return attrs

    def lookup(self, dir_fh: FileHandle, name: str) -> Generator:
        key = (dir_fh.fileid, name)
        fh = self._names.get(key)
        if fh is not None:
            cached = self._cached_attrs(fh.fileid)
            if cached is not None:
                self.name_hits.add()
                return fh, cached
        fh, attrs = yield from self.inner.lookup(dir_fh, name)
        self._names[key] = fh
        self._remember_attrs(attrs)
        return fh, attrs

    def invalidate_attrs(self, fileid: Optional[int] = None) -> None:
        if fileid is None:
            self._attrs.clear()
            self._names.clear()
        else:
            self._attrs.pop(fileid, None)
            self._names = {k: v for k, v in self._names.items()
                           if v.fileid != fileid}

    # -- open / close (close-to-open consistency) ----------------------------
    def open(self, path_or_fh) -> Generator:
        """Open: revalidate against the server; returns an OpenFile."""
        if isinstance(path_or_fh, FileHandle):
            fh = path_or_fh
        else:
            fh, _ = yield from self.inner.walk(path_or_fh)
        fresh = yield from self.inner.getattr(fh)  # CTO: always revalidate
        if self.config.close_to_open:
            stale = self._cached_attrs(fh.fileid)
            if stale is not None and stale.mtime != fresh.mtime:
                self._invalidate_data(fh.fileid)
        self._remember_attrs(fresh)
        return OpenFile(fh=fh, attrs=fresh)

    def close(self, handle: OpenFile) -> Generator:
        """Close: flush dirty pages and COMMIT (the CTO write barrier)."""
        if handle.dirty:
            yield from self.flush(handle)
            yield from self.inner.commit(handle.fh)
        # Attributes changed server-side by our writes; drop so the next
        # open revalidates honestly.
        self._attrs.pop(handle.fh.fileid, None)

    # -- data cache -----------------------------------------------------
    def _page_slice(self, key, within: int, take: int) -> PayloadLike:
        """``take`` bytes of a cached page from ``within``, zero-padded."""
        page = self._content.get(key)
        if page is None:
            return Payload.zeros(take)
        avail = len(page) - within
        if avail >= take:
            return page[within:within + take]
        if avail <= 0:
            return Payload.zeros(take)
        return join_parts([page[within:], Payload.zeros(take - avail)])

    def _invalidate_data(self, fileid: int) -> None:
        dropped = self.pages.invalidate(fileid)
        doomed = [k for k in self._content if k[0] == fileid]
        for k in doomed:
            del self._content[k]

    def read(self, handle: OpenFile, offset: int, count: int) -> Generator:
        """Cached read; misses fetch whole pages from the server."""
        fh = handle.fh
        pb = self.config.page_bytes
        first = offset // pb
        last = (offset + count - 1) // pb if count else first - 1
        eof_size = None
        for page in range(first, last + 1):
            key = (fh.fileid, page)
            if self.pages.touch(key):
                self.read_hits.add()
                continue
            self.read_misses.add()
            data, eof, attrs = yield from self.inner.read(fh, page * pb, pb)
            self._remember_attrs(attrs)
            if isinstance(data, bytearray):
                data = bytes(data)
            self._content[key] = data      # short page ⇒ zero tail implied
            for evicted_key, was_dirty in self.pages.insert(key):
                if was_dirty:
                    yield from self._writeback(evicted_key)
                else:
                    self._content.pop(evicted_key, None)
            if eof:
                eof_size = attrs.size
                break
        parts: list[PayloadLike] = []
        pos = offset
        stop = offset + count
        while pos < stop:
            page, within = divmod(pos, pb)
            take = min(pb - within, stop - pos)
            parts.append(self._page_slice((fh.fileid, page), within, take))
            pos += take
        data = join_parts(parts)
        size = eof_size
        if size is None:
            attrs = yield from self.getattr(fh)
            size = attrs.size
        if offset + len(data) > size:
            data = data[: max(0, size - offset)]
        return data, offset + len(data) >= size

    def write(self, handle: OpenFile, offset: int, data: bytes) -> Generator:
        """Write-back: dirty the cache; flush at the dirty limit/close."""
        fh = handle.fh
        pb = self.config.page_bytes
        end = offset + len(data)
        pos = offset
        while pos < end:
            page, within = divmod(pos, pb)
            take = min(pb - within, end - pos)
            key = (fh.fileid, page)
            chunk = data[pos - offset: pos - offset + take]
            if take == pb:
                new_page = chunk
            else:
                if not self.pages.is_resident(key):
                    # Read-modify-write against the server copy.
                    got, _, _ = yield from self.inner.read(fh, page * pb, pb)
                    self._content[key] = (bytes(got) if isinstance(got, bytearray)
                                          else got)
                head = self._page_slice(key, 0, within) if within else b""
                old = self._content.get(key)
                tail_len = (len(old) if old is not None else 0) - (within + take)
                tail = (self._page_slice(key, within + take, tail_len)
                        if tail_len > 0 else b"")
                new_page = join_parts([head, chunk, tail])
            if isinstance(new_page, bytearray):
                new_page = bytes(new_page)
            if isinstance(new_page, Payload) and new_page.nruns > 32:
                new_page = new_page.tobytes()
            self._content[key] = new_page
            for evicted_key, was_dirty in self.pages.insert(key, dirty=True):
                if was_dirty:
                    yield from self._writeback(evicted_key)
                else:
                    self._content.pop(evicted_key, None)
            pos += take
        handle.dirty = True
        new_size = max(handle.attrs.size, offset + len(data))
        handle.attrs.size = new_size
        if self.pages.dirty_bytes >= self.config.dirty_limit_bytes:
            yield from self.flush(handle)
        return len(data)

    def _writeback(self, key) -> Generator:
        fileid, page = key
        payload = self._content.pop(key, None)
        if payload is None:
            return
        fh = FileHandle(fsid=self.root.fsid, fileid=fileid)
        yield from self.inner.write(fh, page * self.config.page_bytes, payload)

    def flush(self, handle: OpenFile) -> Generator:
        """Push every dirty page of the file to the server."""
        fh = handle.fh
        size = handle.attrs.size
        for key in self.pages.dirty_pages(handle.fh.fileid):
            page = key[1]
            payload = self._content.get(key)
            if payload is None:
                continue
            start = page * self.config.page_bytes
            take = min(len(payload), max(0, size - start))
            generation = self.pages.generation(key)
            if take:
                yield from self.inner.write(fh, start, payload[:take])
            # A rewrite during the WRITE made a new generation: keep it dirty.
            self.pages.mark_clean(key, generation)
        handle.dirty = bool(self.pages.dirty_pages(fh.fileid, limit=1))
