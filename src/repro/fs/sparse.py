"""Page-granular sparse file storage.

The seed kept every inode's contents in one flat ``bytearray`` and
zero-filled growth with ``bytearray.extend`` — 28% of a fig 5 run's
host time spent materialising simulated zeros.  :class:`SparseFile`
stores only the pages that have ever been written, as immutable
``bytes``-or-:class:`~repro.payload.Payload` snippets, so

* growth past EOF and hole creation are O(1),
* truncate is O(pages touched),
* holes read back as zero without existing anywhere, and
* zero-copy payloads written through the transport land in the page
  map *as descriptors* — a 1 MB tiled record occupies a handful of
  run tuples, not a megabyte.

A stored page may be shorter than ``page_bytes``; the missing tail is
implicitly zero.  ``size`` is the logical file length (the NFS
attribute); :attr:`resident_bytes` counts bytes actually present in
the page map — the sparse-accounting number the tests pin down.

Identical stored pages share one object: each page is interned in a
per-file map keyed by :meth:`Payload.key` or by the bytes themselves,
so a gigabyte file written from one pattern costs one page of host
memory while every byte served stays verifiable.  The map lives and
dies with the file (:meth:`clear`).
"""

from __future__ import annotations

from repro.payload import Payload, PayloadLike, join_parts

__all__ = ["SparseFile"]

#: Pages whose composed payload fragments exceed this many runs get
#: materialised to flat bytes — bounds run-list growth under adversarial
#: small-write patterns while keeping the common paths descriptor-only.
_MAX_PAGE_RUNS = 32


def _is_zero(content: PayloadLike) -> bool:
    if isinstance(content, Payload):
        return content.is_zeros()
    return not any(content)


class SparseFile:
    """A logically contiguous file stored as a sparse page map."""

    __slots__ = ("page_bytes", "size", "_pages", "_shared")

    def __init__(self, page_bytes: int = 64 * 1024):
        if page_bytes <= 0:
            raise ValueError("page_bytes must be positive")
        self.page_bytes = page_bytes
        self.size = 0
        self._pages: dict[int, PayloadLike] = {}
        #: content token -> the one stored object with that content.
        self._shared: dict = {}

    def __len__(self) -> int:
        return self.size

    @property
    def resident_bytes(self) -> int:
        """Real bytes held by the page map.

        Holes cost nothing, a page object shared by several pages counts
        once, and virtual payload runs (tiles/zeros) count only their
        materialised portions — a tiled megabyte stored as a descriptor
        is ~free.
        """
        unique = {id(c): c for c in self._pages.values()}.values()
        return sum(c.resident_bytes if isinstance(c, Payload) else len(c)
                   for c in unique)

    @property
    def resident_pages(self) -> int:
        return len(self._pages)

    def holds(self, pageno: int) -> bool:
        """True when page ``pageno`` has stored (non-zero) content."""
        return pageno in self._pages

    # ------------------------------------------------------------ read
    def read(self, offset: int, length: int) -> PayloadLike:
        """Content of ``[offset, offset+length)`` clamped to EOF.

        Returns ``bytes`` or a :class:`Payload`; holes come back as
        zero-filled virtual runs, never materialised.
        """
        stop = min(offset + max(0, length), self.size)
        if offset >= stop:
            return b""
        pb = self.page_bytes
        parts: list[PayloadLike] = []
        pos = offset
        while pos < stop:
            pageno, within = divmod(pos, pb)
            take = min(pb - within, stop - pos)
            page = self._pages.get(pageno)
            if page is None:
                parts.append(Payload.zeros(take))
            else:
                avail = len(page) - within
                if avail <= 0:
                    parts.append(Payload.zeros(take))
                elif avail >= take:
                    parts.append(page[within:within + take])
                else:
                    parts.append(page[within:])
                    parts.append(Payload.zeros(take - avail))
            pos += take
        return join_parts(parts)

    # ------------------------------------------------------------ write
    def write(self, offset: int, data: PayloadLike) -> None:
        """Store ``data`` at ``offset``; grows ``size`` past EOF in O(1)."""
        if offset < 0:
            raise ValueError("negative offset")
        length = len(data)
        if length == 0:
            self.size = max(self.size, offset)
            return
        pb = self.page_bytes
        pos = 0
        while pos < length:
            pageno, within = divmod(offset + pos, pb)
            take = min(pb - within, length - pos)
            chunk = data if take == length else data[pos:pos + take]
            self._store(pageno, within, chunk, take)
            pos += take
        self.size = max(self.size, offset + length)

    def _store(self, pageno: int, within: int, chunk: PayloadLike, take: int) -> None:
        old = self._pages.get(pageno)
        if within == 0 and (old is None or len(old) <= take):
            new = chunk
        else:
            head = old[:within] if old is not None else b""
            parts: list[PayloadLike] = [head]
            if len(head) < within:
                parts.append(Payload.zeros(within - len(head)))
            parts.append(chunk)
            if old is not None and len(old) > within + take:
                parts.append(old[within + take:])
            new = join_parts(parts)
        if isinstance(new, Payload):
            if new.nruns > _MAX_PAGE_RUNS:
                new = new.tobytes()
        elif type(new) is not bytes:
            new = bytes(new)        # bytearray/memoryview: freeze
        if _is_zero(new):
            self._pages.pop(pageno, None)
        else:
            token = new.key() if isinstance(new, Payload) else new
            self._pages[pageno] = self._shared.setdefault(token, new)

    # ------------------------------------------------------------ resize
    def truncate(self, size: int) -> None:
        """Set the logical length; O(pages dropped) down, O(1) up."""
        if size < 0:
            raise ValueError("negative size")
        if size < self.size:
            pb = self.page_bytes
            last, within = divmod(size, pb)
            for pageno in [p for p in self._pages if p > last]:
                del self._pages[pageno]
            if within == 0:
                self._pages.pop(last, None)
            else:
                page = self._pages.get(last)
                if page is not None and len(page) > within:
                    clipped = page[:within]
                    if _is_zero(clipped):
                        del self._pages[last]
                    else:
                        self._pages[last] = clipped
        self.size = size

    def clear(self) -> None:
        self._pages.clear()
        self._shared.clear()
        self.size = 0
