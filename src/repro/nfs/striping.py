"""pNFS-style file striping: one metadata server, many data servers.

The paper scales a single server; the pNFS file layout (RFC 5661 §13,
dense packing) is the standard answer once one node's spindles or HCA
saturate.  :class:`StripedNfsClient` keeps the normal NFS namespace on
the *metadata server* (MDS) and spreads file contents RAID-0 style
across *data servers* (DS): stripe ``s`` of a file lives at offset
``(s // ndata) * unit`` of a per-file component object on DS
``s % ndata`` — the dense layout, so component files stay compact.

Metadata procedures pass straight through to the MDS (the class
delegates any verb it does not override), so the striped client is a
drop-in :class:`~repro.nfs.client.NfsClient` replacement for the
workloads and the API layer.  READ/WRITE split into per-stripe extents
issued to all touched data servers *in parallel* — the bandwidth
aggregation that justifies the architecture — and WRITE commits the new
file size to the MDS afterwards (the LAYOUTCOMMIT step), so GETATTR
through the MDS stays correct.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from repro.nfs.client import NfsClient
from repro.nfs.fh import FileHandle
from repro.payload import join_parts
from repro.sim import AllOf, Counter

__all__ = ["StripedNfsClient"]


class StripedNfsClient:
    """NFS client with pNFS-file-layout data placement."""

    def __init__(self, mds: NfsClient, data: Sequence[NfsClient],
                 stripe_unit: int = 64 * 1024, name: str = "nfs-striped",
                 component_tag: str = ""):
        if not data:
            raise ValueError("striping needs at least one data server")
        if stripe_unit < 1:
            raise ValueError("stripe unit must be positive")
        self.mds = mds
        self.data = list(data)
        self.stripe_unit = stripe_unit
        self.name = name
        #: disambiguates component objects when several MDS namespaces
        #: share the same data servers (fileids are only per-MDS unique).
        self.component_tag = component_tag
        self.root = mds.root
        self.transport = mds.transport
        self.ops = Counter(f"{name}.ops")
        self._sim = mds._sim
        #: fileid -> per-DS component handles (the layout).
        self._layouts: dict[int, list[FileHandle]] = {}
        #: fileid -> logical size committed to the MDS so far.
        self._sizes: dict[int, int] = {}

    def __getattr__(self, verb: str):
        # Metadata verbs (lookup, getattr, mkdir, readdir, fsinfo, ...)
        # pass through to the MDS untouched.
        return getattr(self.mds, verb)

    # -- layout management -------------------------------------------------
    def _component_name(self, fileid: int, index: int) -> str:
        return f".stripe{self.component_tag}.{fileid:x}.{index}"

    def _layout(self, fh: FileHandle) -> Generator:
        """Component handles for ``fh``, created on first touch."""
        components = self._layouts.get(fh.fileid)
        if components is None:
            components = []
            for index, ds in enumerate(self.data):
                cname = self._component_name(fh.fileid, index)
                cfh, _ = yield from ds.create(ds.root, cname)
                components.append(cfh)
            self._layouts[fh.fileid] = components
        return components

    def _extents(self, offset: int, length: int):
        """Split ``[offset, offset+length)`` into per-DS dense extents.

        Yields ``(ds_index, component_offset, start, stop)`` with
        start/stop indexing the caller's logical buffer.
        """
        unit = self.stripe_unit
        ndata = len(self.data)
        pos = offset
        end = offset + length
        while pos < end:
            stripe = pos // unit
            within = pos - stripe * unit
            take = min(unit - within, end - pos)
            yield (stripe % ndata,
                   (stripe // ndata) * unit + within,
                   pos - offset, pos - offset + take)
            pos += take

    # -- data path ---------------------------------------------------------
    def create(self, dir_fh: FileHandle, name: str, mode: int = 0o644) -> Generator:
        fh, attrs = yield from self.mds.create(dir_fh, name, mode)
        yield from self._layout(fh)
        self._sizes[fh.fileid] = attrs.size
        self.ops.add()
        return fh, attrs

    def write(self, fh: FileHandle, offset: int, data: bytes,
              stable: bool = False, write_buffer=None) -> Generator:
        """WRITE split across data servers; returns (count, attrs).

        ``write_buffer`` is ignored: zero-copy needs per-extent
        registered windows, which the component split defeats.
        """
        components = yield from self._layout(fh)
        procs = [
            self._sim.process(
                self.data[ds].write(components[ds], comp_off,
                                    data[start:stop], stable=stable),
                name=f"{self.name}.w{ds}")
            for ds, comp_off, start, stop in self._extents(offset, len(data))
        ]
        yield AllOf(self._sim, procs)
        written = sum(proc.value[0] for proc in procs)
        attrs = yield from self._commit_size(fh, offset + written)
        self.ops.add()
        return written, attrs

    def read(self, fh: FileHandle, offset: int, count: int,
             read_buffer=None) -> Generator:
        """READ reassembled from data servers; returns (data, eof, attrs).

        ``read_buffer`` is ignored for the same reason as on writes:
        parallel extents would scatter into one window.
        """
        size = yield from self._logical_size(fh)
        count = max(0, min(count, size - offset))
        components = yield from self._layout(fh)
        procs = [
            self._sim.process(
                self.data[ds].read(components[ds], comp_off, stop - start),
                name=f"{self.name}.r{ds}")
            for ds, comp_off, start, stop in self._extents(offset, count)
        ]
        yield AllOf(self._sim, procs)
        data = join_parts([proc.value[0] for proc in procs])
        eof = offset + len(data) >= size
        attrs = yield from self.mds.getattr(fh)
        self.ops.add()
        return data, eof, attrs

    def commit(self, fh: FileHandle, offset: int = 0, count: int = 0) -> Generator:
        """COMMIT fans out to every component, then the MDS."""
        components = yield from self._layout(fh)
        for ds, cfh in zip(self.data, components):
            yield from ds.commit(cfh, 0, 0)
        yield from self.mds.commit(fh, offset, count)
        self.ops.add()

    def remove(self, dir_fh: FileHandle, name: str) -> Generator:
        fh, _ = yield from self.mds.lookup(dir_fh, name)
        components = self._layouts.pop(fh.fileid, None)
        if components is not None:
            for index, ds in enumerate(self.data):
                yield from ds.remove(ds.root,
                                     self._component_name(fh.fileid, index))
        self._sizes.pop(fh.fileid, None)
        yield from self.mds.remove(dir_fh, name)
        self.ops.add()

    # -- large-op conveniences: NfsClient's, over the striped paths --------
    read_large = NfsClient.read_large
    write_large = NfsClient.write_large

    # -- size tracking (the LAYOUTCOMMIT dance) ----------------------------
    def _logical_size(self, fh: FileHandle) -> Generator:
        size = self._sizes.get(fh.fileid)
        if size is None:
            attrs = yield from self.mds.getattr(fh)
            size = self._sizes[fh.fileid] = attrs.size
        return size

    def _commit_size(self, fh: FileHandle, end: int) -> Generator:
        """Grow the MDS's idea of the file after a striped write."""
        known = yield from self._logical_size(fh)
        if end > known:
            attrs = yield from self.mds.setattr(fh, size=end)
            self._sizes[fh.fileid] = attrs.size
            return attrs
        return (yield from self.mds.getattr(fh))
