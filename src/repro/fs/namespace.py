"""Shared namespace machinery for the in-memory and disk-backed FSes.

Directories, lookup, create/remove/rename, symlinks and attributes are
identical between tmpfs and the extent FS, and so is the content store:
every inode keeps its bytes in a :class:`SparseFile` paged at the FS's
``page_bytes``.  :class:`NamespaceFs` holds the common state machine;
subclasses provide ``read``/``write``/``commit``/``fsstat`` and may hook
inode removal to reclaim what else they keep per file.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Generator, Optional

from repro.fs.api import (
    DirEntry,
    FileKind,
    FileSystem,
    FsAttributes,
    FsError,
    FsStat,
)
from repro.fs.sparse import SparseFile
from repro.osmodel import CPU
from repro.sim import Simulator

__all__ = ["NamespaceFs", "_Inode"]


@dataclass
class _Inode:
    attrs: FsAttributes
    data: SparseFile
    entries: Optional[dict] = None          # name -> fileid (directories)
    target: Optional[str] = None            # symlinks
    parent: int = 0


class NamespaceFs(FileSystem):
    """Namespace + attributes; data operations live in subclasses."""

    #: page size of every inode's :class:`SparseFile`.
    page_bytes = 64 * 1024

    def __init__(self, sim: Simulator, cpu: CPU, capacity_bytes: int = 1 << 34,
                 per_op_cpu_us: float = 1.5, name: str = "fs"):
        self.sim = sim
        self.cpu = cpu
        self.capacity_bytes = capacity_bytes
        self.per_op_cpu_us = per_op_cpu_us
        self.name = name
        self._ids = itertools.count(self.root_id)
        self._inodes: dict[int, _Inode] = {}
        root = self._new_inode(FileKind.DIRECTORY, mode=0o755)
        assert root == self.root_id
        self.used_bytes = 0

    # -- internals -----------------------------------------------------------
    def _new_inode(self, kind: FileKind, mode: int) -> int:
        fileid = next(self._ids)
        attrs = FsAttributes(
            fileid=fileid, kind=kind, mode=mode,
            atime=self.sim.now, mtime=self.sim.now, ctime=self.sim.now,
            nlink=2 if kind is FileKind.DIRECTORY else 1,
        )
        inode = _Inode(attrs=attrs, data=SparseFile(self.page_bytes))
        if kind is FileKind.DIRECTORY:
            inode.entries = {}
        self._inodes[fileid] = inode
        return fileid

    def _get(self, fileid: int) -> _Inode:
        inode = self._inodes.get(fileid)
        if inode is None:
            raise FsError("STALE", f"no inode {fileid}")
        return inode

    def _get_dir(self, fileid: int) -> _Inode:
        inode = self._get(fileid)
        if inode.attrs.kind is not FileKind.DIRECTORY:
            raise FsError("NOTDIR", f"inode {fileid}")
        return inode

    def _tick(self) -> Generator:
        yield from self.cpu.consume(self.per_op_cpu_us)

    # -- telemetry ------------------------------------------------------------
    def _data_span(self, op: str, **args):
        """Open a ``disk``-category span for a data operation.

        Returns an opaque token for :meth:`_end_span`, or ``None`` when
        telemetry is off.  The span is pushed as the current task span so
        nested device work (RAID stripes) parents under it.
        """
        telemetry = self.sim.telemetry
        if telemetry is None or telemetry.tracer is None:
            return None
        tracer = telemetry.tracer
        span = tracer.begin(f"{self.name}.{op}", "disk", "server", self.name,
                            parent=tracer.task_span(), **args)
        prev = tracer.push_task(span)
        return tracer, span, prev

    def _end_span(self, token) -> None:
        if token is None:
            return
        tracer, span, prev = token
        tracer.pop_task(prev)
        span.end()

    # -- namespace -----------------------------------------------------------
    def lookup(self, dir_id: int, name: str) -> Generator:
        yield from self._tick()
        entries = self._get_dir(dir_id).entries
        if name == ".":
            return dir_id
        if name == "..":
            return self._get(dir_id).parent or self.root_id
        if name not in entries:
            raise FsError("NOENT", name)
        return entries[name]

    def create(self, dir_id: int, name: str, mode: int = 0o644) -> Generator:
        yield from self._tick()
        parent = self._get_dir(dir_id)
        if name in parent.entries:
            raise FsError("EXIST", name)
        fileid = self._new_inode(FileKind.REGULAR, mode)
        self._inodes[fileid].parent = dir_id
        parent.entries[name] = fileid
        parent.attrs.mtime = self.sim.now
        return fileid

    def mkdir(self, dir_id: int, name: str, mode: int = 0o755) -> Generator:
        yield from self._tick()
        parent = self._get_dir(dir_id)
        if name in parent.entries:
            raise FsError("EXIST", name)
        fileid = self._new_inode(FileKind.DIRECTORY, mode)
        self._inodes[fileid].parent = dir_id
        parent.entries[name] = fileid
        parent.attrs.nlink += 1
        return fileid

    def symlink(self, dir_id: int, name: str, target: str) -> Generator:
        yield from self._tick()
        parent = self._get_dir(dir_id)
        if name in parent.entries:
            raise FsError("EXIST", name)
        fileid = self._new_inode(FileKind.SYMLINK, 0o777)
        inode = self._inodes[fileid]
        inode.target = target
        inode.parent = dir_id
        inode.attrs.size = len(target)
        parent.entries[name] = fileid
        return fileid

    def link(self, dir_id: int, name: str, fileid: int) -> Generator:
        yield from self._tick()
        parent = self._get_dir(dir_id)
        if name in parent.entries:
            raise FsError("EXIST", name)
        inode = self._get(fileid)
        if inode.attrs.kind is FileKind.DIRECTORY:
            raise FsError("ISDIR", "hard link to directory")
        parent.entries[name] = fileid
        inode.attrs.nlink += 1
        inode.attrs.ctime = self.sim.now
        parent.attrs.mtime = self.sim.now

    def mknod(self, dir_id: int, name: str, mode: int = 0o644) -> Generator:
        yield from self._tick()
        parent = self._get_dir(dir_id)
        if name in parent.entries:
            raise FsError("EXIST", name)
        fileid = self._new_inode(FileKind.SPECIAL, mode)
        self._inodes[fileid].parent = dir_id
        parent.entries[name] = fileid
        return fileid

    def readlink(self, fileid: int) -> Generator:
        yield from self._tick()
        inode = self._get(fileid)
        if inode.attrs.kind is not FileKind.SYMLINK:
            raise FsError("INVAL", "not a symlink")
        return inode.target

    def remove(self, dir_id: int, name: str) -> Generator:
        yield from self._tick()
        parent = self._get_dir(dir_id)
        fileid = parent.entries.get(name)
        if fileid is None:
            raise FsError("NOENT", name)
        inode = self._get(fileid)
        if inode.attrs.kind is FileKind.DIRECTORY:
            raise FsError("ISDIR", name)
        del parent.entries[name]
        self._unlink(inode)

    def _unlink(self, inode: _Inode) -> None:
        """Drop one name of a non-directory; the last one frees it."""
        inode.attrs.nlink -= 1
        if inode.attrs.nlink <= 0:
            self._drop_data(inode)
            del self._inodes[inode.attrs.fileid]
        else:
            inode.attrs.ctime = self.sim.now

    def rmdir(self, dir_id: int, name: str) -> Generator:
        yield from self._tick()
        parent = self._get_dir(dir_id)
        fileid = parent.entries.get(name)
        if fileid is None:
            raise FsError("NOENT", name)
        child = self._get_dir(fileid)
        if child.entries:
            raise FsError("NOTEMPTY", name)
        del parent.entries[name]
        del self._inodes[fileid]
        parent.attrs.nlink -= 1

    def rename(self, from_dir: int, from_name: str, to_dir: int, to_name: str) -> Generator:
        yield from self._tick()
        src = self._get_dir(from_dir)
        dst = self._get_dir(to_dir)
        fileid = src.entries.get(from_name)
        if fileid is None:
            raise FsError("NOENT", from_name)
        target = dst.entries.get(to_name)
        if target == fileid:
            return      # two names of one file: POSIX rename does nothing
        if target is not None:
            existing = self._get(target)
            if existing.attrs.kind is FileKind.DIRECTORY:
                if existing.entries:
                    raise FsError("NOTEMPTY", to_name)
                del self._inodes[target]
            else:
                self._unlink(existing)
        del src.entries[from_name]
        dst.entries[to_name] = fileid
        self._inodes[fileid].parent = to_dir

    def readdir(self, dir_id: int) -> Generator:
        yield from self._tick()
        inode = self._get_dir(dir_id)
        return [
            DirEntry(name=name, fileid=fid, kind=self._get(fid).attrs.kind)
            for name, fid in sorted(inode.entries.items())
        ]

    # -- attributes -----------------------------------------------------------
    def getattr(self, fileid: int) -> Generator:
        yield from self._tick()
        return self._get(fileid).attrs

    def setattr(self, fileid: int, size=None, mode=None) -> Generator:
        yield from self._tick()
        inode = self._get(fileid)
        if mode is not None:
            inode.attrs.mode = mode
        if size is not None:
            if inode.attrs.kind is not FileKind.REGULAR:
                raise FsError("INVAL", "resize of non-file")
            # Sparse store: growth just moves the logical length (new
            # bytes are holes), shrink drops whole pages and clips the
            # boundary one — no zero-fill either way.
            old = len(inode.data)
            inode.data.truncate(size)
            self.used_bytes += size - old
            inode.attrs.size = size
            inode.attrs.mtime = self.sim.now
        inode.attrs.ctime = self.sim.now
        return inode.attrs

    # -- data hook -----------------------------------------------------------
    def _drop_data(self, inode: _Inode) -> None:
        """Reclaim data storage when an inode is unlinked."""
        self.used_bytes -= len(inode.data)
        inode.data.clear()
