"""The NFSv3 client: procedure wrappers over any RPC transport.

Every method is a simulation process returning decoded results (raising
:class:`NfsError` on non-OK status).  The client supplies the transport
hints the Read-Write design consumes: ``read_len_hint`` (READ count →
write chunk size), ``reply_len_hint`` (READDIR/READLINK → reply chunk),
and the optional direct-I/O buffers for zero-copy transfers.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.nfs.fh import FileHandle
from repro.nfs.protocol import (
    NFS3_PROG,
    NFS3_VERS,
    FsInfo,
    Nfs3Proc,
    Nfs3Status,
    NfsError,
    PathConf,
    decode_direntries,
    decode_fattr,
    decode_fsstat,
)
from repro.payload import join_parts
from repro.rpc.msg import RpcCall
from repro.rpc.transport import RpcClientTransport
from repro.rpc.xdr import XdrDecoder, XdrEncoder
from repro.sim import Counter

__all__ = ["NfsClient"]

#: Generous ceiling for READDIR reply headers (drives the reply chunk).
_READDIR_REPLY_HINT = 64 * 1024

_OK = Nfs3Status.OK.value


class NfsClient:
    """Procedure-level NFSv3 client."""

    def __init__(self, transport: RpcClientTransport, root: FileHandle,
                 name: str = "nfs-client"):
        self.transport = transport
        self.root = root
        self.name = name
        self.ops = Counter(f"{name}.ops")
        self._sim = getattr(transport, "sim", None)
        node = getattr(transport, "node", None)
        endpoint = getattr(transport, "endpoint", None)
        self._pid = (node.name if node is not None
                     else endpoint.name.split(".")[0] if endpoint is not None
                     else "client")

    # -- plumbing -----------------------------------------------------------
    def _call(self, proc: Nfs3Proc, header: bytes, **kwargs) -> Generator:
        call = RpcCall(prog=NFS3_PROG, vers=NFS3_VERS, proc=int(proc),
                       header=header, **kwargs)
        telemetry = self._sim.telemetry if self._sim is not None else None
        if telemetry is None:
            reply = yield from self.transport.call(call)
        else:
            reply = yield from self._call_traced(call, proc.name, telemetry)
        self.ops.add()
        dec = XdrDecoder(reply.header)
        status = dec.u32()
        if status != _OK:
            raise NfsError(Nfs3Status(status), proc)
        return dec, reply

    def _call_traced(self, call: RpcCall, verb: str, telemetry) -> Generator:
        """Traced transport call: a client op span + per-verb latency."""
        tracer = telemetry.tracer
        span = prev = None
        if tracer is not None:
            span = tracer.begin(f"nfs.{verb}", "client", self._pid, "nfs",
                                parent=tracer.task_span(), xid=call.xid)
            prev = tracer.push_task(span)
        start = self._sim.now
        try:
            reply = yield from self.transport.call(call)
        finally:
            telemetry.record_op(self.name, verb, self._sim.now - start)
            if tracer is not None:
                tracer.pop_task(prev)
                span.end()
        return reply

    @staticmethod
    def _enc() -> XdrEncoder:
        return XdrEncoder()

    # -- procedures -----------------------------------------------------------
    def null(self) -> Generator:
        yield from self._call(Nfs3Proc.NULL, b"")

    def getattr(self, fh: FileHandle) -> Generator:
        enc = self._enc()
        fh.encode(enc)
        dec, _ = yield from self._call(Nfs3Proc.GETATTR, enc.take())
        return decode_fattr(dec)

    def setattr(self, fh: FileHandle, size: Optional[int] = None,
                mode: Optional[int] = None) -> Generator:
        enc = self._enc()
        fh.encode(enc)
        enc.optional(size, lambda e, v: e.u64(v))
        enc.optional(mode, lambda e, v: e.u32(v))
        dec, _ = yield from self._call(Nfs3Proc.SETATTR, enc.take())
        return decode_fattr(dec)

    def lookup(self, dir_fh: FileHandle, name: str) -> Generator:
        enc = self._enc()
        dir_fh.encode(enc)
        enc.string(name)
        dec, _ = yield from self._call(Nfs3Proc.LOOKUP, enc.take())
        fh = FileHandle.decode(dec)
        attrs = decode_fattr(dec)
        return fh, attrs

    def access(self, fh: FileHandle, wanted: int = 0x3F) -> Generator:
        enc = self._enc()
        fh.encode(enc)
        enc.u32(wanted)
        dec, _ = yield from self._call(Nfs3Proc.ACCESS, enc.take())
        return dec.u32()

    def readlink(self, fh: FileHandle) -> Generator:
        enc = self._enc()
        fh.encode(enc)
        dec, _ = yield from self._call(
            Nfs3Proc.READLINK, enc.take(), reply_len_hint=4096
        )
        return dec.string()

    def read(self, fh: FileHandle, offset: int, count: int,
             read_buffer=None) -> Generator:
        """READ: returns (data, eof, attrs).

        ``read_buffer`` is the direct-I/O destination: on the Read-Write
        transport the server RDMA-Writes straight into it (zero copy).
        """
        enc = self._enc()
        fh.encode(enc)
        enc.u64(offset)
        enc.u32(count)
        dec, reply = yield from self._call(
            Nfs3Proc.READ, enc.take(),
            read_len_hint=count, read_buffer=read_buffer,
        )
        attrs = decode_fattr(dec)
        returned = dec.u32()
        eof = dec.boolean()
        data = (reply.read_payload or b"")[:returned]
        if len(data) != returned:
            raise NfsError(Nfs3Status.IO, Nfs3Proc.READ)
        return data, eof, attrs

    def write(self, fh: FileHandle, offset: int, data: bytes,
              stable: bool = False, write_buffer=None) -> Generator:
        """WRITE: returns (count, attrs).

        ``write_buffer`` is the registered source for zero-copy sends on
        RDMA transports (must already hold ``data``).
        """
        enc = self._enc()
        fh.encode(enc)
        enc.u64(offset)
        enc.u32(len(data))
        enc.u32(1 if stable else 0)
        dec, _ = yield from self._call(
            Nfs3Proc.WRITE, enc.take(),
            write_payload=data, write_buffer=write_buffer,
        )
        attrs = decode_fattr(dec)
        written = dec.u32()
        return written, attrs

    def create(self, dir_fh: FileHandle, name: str, mode: int = 0o644) -> Generator:
        enc = self._enc()
        dir_fh.encode(enc)
        enc.string(name)
        enc.u32(mode)
        dec, _ = yield from self._call(Nfs3Proc.CREATE, enc.take())
        fh = FileHandle.decode(dec)
        attrs = decode_fattr(dec)
        return fh, attrs

    def mkdir(self, dir_fh: FileHandle, name: str, mode: int = 0o755) -> Generator:
        enc = self._enc()
        dir_fh.encode(enc)
        enc.string(name)
        enc.u32(mode)
        dec, _ = yield from self._call(Nfs3Proc.MKDIR, enc.take())
        fh = FileHandle.decode(dec)
        attrs = decode_fattr(dec)
        return fh, attrs

    def symlink(self, dir_fh: FileHandle, name: str, target: str) -> Generator:
        enc = self._enc()
        dir_fh.encode(enc)
        enc.string(name)
        enc.string(target)
        dec, _ = yield from self._call(Nfs3Proc.SYMLINK, enc.take())
        fh = FileHandle.decode(dec)
        attrs = decode_fattr(dec)
        return fh, attrs

    def mknod(self, dir_fh: FileHandle, name: str, mode: int = 0o644) -> Generator:
        enc = self._enc()
        dir_fh.encode(enc)
        enc.string(name)
        enc.u32(mode)
        dec, _ = yield from self._call(Nfs3Proc.MKNOD, enc.take())
        fh = FileHandle.decode(dec)
        attrs = decode_fattr(dec)
        return fh, attrs

    def link(self, target: FileHandle, dir_fh: FileHandle, name: str) -> Generator:
        enc = self._enc()
        target.encode(enc)
        dir_fh.encode(enc)
        enc.string(name)
        dec, _ = yield from self._call(Nfs3Proc.LINK, enc.take())
        return decode_fattr(dec)

    def remove(self, dir_fh: FileHandle, name: str) -> Generator:
        enc = self._enc()
        dir_fh.encode(enc)
        enc.string(name)
        yield from self._call(Nfs3Proc.REMOVE, enc.take())

    def rmdir(self, dir_fh: FileHandle, name: str) -> Generator:
        enc = self._enc()
        dir_fh.encode(enc)
        enc.string(name)
        yield from self._call(Nfs3Proc.RMDIR, enc.take())

    def rename(self, from_dir: FileHandle, from_name: str,
               to_dir: FileHandle, to_name: str) -> Generator:
        enc = self._enc()
        from_dir.encode(enc)
        enc.string(from_name)
        to_dir.encode(enc)
        enc.string(to_name)
        yield from self._call(Nfs3Proc.RENAME, enc.take())

    def readdir(self, dir_fh: FileHandle, count: int = _READDIR_REPLY_HINT) -> Generator:
        enc = self._enc()
        dir_fh.encode(enc)
        enc.u64(0)      # cookie
        enc.u32(count)
        dec, _ = yield from self._call(
            Nfs3Proc.READDIR, enc.take(), reply_len_hint=count
        )
        entries = decode_direntries(dec)
        dec.boolean()   # eof
        return entries

    def readdirplus(self, dir_fh: FileHandle,
                    count: int = 4 * _READDIR_REPLY_HINT) -> Generator:
        """READDIRPLUS: entries with attributes and handles.

        Per-entry fattrs make this reply several times larger than
        READDIR's — the heaviest long-reply producer in the protocol.
        """
        enc = self._enc()
        dir_fh.encode(enc)
        enc.u64(0)       # cookie
        enc.u32(count)   # dircount
        enc.u32(count)   # maxcount
        dec, _ = yield from self._call(
            Nfs3Proc.READDIRPLUS, enc.take(), reply_len_hint=count
        )
        n = dec.u32()
        out = []
        for _ in range(n):
            fileid = dec.u64()
            name = dec.string()
            fh = FileHandle.decode(dec)
            attrs = decode_fattr(dec)
            out.append((name, fh, attrs))
        dec.boolean()    # eof
        return out

    def fsinfo(self, fh: Optional[FileHandle] = None) -> Generator:
        enc = self._enc()
        (fh or self.root).encode(enc)
        dec, _ = yield from self._call(Nfs3Proc.FSINFO, enc.take())
        return FsInfo.decode(dec)

    def pathconf(self, fh: Optional[FileHandle] = None) -> Generator:
        enc = self._enc()
        (fh or self.root).encode(enc)
        dec, _ = yield from self._call(Nfs3Proc.PATHCONF, enc.take())
        return PathConf.decode(dec)

    def fsstat(self, fh: Optional[FileHandle] = None) -> Generator:
        enc = self._enc()
        (fh or self.root).encode(enc)
        dec, _ = yield from self._call(Nfs3Proc.FSSTAT, enc.take())
        return decode_fsstat(dec)

    def commit(self, fh: FileHandle, offset: int = 0, count: int = 0) -> Generator:
        enc = self._enc()
        fh.encode(enc)
        enc.u64(offset)
        enc.u32(count)
        yield from self._call(Nfs3Proc.COMMIT, enc.take())

    # -- conveniences -----------------------------------------------------------
    def read_large(self, fh: FileHandle, offset: int, count: int,
                   limit: int = 1 << 20, read_buffer=None) -> Generator:
        """READ of arbitrary size, split at the server's rtmax.

        Real clients size each wire READ by FSINFO's ``rtmax``; pass the
        negotiated limit (``(yield from fsinfo()).rtmax``).
        Returns (data, eof).
        """
        if limit < 1:
            raise ValueError("transfer limit must be positive")
        parts = []
        pos = offset
        remaining = count
        eof = False
        while remaining > 0 and not eof:
            take = min(limit, remaining)
            data, eof, _ = yield from self.read(fh, pos, take,
                                                read_buffer=read_buffer)
            parts.append(data)
            pos += len(data)
            remaining -= len(data)
            if not data:
                break
        return join_parts(parts), eof

    def write_large(self, fh: FileHandle, offset: int, data: bytes,
                    limit: int = 1 << 20, stable: bool = False,
                    write_buffer=None) -> Generator:
        """WRITE of arbitrary size, split at the server's wtmax."""
        if limit < 1:
            raise ValueError("transfer limit must be positive")
        pos = 0
        while pos < len(data):
            chunk = data[pos : pos + limit]
            written, _ = yield from self.write(fh, offset + pos, chunk,
                                               stable=stable,
                                               write_buffer=write_buffer)
            pos += written
        if stable:
            yield from self.commit(fh)
        return len(data)

    def walk(self, path: str) -> Generator:
        """Resolve an absolute slash path to (fh, attrs)."""
        fh = self.root
        attrs = None
        for part in [p for p in path.split("/") if p]:
            fh, attrs = yield from self.lookup(fh, part)
        if attrs is None:
            attrs = yield from self.getattr(fh)
        return fh, attrs
