"""The NFSv3 server: RPC program handler over a FileSystem backend.

One instance serves any number of transports (each transport instance
``attach``es the same :class:`repro.rpc.RpcServer`, whose thread pool is
the paper's Fig 1 "server task queue").  Handlers decode args, descend
into the backend file system (which charges its own CPU/disk costs) and
encode results; READ data is returned through the reply's bulk
side-channel so the transport decides how it moves (inline, server
RDMA Write, or exposed read chunks).
"""

from __future__ import annotations

from typing import Generator

from repro.fs.api import FileSystem, FsError
from repro.nfs.fh import FileHandle
from repro.nfs.protocol import (
    FS_STATUS_MAP,
    NFS3_PROG,
    NFS3_VERS,
    FsInfo,
    Nfs3Proc,
    Nfs3Status,
    PathConf,
    encode_direntries,
    encode_fattr,
    encode_fsstat,
)
from repro.rpc.msg import RpcCall, RpcReply
from repro.rpc.svc import RpcServer
from repro.rpc.xdr import XdrDecoder, XdrEncoder, XdrError
from repro.sim import Counter

__all__ = ["NfsServer"]

_OK = Nfs3Status.OK.value


class NfsServer:
    """Dispatches NFSv3 procedures to a backend file system."""

    def __init__(self, rpc_server: RpcServer, fs: FileSystem, fsid: int = 1,
                 max_transfer_bytes: int = 1 << 20, name: str = "nfsd"):
        self.rpc = rpc_server
        self.fs = fs
        self.fsid = fsid
        self.max_transfer_bytes = max_transfer_bytes
        self.name = name
        self.ops = Counter(f"{name}.ops")
        self.errors = Counter(f"{name}.errors")
        #: wire procedure number -> (name, bound ``_do_<name>`` handler).
        self._procs = {
            proc.value: (proc.name, getattr(self, f"_do_{proc.name.lower()}"))
            for proc in Nfs3Proc
        }
        rpc_server.register_program(NFS3_PROG, NFS3_VERS, self.handle)

    # -- helpers -----------------------------------------------------------
    def root_handle(self) -> FileHandle:
        return FileHandle(fsid=self.fsid, fileid=self.fs.root_id)

    def _fh(self, dec: XdrDecoder) -> FileHandle:
        fh = FileHandle.decode(dec)
        if fh.fsid != self.fsid:
            raise FsError("STALE", f"foreign fsid {fh.fsid}")
        return fh

    def _attrs_reply(self, call: RpcCall, attrs) -> RpcReply:
        enc = XdrEncoder()
        enc.u32(_OK)
        encode_fattr(enc, attrs)
        return RpcReply(xid=call.xid, header=enc.take())

    def _error_reply(self, call: RpcCall, status: Nfs3Status) -> RpcReply:
        self.errors.add()
        enc = XdrEncoder()
        enc.u32(int(status))
        return RpcReply(xid=call.xid, header=enc.take())

    # -- dispatcher -----------------------------------------------------------
    def handle(self, call: RpcCall) -> Generator:
        """RPC program handler (runs on an RpcServer worker thread)."""
        self.ops.add()
        entry = self._procs.get(call.proc)
        if entry is None:
            return self._error_reply(call, Nfs3Status.SERVERFAULT)
        name, method = entry
        telemetry = self.rpc.sim.telemetry
        if telemetry is None:
            return (yield from self._run_proc(call, method))
        telemetry.record_server_op(name)
        tracer = telemetry.tracer
        if tracer is None:
            return (yield from self._run_proc(call, method))
        span = tracer.begin(f"nfsd.{name}", "server", "server", "nfsd",
                            parent=tracer.task_span(), xid=call.xid)
        prev = tracer.push_task(span)
        try:
            return (yield from self._run_proc(call, method))
        finally:
            tracer.pop_task(prev)
            span.end()

    def _run_proc(self, call: RpcCall, method) -> Generator:
        try:
            reply = yield from method(call, XdrDecoder(call.header))
            return reply
        except FsError as exc:
            return self._error_reply(
                call, FS_STATUS_MAP.get(exc.status, Nfs3Status.IO)
            )
        except XdrError:
            return self._error_reply(call, Nfs3Status.INVAL)

    # -- procedures -----------------------------------------------------------
    def _do_null(self, call: RpcCall, dec: XdrDecoder) -> Generator:
        if False:  # NULL does nothing, costs nothing
            yield
        return RpcReply(xid=call.xid, header=b"")

    def _do_getattr(self, call: RpcCall, dec: XdrDecoder) -> Generator:
        fh = self._fh(dec)
        attrs = yield from self.fs.getattr(fh.fileid)
        return self._attrs_reply(call, attrs)

    def _do_setattr(self, call: RpcCall, dec: XdrDecoder) -> Generator:
        fh = self._fh(dec)
        size = dec.optional(lambda d: d.u64())
        mode = dec.optional(lambda d: d.u32())
        attrs = yield from self.fs.setattr(fh.fileid, size=size, mode=mode)
        return self._attrs_reply(call, attrs)

    def _do_lookup(self, call: RpcCall, dec: XdrDecoder) -> Generator:
        dir_fh = self._fh(dec)
        name = dec.string()
        fileid = yield from self.fs.lookup(dir_fh.fileid, name)
        attrs = yield from self.fs.getattr(fileid)
        enc = XdrEncoder()
        enc.u32(_OK)
        FileHandle(fsid=self.fsid, fileid=fileid).encode(enc)
        encode_fattr(enc, attrs)
        return RpcReply(xid=call.xid, header=enc.take())

    def _do_access(self, call: RpcCall, dec: XdrDecoder) -> Generator:
        fh = self._fh(dec)
        wanted = dec.u32()
        yield from self.fs.getattr(fh.fileid)  # existence check
        enc = XdrEncoder()
        enc.u32(_OK)
        enc.u32(wanted)  # everything allowed in this model
        return RpcReply(xid=call.xid, header=enc.take())

    def _do_readlink(self, call: RpcCall, dec: XdrDecoder) -> Generator:
        fh = self._fh(dec)
        target = yield from self.fs.readlink(fh.fileid)
        enc = XdrEncoder()
        enc.u32(_OK)
        enc.string(target)
        return RpcReply(xid=call.xid, header=enc.take())

    def _do_read(self, call: RpcCall, dec: XdrDecoder) -> Generator:
        fh = self._fh(dec)
        offset = dec.u64()
        count = dec.u32()
        data, eof = yield from self.fs.read(fh.fileid, offset, count)
        attrs = yield from self.fs.getattr(fh.fileid)
        enc = XdrEncoder()
        enc.u32(_OK)
        encode_fattr(enc, attrs)
        enc.u32(len(data))
        enc.boolean(eof)
        # Data returns via the transport's bulk side-channel.
        return RpcReply(xid=call.xid, header=enc.take(), read_payload=data)

    def _do_write(self, call: RpcCall, dec: XdrDecoder) -> Generator:
        fh = self._fh(dec)
        offset = dec.u64()
        count = dec.u32()
        stable = dec.u32()
        data = call.write_payload or b""
        if len(data) != count:
            raise FsError("INVAL", f"count {count} != payload {len(data)}")
        written = yield from self.fs.write(fh.fileid, offset, data)
        if stable:
            yield from self.fs.commit(fh.fileid)
        attrs = yield from self.fs.getattr(fh.fileid)
        enc = XdrEncoder()
        enc.u32(_OK)
        encode_fattr(enc, attrs)
        enc.u32(written)
        enc.u32(stable)
        return RpcReply(xid=call.xid, header=enc.take())

    def _do_create(self, call: RpcCall, dec: XdrDecoder) -> Generator:
        dir_fh = self._fh(dec)
        name = dec.string()
        mode = dec.u32()
        fileid = yield from self.fs.create(dir_fh.fileid, name, mode)
        attrs = yield from self.fs.getattr(fileid)
        enc = XdrEncoder()
        enc.u32(_OK)
        FileHandle(fsid=self.fsid, fileid=fileid).encode(enc)
        encode_fattr(enc, attrs)
        return RpcReply(xid=call.xid, header=enc.take())

    def _do_mkdir(self, call: RpcCall, dec: XdrDecoder) -> Generator:
        dir_fh = self._fh(dec)
        name = dec.string()
        mode = dec.u32()
        fileid = yield from self.fs.mkdir(dir_fh.fileid, name, mode)
        attrs = yield from self.fs.getattr(fileid)
        enc = XdrEncoder()
        enc.u32(_OK)
        FileHandle(fsid=self.fsid, fileid=fileid).encode(enc)
        encode_fattr(enc, attrs)
        return RpcReply(xid=call.xid, header=enc.take())

    def _do_symlink(self, call: RpcCall, dec: XdrDecoder) -> Generator:
        dir_fh = self._fh(dec)
        name = dec.string()
        target = dec.string()
        fileid = yield from self.fs.symlink(dir_fh.fileid, name, target)
        attrs = yield from self.fs.getattr(fileid)
        enc = XdrEncoder()
        enc.u32(_OK)
        FileHandle(fsid=self.fsid, fileid=fileid).encode(enc)
        encode_fattr(enc, attrs)
        return RpcReply(xid=call.xid, header=enc.take())

    def _do_mknod(self, call: RpcCall, dec: XdrDecoder) -> Generator:
        dir_fh = self._fh(dec)
        name = dec.string()
        mode = dec.u32()
        fileid = yield from self.fs.mknod(dir_fh.fileid, name, mode)
        attrs = yield from self.fs.getattr(fileid)
        enc = XdrEncoder()
        enc.u32(_OK)
        FileHandle(fsid=self.fsid, fileid=fileid).encode(enc)
        encode_fattr(enc, attrs)
        return RpcReply(xid=call.xid, header=enc.take())

    def _do_link(self, call: RpcCall, dec: XdrDecoder) -> Generator:
        target_fh = self._fh(dec)
        dir_fh = self._fh(dec)
        name = dec.string()
        yield from self.fs.link(dir_fh.fileid, name, target_fh.fileid)
        attrs = yield from self.fs.getattr(target_fh.fileid)
        return self._attrs_reply(call, attrs)

    def _do_remove(self, call: RpcCall, dec: XdrDecoder) -> Generator:
        dir_fh = self._fh(dec)
        name = dec.string()
        yield from self.fs.remove(dir_fh.fileid, name)
        enc = XdrEncoder()
        enc.u32(_OK)
        return RpcReply(xid=call.xid, header=enc.take())

    def _do_rmdir(self, call: RpcCall, dec: XdrDecoder) -> Generator:
        dir_fh = self._fh(dec)
        name = dec.string()
        yield from self.fs.rmdir(dir_fh.fileid, name)
        enc = XdrEncoder()
        enc.u32(_OK)
        return RpcReply(xid=call.xid, header=enc.take())

    def _do_rename(self, call: RpcCall, dec: XdrDecoder) -> Generator:
        from_fh = self._fh(dec)
        from_name = dec.string()
        to_fh = self._fh(dec)
        to_name = dec.string()
        yield from self.fs.rename(from_fh.fileid, from_name, to_fh.fileid, to_name)
        enc = XdrEncoder()
        enc.u32(_OK)
        return RpcReply(xid=call.xid, header=enc.take())

    def _do_readdir(self, call: RpcCall, dec: XdrDecoder) -> Generator:
        dir_fh = self._fh(dec)
        dec.u64()  # cookie (single-shot model)
        dec.u32()  # count
        entries = yield from self.fs.readdir(dir_fh.fileid)
        enc = XdrEncoder()
        enc.u32(_OK)
        encode_direntries(enc, entries)
        enc.boolean(True)  # eof
        # Large listings make this a long reply on RDMA transports.
        return RpcReply(xid=call.xid, header=enc.take())

    def _do_readdirplus(self, call: RpcCall, dec: XdrDecoder) -> Generator:
        dir_fh = self._fh(dec)
        dec.u64()  # cookie
        dec.u32()  # dircount
        dec.u32()  # maxcount
        entries = yield from self.fs.readdir(dir_fh.fileid)
        enc = XdrEncoder()
        enc.u32(_OK)
        enc.u32(len(entries))
        for entry in entries:
            attrs = yield from self.fs.getattr(entry.fileid)
            enc.u64(entry.fileid)
            enc.string(entry.name)
            FileHandle(fsid=self.fsid, fileid=entry.fileid).encode(enc)
            encode_fattr(enc, attrs)
        enc.boolean(True)  # eof
        # Fattrs per entry make this the biggest reply NFS produces —
        # guaranteed long-reply territory on the RDMA transports.
        return RpcReply(xid=call.xid, header=enc.take())

    def _do_fsinfo(self, call: RpcCall, dec: XdrDecoder) -> Generator:
        self._fh(dec)
        yield from self.fs.getattr(self.fs.root_id)
        info = FsInfo(
            rtmax=self.max_transfer_bytes,
            rtpref=self.max_transfer_bytes,
            wtmax=self.max_transfer_bytes,
            wtpref=self.max_transfer_bytes,
        )
        enc = XdrEncoder()
        enc.u32(_OK)
        info.encode(enc)
        return RpcReply(xid=call.xid, header=enc.take())

    def _do_pathconf(self, call: RpcCall, dec: XdrDecoder) -> Generator:
        self._fh(dec)
        yield from self.fs.getattr(self.fs.root_id)
        enc = XdrEncoder()
        enc.u32(_OK)
        PathConf().encode(enc)
        return RpcReply(xid=call.xid, header=enc.take())

    def _do_fsstat(self, call: RpcCall, dec: XdrDecoder) -> Generator:
        self._fh(dec)
        stat = yield from self.fs.fsstat()
        enc = XdrEncoder()
        enc.u32(_OK)
        encode_fsstat(enc, stat)
        return RpcReply(xid=call.xid, header=enc.take())

    def _do_commit(self, call: RpcCall, dec: XdrDecoder) -> Generator:
        fh = self._fh(dec)
        dec.u64()  # offset
        dec.u32()  # count
        yield from self.fs.commit(fh.fileid)
        enc = XdrEncoder()
        enc.u32(_OK)
        return RpcReply(xid=call.xid, header=enc.take())
