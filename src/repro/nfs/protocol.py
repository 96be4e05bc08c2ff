"""NFSv3 procedure numbers, status codes and XDR codecs (RFC 1813 subset).

Bulk data (READ results, WRITE args) travels out-of-band on the
transport (`read_payload` / `write_payload`); the XDR ``count`` fields
remain authoritative and are checked against the payload length on
decode.  This mirrors RPC/RDMA chunked encoding, where data never sits
inside the XDR stream either.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Optional

from repro.errors import NfsStatusError
from repro.fs.api import DirEntry, FileKind, FsAttributes, FsStat
from repro.rpc.xdr import XdrDecoder, XdrEncoder

__all__ = [
    "FsInfo",
    "NFS3_PROG",
    "NFS3_VERS",
    "PathConf",
    "Nfs3Proc",
    "Nfs3Status",
    "NfsError",
    "decode_fattr",
    "encode_fattr",
]

NFS3_PROG = 100003
NFS3_VERS = 3


class Nfs3Proc(enum.IntEnum):
    NULL = 0
    GETATTR = 1
    SETATTR = 2
    LOOKUP = 3
    ACCESS = 4
    READLINK = 5
    READ = 6
    WRITE = 7
    CREATE = 8
    MKDIR = 9
    SYMLINK = 10
    MKNOD = 11
    REMOVE = 12
    RMDIR = 13
    RENAME = 14
    LINK = 15
    READDIR = 16
    READDIRPLUS = 17
    FSSTAT = 18
    FSINFO = 19
    PATHCONF = 20
    COMMIT = 21


class Nfs3Status(enum.IntEnum):
    OK = 0
    PERM = 1
    NOENT = 2
    IO = 5
    ACCES = 13
    EXIST = 17
    NOTDIR = 20
    ISDIR = 21
    INVAL = 22
    NOSPC = 28
    STALE = 70
    NOTEMPTY = 66
    SERVERFAULT = 10006


#: FsError.status string -> NFS status code.
FS_STATUS_MAP = {
    "NOENT": Nfs3Status.NOENT,
    "EXIST": Nfs3Status.EXIST,
    "NOTDIR": Nfs3Status.NOTDIR,
    "ISDIR": Nfs3Status.ISDIR,
    "INVAL": Nfs3Status.INVAL,
    "NOSPC": Nfs3Status.NOSPC,
    "STALE": Nfs3Status.STALE,
    "NOTEMPTY": Nfs3Status.NOTEMPTY,
}


class NfsError(NfsStatusError):
    """Client-side exception carrying the NFS status."""

    def __init__(self, status: Nfs3Status, proc: Optional[Nfs3Proc] = None):
        super().__init__(f"{proc.name if proc else 'NFS'}: {status.name}",
                         status=status)
        self.proc = proc


_KIND_TO_WIRE = {
    FileKind.REGULAR: 1,
    FileKind.DIRECTORY: 2,
    FileKind.SYMLINK: 5,
    FileKind.SPECIAL: 6,  # FIFO stand-in for all special nodes
}
_WIRE_TO_KIND = {v: k for k, v in _KIND_TO_WIRE.items()}


#: fattr3: type, mode, nlink, uid, gid; size, used, rdev, fsid, fileid;
#: then atime, mtime, ctime as (seconds, nanoseconds) pairs.
_FATTR = struct.Struct(">5I5Q6I")


def encode_fattr(enc: XdrEncoder, attrs: FsAttributes) -> None:
    atime, mtime, ctime = attrs.atime, attrs.mtime, attrs.ctime
    enc.pack(
        _FATTR,
        _KIND_TO_WIRE[attrs.kind], attrs.mode, attrs.nlink, attrs.uid, attrs.gid,
        attrs.size, attrs.size, 0, 1, attrs.fileid,
        int(atime) & 0xFFFFFFFF, int((atime % 1.0) * 1e9),
        int(mtime) & 0xFFFFFFFF, int((mtime % 1.0) * 1e9),
        int(ctime) & 0xFFFFFFFF, int((ctime % 1.0) * 1e9),
    )


def decode_fattr(dec: XdrDecoder) -> FsAttributes:
    (kind, mode, nlink, uid, gid, size, _used, _rdev, _fsid, fileid,
     asec, ansec, msec, mnsec, csec, cnsec) = dec.unpack(_FATTR)
    return FsAttributes(
        fileid=fileid, kind=_WIRE_TO_KIND[kind], size=size, mode=mode,
        nlink=nlink, uid=uid, gid=gid, atime=asec + ansec / 1e9,
        mtime=msec + mnsec / 1e9, ctime=csec + cnsec / 1e9,
    )


def encode_direntries(enc: XdrEncoder, entries: list[DirEntry]) -> None:
    enc.array(
        entries,
        lambda e, ent: (e.u64(ent.fileid), e.string(ent.name),
                        e.u32(_KIND_TO_WIRE[ent.kind])),
    )


def decode_direntries(dec: XdrDecoder) -> list[DirEntry]:
    return dec.array(
        lambda d: DirEntry(fileid=d.u64(), name=d.string(),
                           kind=_WIRE_TO_KIND[d.u32()]),
        max_items=1 << 16,
    )


@dataclass(frozen=True)
class FsInfo:
    """FSINFO results: the server's transfer-size contract.

    ``rtmax``/``wtmax`` advertise the maximum READ/WRITE transfer the
    transport supports — on RPC/RDMA that is the 1 MiB chunk ceiling
    (``NfsServer.max_transfer_bytes``), which is how a real client
    learns to size its write chunks."""

    rtmax: int
    rtpref: int
    wtmax: int
    wtpref: int
    dtpref: int = 64 * 1024
    maxfilesize: int = 1 << 50
    time_delta_ns: int = 1

    def encode(self, enc: XdrEncoder) -> None:
        enc.u32(self.rtmax)
        enc.u32(self.rtpref)
        enc.u32(self.wtmax)
        enc.u32(self.wtpref)
        enc.u32(self.dtpref)
        enc.u64(self.maxfilesize)
        enc.u32(0)
        enc.u32(self.time_delta_ns)

    @classmethod
    def decode(cls, dec: XdrDecoder) -> "FsInfo":
        rtmax = dec.u32()
        rtpref = dec.u32()
        wtmax = dec.u32()
        wtpref = dec.u32()
        dtpref = dec.u32()
        maxfilesize = dec.u64()
        dec.u32()
        delta = dec.u32()
        return cls(rtmax=rtmax, rtpref=rtpref, wtmax=wtmax, wtpref=wtpref,
                   dtpref=dtpref, maxfilesize=maxfilesize, time_delta_ns=delta)


@dataclass(frozen=True)
class PathConf:
    """PATHCONF results (static limits)."""

    linkmax: int = 32000
    name_max: int = 255
    no_trunc: bool = True
    case_insensitive: bool = False

    def encode(self, enc: XdrEncoder) -> None:
        enc.u32(self.linkmax)
        enc.u32(self.name_max)
        enc.boolean(self.no_trunc)
        enc.boolean(False)  # chown_restricted
        enc.boolean(self.case_insensitive)
        enc.boolean(True)   # case_preserving

    @classmethod
    def decode(cls, dec: XdrDecoder) -> "PathConf":
        linkmax = dec.u32()
        name_max = dec.u32()
        no_trunc = dec.boolean()
        dec.boolean()
        case_insensitive = dec.boolean()
        dec.boolean()
        return cls(linkmax=linkmax, name_max=name_max, no_trunc=no_trunc,
                   case_insensitive=case_insensitive)


def encode_fsstat(enc: XdrEncoder, stat: FsStat) -> None:
    enc.u64(stat.total_bytes)
    enc.u64(stat.free_bytes)
    enc.u64(stat.free_bytes)  # avail == free (no reservations)
    enc.u64(stat.total_files)
    enc.u64(stat.free_files)
    enc.u64(stat.free_files)


def decode_fsstat(dec: XdrDecoder) -> FsStat:
    total_bytes = dec.u64()
    free_bytes = dec.u64()
    dec.u64()
    total_files = dec.u64()
    free_files = dec.u64()
    dec.u64()
    return FsStat(total_bytes=total_bytes, free_bytes=free_bytes,
                  total_files=total_files, free_files=free_files)
