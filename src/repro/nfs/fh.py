"""NFSv3 file handles: opaque server-minted capabilities for inodes."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.rpc.xdr import XdrDecoder, XdrEncoder, XdrError

__all__ = ["FileHandle"]

_FH_BYTES = 16
#: the handle as an XDR opaque: length (always 16), then the body —
#: fsid, fileid, generation.
_FH = struct.Struct(">IIQI")


@dataclass(frozen=True)
class FileHandle:
    """(fsid, fileid, generation) packed into a 16-byte opaque handle."""

    fsid: int
    fileid: int
    generation: int = 0

    def encode(self, enc: XdrEncoder) -> None:
        enc.pack(_FH, _FH_BYTES, self.fsid, self.fileid, self.generation)

    @classmethod
    def decode(cls, dec: XdrDecoder) -> "FileHandle":
        length, fsid, fileid, generation = dec.unpack(_FH)
        if length != _FH_BYTES:
            raise XdrError(f"file handle of {length} bytes, expected {_FH_BYTES}")
        return cls(fsid=fsid, fileid=fileid, generation=generation)
