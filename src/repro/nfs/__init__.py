"""NFS version 3 over any RPC transport.

The protocol layer (:mod:`repro.nfs.protocol`) XDR-encodes the NFSv3
procedures the paper's workloads exercise; the server
(:mod:`repro.nfs.server`) dispatches them to a
:class:`repro.fs.FileSystem` backend; the client
(:mod:`repro.nfs.client`) issues them through any
:class:`repro.rpc.RpcClientTransport` — TCP, Read-Read or Read-Write —
including the direct-I/O zero-copy paths the Read-Write design enables.

Bulk data rides the transport's side-channel (``write_payload`` /
``read_payload``); the length fields in the XDR args/results remain
authoritative, matching how NFS/RDMA chunked encoding works.
"""

from repro.nfs.fh import FileHandle
from repro.nfs.protocol import Nfs3Proc, Nfs3Status, NfsError, NFS3_PROG, NFS3_VERS
from repro.nfs.server import NfsServer
from repro.nfs.client import NfsClient
from repro.nfs.cache import CachingNfsClient, ClientCacheConfig

__all__ = [
    "CachingNfsClient",
    "ClientCacheConfig",
    "FileHandle",
    "NFS3_PROG",
    "NFS3_VERS",
    "Nfs3Proc",
    "Nfs3Status",
    "NfsClient",
    "NfsError",
    "NfsServer",
]
