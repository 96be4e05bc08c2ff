"""RPC/RDMA: the paper's contribution — NFS transport over InfiniBand.

Two complete transport designs, byte-compatible at the RPC layer with
the TCP transport so the same NFS client/server runs over any of them:

:mod:`repro.core.readread`
    Callaghan's original OpenSolaris design.  All bulk data moves by
    RDMA Read: the *server* exposes buffers (read chunks in the RPC
    reply) for NFS READ / long replies, and the client must send
    ``RDMA_DONE`` so the server can release them.  §4.1 catalogues the
    costs: exposed server stags, client-controlled buffer lifetime,
    synchronous reads, the IRD/ORD≤8 cap, and a client-side data copy.

:mod:`repro.core.readwrite`
    The proposed design.  The client advertises write/reply chunks in
    the RPC *call*; the server RDMA-Writes READ data and long replies
    directly into client memory and the guaranteed Write→Send ordering
    lets the reply send carry the completion semantics — no server-side
    exposure, no ``RDMA_DONE``, no server stall, fewer interrupts, and
    a zero-copy client direct-I/O path.

:mod:`repro.core.strategies` provides the four registration strategies
of §4.3 (dynamic, FMR, server buffer-registration cache, all-physical),
pluggable into either design.
"""

from repro.core.chunks import ChunkList, ReadChunk, WriteChunk
from repro.core.config import RpcRdmaConfig
from repro.core.header import MessageType, RpcRdmaHeader
from repro.core.credits import CreditManager
from repro.core.strategies import (
    AllPhysicalStrategy,
    DynamicRegistration,
    FmrStrategy,
    RegisteredRegion,
    RegistrationStrategy,
)
from repro.core.regcache import ClientRegistrationCache, RegistrationCacheStrategy
from repro.core.readread import ReadReadClient, ReadReadServer
from repro.core.readwrite import ReadWriteClient, ReadWriteServer

from repro.core.flowcontrol import (
    AdaptiveCreditPolicy,
    SrqCreditPolicy,
)

__all__ = [
    "AdaptiveCreditPolicy",
    "SrqCreditPolicy",
    "AllPhysicalStrategy",
    "ChunkList",
    "ClientRegistrationCache",
    "CreditManager",
    "DynamicRegistration",
    "FmrStrategy",
    "MessageType",
    "ReadChunk",
    "ReadReadClient",
    "ReadReadServer",
    "ReadWriteClient",
    "ReadWriteServer",
    "RegisteredRegion",
    "RegistrationCacheStrategy",
    "RegistrationStrategy",
    "RpcRdmaConfig",
    "RpcRdmaHeader",
    "WriteChunk",
]
