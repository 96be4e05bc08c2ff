"""Transport interfaces shared by TCP and the two RPC/RDMA designs."""

from __future__ import annotations

import abc
from typing import Generator

from repro.errors import TransportError
from repro.rpc.msg import RpcCall, RpcReply
from repro.rpc.svc import RpcServer

__all__ = ["RpcClientTransport", "RpcServerTransport", "RpcTimeout"]


class RpcTimeout(TransportError):
    """The reply never arrived within the caller's patience."""


class RpcClientTransport(abc.ABC):
    """Client half: issue a call, produce the matching reply."""

    @abc.abstractmethod
    def call(self, call: RpcCall) -> Generator:
        """Process: send ``call``, wait for and return the RpcReply.

        Implementations must preserve the bulk-data contract: the
        reply's ``read_payload`` carries any bulk data the server
        returned, regardless of how it moved on the wire.
        """


class RpcServerTransport(abc.ABC):
    """Server half: receive calls, feed the dispatcher, return replies."""

    #: bytes of server memory this connection exposes to the client's
    #: RDMA Reads, and the exposures behind them (Read-Read replies
    #: awaiting RDMA_DONE); nothing on designs that expose nothing.
    exposed_bytes = 0
    pending_done_count = 0

    @abc.abstractmethod
    def attach(self, server: RpcServer) -> None:
        """Bind to a dispatcher and start the receive path."""
