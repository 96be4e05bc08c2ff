"""ONC RPC over TCP: the baseline transport the paper compares against.

Record framing: each RPC message on the wire is
``[u32 header_len][header][bulk payload]`` — byte-count-equivalent to
classic XDR-inline encoding (NFS WRITE data lives inside the args
opaque) while keeping the header/bulk split explicit, so the same NFS
layer runs over every transport.

All of TCP's per-byte copy and checksum CPU is charged inside
:class:`repro.tcpip.tcp.TcpConnection`; this module only adds XID
demultiplexing and the connection-per-client server loop.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.rpc.msg import RpcCall, RpcReply, frame_message, unframe_message
from repro.rpc.svc import RpcServer
from repro.rpc.transport import RpcClientTransport, RpcServerTransport
from repro.sim import Counter, Event
from repro.tcpip.tcp import TcpConnection, TcpEndpoint

__all__ = ["TcpRpcClient", "TcpRpcServerTransport"]

class TcpRpcClient(RpcClientTransport):
    """Client endpoint of RPC-over-TCP with XID demultiplexing.

    The modelled TCP connection never loses a message, so a call is
    sent once and waited for; there is no retransmit timer.
    """

    def __init__(self, endpoint: TcpEndpoint, conn: TcpConnection,
                 name: str = "rpc-tcp"):
        self.sim = endpoint.sim
        self.endpoint = endpoint
        self.conn = conn
        self.name = name
        # Telemetry process label: "client0.tcp" endpoint → "client0".
        self.node_name = endpoint.name.split(".")[0]
        self._pending: dict[int, Event] = {}
        self.calls_sent = Counter(f"{name}.calls")
        self.sim.process(self._receiver(), name=f"{name}.rx")

    def call(self, call: RpcCall) -> Generator:
        """Send the call and wait for the reply with its XID."""
        telemetry = self.sim.telemetry
        tracer = telemetry.tracer if telemetry is not None else None
        if tracer is None:
            return (yield from self._call_inner(call))
        span = tracer.begin("rpc.call", "rpc", self.node_name, "rpctcp",
                            parent=tracer.task_span(), xid=call.xid)
        call.trace_id = span.trace_id
        prev = tracer.push_task(span)
        tracer.bind_xid(call.xid, span)
        try:
            return (yield from self._call_inner(call))
        finally:
            tracer.unbind_xid(call.xid, span)
            tracer.pop_task(prev)
            span.end()

    def _call_inner(self, call: RpcCall) -> Generator:
        waiter = Event(self.sim)
        self._pending[call.xid] = waiter
        message = frame_message(call.encode(), call.write_payload)
        yield from self.conn.send(self.endpoint, message)
        self.calls_sent.add()
        return (yield waiter)

    def _receiver(self) -> Generator:
        while True:
            message = yield self.conn.recv(self.endpoint)
            header, payload = unframe_message(message)
            reply = RpcReply.decode(header)
            reply.read_payload = payload
            waiter = self._pending.pop(reply.xid, None)
            if waiter is None:
                # No call waits on this xid: drop, as a real client would.
                continue
            waiter.succeed(reply)


class TcpRpcServerTransport(RpcServerTransport):
    """Server side: one instance per accepted client connection."""

    def __init__(self, endpoint: TcpEndpoint, conn: TcpConnection, name: str = "rpc-tcpd"):
        self.sim = endpoint.sim
        self.endpoint = endpoint
        self.conn = conn
        self.name = name
        self.server: Optional[RpcServer] = None
        self.calls_received = Counter(f"{name}.calls")

    def attach(self, server: RpcServer) -> None:
        if self.server is not None:
            raise RuntimeError("transport already attached")
        self.server = server
        self.sim.process(self._receiver(), name=f"{self.name}.rx")

    def _receiver(self) -> Generator:
        assert self.server is not None
        while True:
            message = yield self.conn.recv(self.endpoint)
            header, payload = unframe_message(message)
            call = RpcCall.decode(header)
            call.write_payload = payload
            self.calls_received.add()
            # Blocking submit: a full bounded run queue stalls the
            # receive loop, so backpressure propagates through the TCP
            # window exactly as a real kernel RPC service would.
            yield from self.server.submit_process(call, self._responder(call))

    def _responder(self, call: RpcCall):
        def respond(reply: RpcReply) -> Generator:
            message = frame_message(reply.encode(), reply.read_payload)
            yield from self.conn.send(self.endpoint, message)

        return respond
