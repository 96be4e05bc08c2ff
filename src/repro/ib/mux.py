"""QP multiplexing: many mounts riding a few shared connections.

The paper's designs give every mount its own RC queue pair, so N mounts
cost N QPs and N private receive rings — the linear blow-up fig13
measures.  RDMAvisor-style QP sharing (PAPERS.md) and DC-style dynamic
connections collapse that: a client host keeps a small pool of shared
QPs per server and hands each mount a *virtual lane* on one of them.

Two pieces (DESIGN.md §15):

:class:`QpMux`
    One pool of shared *channels* (ordinary
    :class:`~repro.core.base.RpcRdmaClientBase` connections — already
    re-entrant thanks to xid demux and the serialized recovery path)
    between one client host and one server.  The pool holds
    :func:`default_mux_qps` ``= ceil(sqrt(lanes))`` channels — with
    ``lanes/host ~ N/H`` that keeps the fleet-wide QP count at
    ``O(sqrt(N))`` for a fixed host count.  Lanes are pinned to a
    channel at mount time (round-robin) and never migrate, so RC
    in-order delivery gives each lane FIFO semantics for free — the
    server audits exactly that via
    :class:`~repro.rpc.lanes.LaneLedger`.

:class:`MuxLane`
    The per-mount transport handed to :class:`~repro.nfs.client.NfsClient`.
    It stamps ``call.lane``/``call.lane_seq`` (carried in the version-2
    RPC/RDMA header), passes through a per-lane credit gate — a
    fairness slice of the channel window, refreshed from the
    ``lane_credits`` field the server echoes in replies — and delegates
    to the shared channel.  The channel-level
    :class:`~repro.core.credits.CreditManager` stays the hard cap that
    protects the server's shared receive pool; the lane gate only keeps
    one chatty mount from hogging it.

Failure handling comes free: a shared QP dying fails every in-flight
call on it, each of which re-enters the channel's ``call()`` retry
loop; the first one redials (serialized on ``_reconnect_done``) and the
rest ride the new connection — one redial heals all lanes.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Generator

from repro.core.credits import CreditManager
from repro.rpc.lanes import lane_grant
from repro.rpc.msg import RpcCall
from repro.rpc.transport import RpcClientTransport
from repro.sim import Counter

__all__ = ["MuxLane", "QpMux", "default_mux_qps"]


def default_mux_qps(nlanes: int) -> int:
    """``ceil(sqrt(nlanes))`` shared QPs — the RDMAvisor sweet spot."""
    return max(1, math.isqrt(max(0, nlanes - 1)) + 1)


class MuxLane(RpcClientTransport):
    """One mount's virtual lane on a shared channel."""

    def __init__(self, mux: "QpMux", channel: Any, lane_id: int,
                 name: str = "") -> None:
        self.mux = mux
        self.channel = channel
        self.lane_id = lane_id
        self.name = name or f"{channel.name}.lane{lane_id}"
        #: fairness slice of the channel window; the server refreshes it
        #: via the ``lane_credits`` reply field.
        self.credits = CreditManager(
            channel.sim, mux.initial_lane_grant(channel),
            name=f"{self.name}.credits")
        self.calls_sent = Counter(f"{self.name}.calls")
        self._seq = 0

    # NfsClient and the wiring layer read these off any transport.
    @property
    def node(self):
        return self.channel.node

    @property
    def sim(self):
        return self.channel.sim

    @property
    def strategy(self):
        return self.channel.strategy

    def call(self, call: RpcCall) -> Generator:
        call.lane = self.lane_id
        call.lane_seq = self._seq
        self._seq += 1
        yield from self.credits.acquire()
        try:
            reply = yield from self.channel.call(call)
        finally:
            self.credits.release(self.mux.lane_grants.get(self.lane_id))
        self.calls_sent.add()
        return reply


class QpMux:
    """A pool of shared channels between one client host and one server.

    ``make_channel(index)`` builds (and dials) one shared connection —
    the wiring layer owns fabric topology, so the mux stays transport-
    agnostic.  Channels are created eagerly for the planned lane count;
    lanes attach round-robin by id and stay put.
    """

    def __init__(self, name: str, nlanes: int,
                 make_channel: Callable[[int], Any]) -> None:
        self.name = name
        self.planned_lanes = nlanes
        self.channels = [make_channel(i)
                         for i in range(default_mux_qps(nlanes))]
        for channel in self.channels:
            channel.lane_hook = self._on_reply_header
        self.lanes: dict[int, MuxLane] = {}
        #: latest per-lane grant echoed by the server.
        self.lane_grants: dict[int, int] = {}

    @property
    def qp_count(self) -> int:
        return len(self.channels)

    def lanes_on(self, channel: Any) -> int:
        """Planned lane load of ``channel`` (for initial credit slices)."""
        nqps = len(self.channels)
        index = self.channels.index(channel)
        lanes = max(self.planned_lanes, len(self.lanes))
        return max(1, (lanes - index + nqps - 1) // nqps)

    def initial_lane_grant(self, channel: Any) -> int:
        return lane_grant(channel.config.credits, self.lanes_on(channel))

    def add_lane(self, lane_id: int, name: str = "") -> MuxLane:
        if lane_id in self.lanes:
            raise ValueError(f"{self.name}: lane {lane_id} already attached")
        # Round-robin by attachment order, not id: the wiring layer hands
        # out global mount ids with host-count strides, and striding by a
        # shared factor of the pool size would crowd a few channels.
        channel = self.channels[len(self.lanes) % len(self.channels)]
        lane = MuxLane(self, channel, lane_id, name=name)
        self.lanes[lane_id] = lane
        return lane

    def _on_reply_header(self, header: Any) -> None:
        if header.lane_credits > 0:
            self.lane_grants[header.lane] = header.lane_credits
