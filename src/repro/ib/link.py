"""Wire model: full-duplex ports with bandwidth, latency and chunking.

A node owns one port (:class:`DuplexLink`) with independent transmit
(egress) and receive (ingress) sides.  Traffic from one port to another
moves over a :class:`Route`, built once per sending port → receiving
port when a connection (a TCP direction or an RDMA queue pair) is
wired: it takes the pair's bandwidth (the slower port's), chunk size,
per-message overhead and latencies once, and prices each message with
:meth:`Route.delays`.  A message claims the sender's egress and the
receiver's ingress *per chunk*, so concurrent flows interleave fairly at
chunk granularity while a single node's aggregate in/out bandwidth is
capped by its port — which is exactly what caps the NFS server at its
link rate in the multi-client experiments (Fig 10).

Bandwidth is expressed in MB/s, which conveniently equals bytes/µs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable

from repro.sim import Counter, Resource, Simulator, UtilizationMeter

__all__ = ["DuplexLink", "LinkConfig", "LinkFaultHook", "PortDirection", "Route"]


class LinkFaultHook:
    """Fault-injection interface a port consults when one is installed.

    The default implementation is a no-op; `repro.faults` provides the
    deterministic injector.  ``DuplexLink.fault_hook`` is ``None`` unless
    a fault plan is armed, so the fault-free fast path costs a single
    attribute check and schedules no events.
    """

    def transfer_delay_us(self, link: "DuplexLink", nbytes: int) -> float:
        """Extra one-way delay (congestion spike) for this transfer."""
        return 0.0

    def drop_message(self, link: "DuplexLink") -> bool:
        """True to silently discard a channel message arriving at ``link``.

        Consulted by the receiving HCA for Send deliveries only: RDMA
        Read/Write data is never dropped (the RC protocol retries those
        below the verbs layer), so loss surfaces exactly where an RPC
        transport must handle it — a call or reply that never arrives.
        """
        return False


@dataclass(frozen=True)
class LinkConfig:
    """Static wire parameters.

    ``per_message_overhead_bytes`` folds headers/CRC/ack overhead into an
    effective per-message cost; ``chunk_bytes`` sets the interleaving
    granularity (an MTU-train, not a single MTU, to keep event counts
    reasonable).
    """

    bandwidth_mb_s: float = 950.0
    latency_us: float = 1.5
    per_message_overhead_bytes: int = 64
    chunk_bytes: int = 32 * 1024

    def __post_init__(self):
        if self.bandwidth_mb_s <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_us < 0:
            raise ValueError("latency must be non-negative")
        if self.per_message_overhead_bytes < 0:
            raise ValueError("per-message overhead must be non-negative")
        if self.chunk_bytes < 1024:
            raise ValueError("chunk size unreasonably small")


class PortDirection:
    """One direction (egress or ingress) of a node's port."""

    def __init__(self, sim: Simulator, config: LinkConfig, name: str):
        self.sim = sim
        self.config = config
        self.name = name
        self.arbiter = Resource(sim, capacity=1, name=f"{name}.arbiter")
        self.meter = UtilizationMeter(sim, capacity=1.0, name=name)
        self.bytes_carried = Counter(f"{name}.bytes")


class DuplexLink:
    """A node's network port (tx + rx) attached to a full-bisection fabric."""

    def __init__(self, sim: Simulator, config: LinkConfig, name: str = "port"):
        self.sim = sim
        self.config = config
        self.name = name
        self.tx = PortDirection(sim, config, f"{name}.tx")
        self.rx = PortDirection(sim, config, f"{name}.rx")
        #: optional LinkFaultHook; installed by a FaultInjector, else None.
        self.fault_hook = None

    def utilization(self) -> tuple[float, float]:
        """(tx, rx) mean utilization since window reset."""
        return self.tx.meter.utilization(), self.rx.meter.utilization()


class Route:
    """The wire from one sending port to one receiving port, priced once.

    A port pair's wire never changes, so its owner (a TCP direction or
    an RDMA queue pair) builds one when it is wired and carries every
    message over it.  Neither port refers to the route, so it is freed
    with its owner by reference counting alone.
    """

    __slots__ = ("src", "dst", "bandwidth_mb_s", "chunk_bytes", "chunk_us",
                 "overhead_bytes", "propagation_us", "ack_us", "arbiter",
                 "partner", "meters", "tx_bytes", "rx_bytes")

    def __init__(self, src: DuplexLink, dst: DuplexLink):
        cfg = src.config
        self.src = src
        self.dst = dst
        #: the slower of the two ports paces the pair.
        self.bandwidth_mb_s = min(cfg.bandwidth_mb_s, dst.config.bandwidth_mb_s)
        self.chunk_bytes = cfg.chunk_bytes
        self.chunk_us = cfg.chunk_bytes / self.bandwidth_mb_s
        self.overhead_bytes = cfg.per_message_overhead_bytes
        #: one-way propagation delay, switch hop included.
        self.propagation_us = cfg.latency_us + dst.config.latency_us
        #: the receiver's side of the hop an ack takes back.
        self.ack_us = dst.config.latency_us
        self.arbiter = src.tx.arbiter
        self.partner = dst.rx.arbiter
        self.meters = (src.tx.meter, dst.rx.meter)
        self.tx_bytes = src.tx.bytes_carried
        self.rx_bytes = dst.rx.bytes_carried

    def delays(self, nbytes: int):
        """Wire time of an ``nbytes`` message with its overhead: one
        delay, or a list with one per chunk (empty for zero bytes)."""
        if nbytes < 0:
            raise ValueError("negative transfer size")
        total = nbytes + self.overhead_bytes
        chunk = self.chunk_bytes
        if total <= chunk:
            return total / self.bandwidth_mb_s if total > 0 else []
        full, tail = divmod(total, chunk)
        delays = [self.chunk_us] * full
        if tail:
            delays.append(tail / self.bandwidth_mb_s)
        return delays

    def carry(self, nbytes: int, delays=None) -> Iterable:
        """Serialize ``nbytes`` onto the wire; drive with ``yield from``.

        ``delays`` is :meth:`delays` of ``nbytes`` when the caller has
        priced the message already.  Completes when the last byte has
        left the wire — *not* when it arrives; callers add
        :attr:`propagation_us` so back-to-back messages pipeline the way
        real HCAs do.  Each chunk claims source egress and then
        destination ingress (one :meth:`Resource.hold
        <repro.sim.Resource.hold>` cycle per chunk, the ingress as its
        partner), so the slower of the two ports paces the transfer and
        concurrent flows share fairly.  The bytes are counted on both
        ports when the transfer is issued.  The source's fault hook is
        read here, not at construction, because a fault injector
        installs it after the connections are wired.
        """
        if delays is None:
            delays = self.delays(nbytes)
        self.tx_bytes.add(nbytes)
        self.rx_bytes.add(nbytes)
        wire = self.arbiter.hold(delays, 0, self.meters, self.partner)
        hook = self.src.fault_hook
        if hook is not None:
            spike = hook.transfer_delay_us(self.src, nbytes)
            if spike > 0.0:
                return _after_spike(self.src.sim, spike, wire)
        return wire


def _after_spike(sim: Simulator, spike: float, wire: Iterable) -> Generator:
    """A congestion spike (fault injection) delays the whole transfer."""
    yield sim.timeout(spike)
    yield from wire
