"""Wire model: full-duplex ports with bandwidth, latency and chunking.

A node owns one port with independent transmit (egress) and receive
(ingress) sides.  A message transfer claims the sender's egress and the
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

__all__ = ["DuplexLink", "LinkConfig", "LinkFaultHook", "PortDirection"]


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
        if self.chunk_bytes < 1024:
            raise ValueError("chunk size unreasonably small")

    def wire_time_us(self, nbytes: int) -> float:
        """Serialisation time for ``nbytes`` plus per-message overhead."""
        return (nbytes + self.per_message_overhead_bytes) / self.bandwidth_mb_s


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

    def propagation_us(self, dst: "DuplexLink") -> float:
        """One-way propagation delay to ``dst`` (switch hop included)."""
        return self.config.latency_us + dst.config.latency_us

    def transfer(self, dst: "DuplexLink", nbytes: int) -> Iterable:
        """Serialize ``nbytes`` from this port toward ``dst``; drive with
        ``yield from``.

        Completes when the last byte has left the wire — *not* when it
        arrives; callers model propagation with :meth:`propagation_us`
        so back-to-back messages pipeline the way real HCAs do.  Each
        chunk claims source egress and then destination ingress (one
        :meth:`Resource.hold <repro.sim.Resource.hold>` cycle per chunk,
        the ingress as its partner), so the slower of the two ports
        paces the transfer and concurrent flows share fairly.  The bytes
        are counted on both ports when the transfer is issued.
        """
        if nbytes < 0:
            raise ValueError("negative transfer size")
        cfg = self.config
        total = nbytes + cfg.per_message_overhead_bytes
        bw = min(cfg.bandwidth_mb_s, dst.config.bandwidth_mb_s)
        chunk = cfg.chunk_bytes
        if total <= chunk:
            delays = total / bw if total > 0 else []
        else:
            full, tail = divmod(total, chunk)
            delays = [chunk / bw] * full
            if tail:
                delays.append(tail / bw)
        self.tx.bytes_carried.add(nbytes)
        dst.rx.bytes_carried.add(nbytes)
        wire = self.tx.arbiter.hold(delays, 0, (self.tx.meter, dst.rx.meter),
                                    dst.rx.arbiter)
        if self.fault_hook is not None:
            spike = self.fault_hook.transfer_delay_us(self, nbytes)
            if spike > 0.0:
                return self._after_spike(spike, wire)
        return wire

    def _after_spike(self, spike: float, wire: Iterable) -> Generator:
        """A congestion spike (fault injection) delays the whole transfer."""
        yield self.sim.timeout(spike)
        yield from wire

    def utilization(self) -> tuple[float, float]:
        """(tx, rx) mean utilization since window reset."""
        return self.tx.meter.utilization(), self.rx.meter.utilization()
