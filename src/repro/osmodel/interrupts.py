"""Interrupt delivery with per-interrupt CPU cost.

Every completion interrupt steals CPU from the node.  The Read-Write
design eliminates the ``RDMA_DONE`` send (and its interrupt at the
server) and lets one send-completion interrupt cover all preceding RDMA
Writes — §4.2.  Charging interrupts here lets that saving show up in
measured utilization and throughput.
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable, Optional

from repro.sim import Counter, Simulator
from repro.osmodel.cpu import CPU


class InterruptController:
    """Charges CPU for each interrupt and invokes the handler process."""

    def __init__(
        self,
        sim: Simulator,
        cpu: CPU,
        cost_us: float = 4.0,
        name: str = "irq",
    ):
        if cost_us < 0:
            raise ValueError("interrupt cost must be non-negative")
        self.sim = sim
        self.cpu = cpu
        self.cost_us = cost_us
        self.name = name
        self.delivered = Counter(f"{name}.delivered")

    def charge(self) -> Iterable:
        """Deliver one interrupt's CPU charge; drive with ``yield from``."""
        self.delivered.add()
        return self.cpu.consume(self.cost_us, -1)

    def raise_irq(self, handler: Optional[Callable[[], Generator]] = None) -> Generator:
        """Process generator: deliver one interrupt, then run ``handler``."""
        yield from self.charge()
        if handler is not None:
            yield from handler()
