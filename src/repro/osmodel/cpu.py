"""Multi-core CPU model with utilization accounting.

Work is expressed as microseconds of service demand.  ``consume`` claims
a core for that long; ``copy`` converts a byte count into service demand
through the node's memcpy bandwidth (this is what makes TCP and the
Read-Read client path CPU-hungry, and the zero-copy direct-I/O path of
the Read-Write design cheap — §4.2 of the paper).  Both return the
claim itself (a :meth:`Resource.hold <repro.sim.Resource.hold>`), which
callers drive with ``yield from``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable

from repro.sim import Counter, Resource, Simulator, UtilizationMeter


@dataclass(frozen=True)
class CPUConfig:
    """Static description of a node's processor complex.

    ``memcpy_mb_s`` is the effective single-core copy bandwidth; 2007-era
    Opteron/Xeon boxes sustain roughly 1–2 GB/s for large copies.
    ``crypt_mb_s`` is the single-core software AES throughput — pre-AES-NI
    hardware manages on the order of 100–200 MB/s, which is what makes
    the encrypted-payload mitigation a measurable CPU cost rather than
    free.
    """

    cores: int = 2
    memcpy_mb_s: float = 1600.0
    crypt_mb_s: float = 140.0

    def copy_cost_us(self, nbytes: int) -> float:
        """Service demand, in microseconds, to copy ``nbytes`` once."""
        return nbytes / self.memcpy_mb_s  # MB/s == bytes/us

    def crypt_cost_us(self, nbytes: int) -> float:
        """Service demand, in microseconds, to AES one pass over ``nbytes``."""
        return nbytes / self.crypt_mb_s  # MB/s == bytes/us


class CPU:
    """A node's cores as a contended resource.

    All protocol code charges its service demand here, so utilization
    percentages fall out of the time-weighted meter, and saturation
    (e.g. IPoIB's copy-bound ceiling) emerges from queueing rather than
    being asserted.
    """

    def __init__(self, sim: Simulator, config: CPUConfig, name: str = "cpu"):
        self.sim = sim
        self.config = config
        self.name = name
        self.cores = Resource(sim, capacity=config.cores, name=f"{name}.cores")
        self.meter = UtilizationMeter(sim, capacity=config.cores, name=name)
        self._meters = (self.meter,)
        self._busy = Counter(f"{name}.busy_us")
        self.crypt_bytes = Counter(f"{name}.crypt_bytes")

    @property
    def busy_us_total(self) -> float:
        """Core-microseconds of completed work since construction."""
        return self._busy.value

    def consume(self, service_us: float, priority: int = 0) -> Iterable:
        """Occupy one core for ``service_us``; drive with ``yield from``."""
        if service_us < 0:
            raise ValueError(f"negative CPU demand {service_us!r}")
        if service_us == 0.0:
            return ()
        return self.cores.hold(service_us, priority, self._meters, None, self._busy)

    def copy(self, nbytes: int, priority: int = 0) -> Iterable:
        """Charge one memory copy of ``nbytes``; drive with ``yield from``."""
        return self.consume(self.config.copy_cost_us(nbytes), priority)

    def crypt(self, nbytes: int, priority: int = 0) -> Iterable:
        """Charge one AES pass over ``nbytes``; drive with ``yield from``."""
        self.crypt_bytes.add(nbytes)
        return self.consume(self.config.crypt_cost_us(nbytes), priority)

    def stall(self, duration_us: float, priority: int = -1) -> Generator:
        """Process generator: seize *every* core for ``duration_us``.

        Models a whole-node stall (crash-restart window, checkpoint,
        scheduler livelock): all protocol work queues behind the stall
        and resumes when it ends.  High priority so the stall preempts
        the run queue rather than waiting politely at the back.
        """
        if duration_us <= 0:
            return
        requests = [self.cores.request(priority=priority)
                    for _ in range(self.config.cores)]
        for req in requests:
            yield req
            self.meter.acquire()
        try:
            yield self.sim.timeout(duration_us)
            self._busy.add(duration_us * self.config.cores)
        finally:
            for req in requests:
                self.meter.release()
                self.cores.release(req)

    def utilization(self) -> float:
        """Mean fraction of all cores busy since the last window reset."""
        return self.meter.utilization()

    def reset_utilization_window(self) -> None:
        self.meter.reset_window()
