"""Instrumentation: counters and utilization meters.

Utilization accounting is time-weighted: a :class:`UtilizationMeter`
integrates ``busy_units`` over simulated time, which is how the analysis
layer turns CPU-core occupancy into the CPU-utilization percentages the
paper plots (Figs 6–9).
"""

from __future__ import annotations

from repro.sim import engine as _engine
from repro.sim.engine import SimulationError, Simulator

__all__ = ["Counter", "UtilizationMeter"]

# Counter and UtilizationMeter below are the pure-python reference; the
# module tail swaps in the compiled versions when the C core is live
# (meters settle on every resource acquire/release, making them one of
# the hottest non-kernel paths in the fig6-9 CPU-utilization figures).


class Counter:
    """A monotonically growing tally with byte/op helpers."""

    __slots__ = ("name", "value", "events")

    def __init__(self, name: str = ""):
        self.name = name
        self.value: float = 0.0
        self.events: int = 0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise SimulationError(f"Counter {self.name!r} decremented")
        self.value += amount
        self.events += 1

    def rate(self, elapsed: float) -> float:
        """Value per microsecond over ``elapsed`` microseconds."""
        return self.value / elapsed if elapsed > 0 else 0.0


class UtilizationMeter:
    """Time-weighted integral of a busy-unit level (e.g. busy CPU cores)."""

    __slots__ = ("sim", "capacity", "name", "_level", "_last_change", "_area", "_t0")

    def __init__(self, sim: Simulator, capacity: float, name: str = ""):
        if capacity <= 0:
            raise SimulationError("UtilizationMeter capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._level = 0.0
        self._last_change = sim.now
        self._area = 0.0
        self._t0 = sim.now

    def _settle(self) -> None:
        now = self.sim.now
        self._area += self._level * (now - self._last_change)
        self._last_change = now

    def acquire(self, units: float = 1.0) -> None:
        self._settle()
        self._level += units
        if self._level > self.capacity + 1e-9:
            raise SimulationError(
                f"UtilizationMeter {self.name!r} over capacity: {self._level} > {self.capacity}"
            )

    def release(self, units: float = 1.0) -> None:
        self._settle()
        self._level -= units
        if self._level < -1e-9:
            raise SimulationError(f"UtilizationMeter {self.name!r} released below zero")

    def reset_window(self) -> None:
        """Start a fresh measurement window at the current instant."""
        self._settle()
        self._area = 0.0
        self._t0 = self.sim.now

    def busy_time(self) -> float:
        """Integrated unit-microseconds of busy time in the window."""
        self._settle()
        return self._area

    def utilization(self) -> float:
        """Mean fraction of capacity busy over the window, in [0, 1]."""
        self._settle()
        elapsed = self.sim.now - self._t0
        if elapsed <= 0:
            return 0.0
        return self._area / (elapsed * self.capacity)


if _engine.ACTIVE_CORE == "c":
    Counter = _engine._cengine.Counter
    UtilizationMeter = _engine._cengine.UtilizationMeter
