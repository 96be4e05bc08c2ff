"""Simulation-kernel core selector: compiled engine with pure-python fallback.

Two interchangeable cores implement the event loop:

* :mod:`repro.sim._pyengine` — the pure-python reference (always works),
  scheduling on one ``(when, seq)`` heap;
* :mod:`repro.sim._cengine` — an optional CPython extension compiling
  the same hot core (Event/Timeout/Process/Simulator) to C, scheduling
  on a same-instant FIFO plus a binary heap.  Built on demand by
  :mod:`repro.sim._build` when a C toolchain is available.

Selection happens once, at import, via ``REPRO_SIM_CORE``:

``auto`` (default)
    use the compiled core when it imports (building it first if
    possible), otherwise fall back to pure python silently;
``python``
    force the pure-python core (golden-equivalence tests use this);
``c``
    require the compiled core; raise ImportError if it cannot be
    built/loaded (CI uses this to catch silently-broken builds).

The contract between the cores is *bit-identical schedules*: events
fire in ``(time, scheduling order)`` under both, so every figure table
is byte-for-byte the same whichever core ran it.  ``repro check``
(sanitized + schedule-perturbed grids) and the golden tests enforce
this; ``tests/test_compiled_core.py`` compares the cores directly.

Condition events (:class:`AllOf` / :class:`AnyOf`) are defined *here*,
against whichever ``Event`` was selected, so compiled and fallback runs
agree on their behaviour without duplicating the logic in C.
"""

from __future__ import annotations

import os
from typing import Iterable

from repro.sim import _pyengine
from repro.sim._pyengine import Interrupt, SimulationError

__all__ = [
    "ACTIVE_CORE",
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
]

#: which core is live: ``"c"`` or ``"python"``.
ACTIVE_CORE = "python"

Event = _pyengine.Event
Timeout = _pyengine.Timeout
Process = _pyengine.Process
Simulator = _pyengine.Simulator

_requested = os.environ.get("REPRO_SIM_CORE", "auto").strip().lower()
if _requested not in ("auto", "python", "c"):
    raise ImportError(
        f"REPRO_SIM_CORE={_requested!r} not understood (auto|python|c)")

if _requested in ("auto", "c"):
    try:
        from repro.sim import _build

        _cengine = _build.load_cengine(require=_requested == "c")
    except ImportError:
        if _requested == "c":
            raise
        _cengine = None
    if _cengine is not None:
        Event = _cengine.Event
        Timeout = _cengine.Timeout
        Process = _cengine.Process
        Simulator = _cengine.Simulator
        ACTIVE_CORE = "c"
        # The pure-python engine (still used by PerturbedSimulator) must
        # accept compiled events as yield targets: model code constructs
        # Event/AllOf/AnyOf from the selected classes regardless of
        # which simulator instance they are bound to.
        _pyengine._EVENT_TYPES = (_pyengine.Event, _cengine.Event)


class _ConditionBase(Event):
    """Shared machinery for :class:`AllOf` / :class:`AnyOf`.

    Subclasses the *selected* Event so compiled-core processes accept
    conditions as yield targets; the logic itself is core-agnostic (it
    only touches the shared Event surface).
    """

    __slots__ = ("_events", "_pending")

    def __init__(self, sim, events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        for ev in self._events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        self._pending = 0
        already = []
        for ev in self._events:
            if ev._processed:
                already.append(ev)
            else:
                self._pending += 1
                ev.callbacks.append(self._on_fire)
        for ev in already:
            if self._triggered:
                break
            self._consume(ev)
        if self._pending == 0 and not self._triggered:
            self._finish()

    def _on_fire(self, ev: Event) -> None:
        self._pending -= 1
        if self._triggered:
            if not ev._ok:
                ev._defused = True
            return
        self._consume(ev)

    def _consume(self, ev: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _finish(self) -> None:
        self.succeed({ev: ev._value for ev in self._events if ev._triggered and ev._ok})


class AllOf(_ConditionBase):
    """Fires when every constituent event has fired (fails fast on failure)."""

    __slots__ = ()

    def _consume(self, ev: Event) -> None:
        if not ev._ok:
            ev._defused = True
            self.fail(ev._value if isinstance(ev._value, BaseException) else SimulationError(str(ev._value)))
            return
        if self._pending == 0:
            self._finish()


class AnyOf(_ConditionBase):
    """Fires when the first constituent event fires."""

    __slots__ = ()

    def _consume(self, ev: Event) -> None:
        if not ev._ok:
            ev._defused = True
            self.fail(ev._value if isinstance(ev._value, BaseException) else SimulationError(str(ev._value)))
            return
        self._finish()


if ACTIVE_CORE == "c":
    # The compiled Simulator's all_of/any_of delegate to these classes.
    _cengine.set_conditions(AllOf, AnyOf)
