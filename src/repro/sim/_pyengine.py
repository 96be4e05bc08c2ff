"""Pure-python event loop, events and processes for the simulation kernel.

This module is the reference core: always importable, no compiled code.
:mod:`repro.sim.engine` selects between this and the optional C core
(:mod:`repro.sim._cengine`) at import time; both must produce
**bit-identical** schedules (the golden tables and ``repro check``
schedule-invariance runs pin that equivalence).

Scheduling is one ``heapq`` list of ``(when, seq, event)`` entries.
``seq`` is a push counter, so events fire in ``(time, scheduling
order)``: two events scheduled for the same instant always fire in
scheduling order, and repeated runs with the same seed are
bit-identical.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
]

class SimulationError(RuntimeError):
    """Raised for misuse of the simulation API (not for modeled failures)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries an arbitrary payload describing why the process was
    interrupted (e.g. a timeout watchdog or a connection teardown).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event is *triggered* when given a value (or failure) and a position
    in the schedule; it is *processed* once its callbacks have run.
    Processes wait on events by yielding them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_processed", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[[Event], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        self._defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        if not self._triggered:
            raise SimulationError("event value inspected before trigger")
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value inspected before trigger")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully ``delay`` microseconds from now."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed; waiters see ``exception`` raised."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay)
        return self

    def defused(self) -> "Event":
        """Mark a failed event as handled out-of-band (no crash at top level)."""
        self._defused = True
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.sim.now:.3f}>"


class _Wakeup:
    """Minimal pre-triggered carrier for process boot and interrupt.

    Duck-types the slice of the :class:`Event` surface the scheduler
    touches (``callbacks``/``_ok``/``_value``/``_defused``/``_processed``)
    without the full Event construction cost — these are allocated once
    per process, on the engine's hottest path.
    """

    __slots__ = ("callbacks", "_value", "_ok", "_defused", "_processed")

    def __init__(self, callback, value: Any = None, ok: bool = True):
        self.callbacks = [callback]
        self._value = value
        self._ok = ok
        self._defused = not ok
        self._processed = False


class Timeout(Event):
    """An event that fires ``delay`` microseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        # Inlined Event.__init__ + trigger: a timeout is born fired, so
        # skip the un-triggered intermediate state entirely.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self._defused = False
        self.delay = delay
        sim._schedule(self, delay)


class Process(Event):
    """Drives a generator; the process *is* an event that fires on return.

    The generator may yield any :class:`Event`.  When that event fires the
    generator is resumed with the event's value (or the failure exception
    is thrown into it).  The process event itself succeeds with the
    generator's return value, or fails with its uncaught exception.
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"Process requires a generator, got {type(generator).__name__}")
        super().__init__(sim)
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume once at the current instant (same schedule slot
        # a full boot Event would consume, minus its allocation).
        boot = _Wakeup(self._resume)
        sim._schedule(boot, 0.0)
        self._waiting_on = boot

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant."""
        if self._triggered:
            raise SimulationError("cannot interrupt a finished process")
        if self._waiting_on is None:
            raise SimulationError("cannot interrupt a process that is currently running")
        # Detach from whatever it was waiting on.
        target = self._waiting_on
        if target.callbacks is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        self._waiting_on = None
        carrier = _Wakeup(self._resume, Interrupt(cause), ok=False)
        self.sim._schedule(carrier, 0.0)
        self._waiting_on = carrier

    # -- internal -------------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        self.sim.active_process = self
        self._waiting_on = None
        while True:
            try:
                if trigger._ok:
                    target = self._generator.send(trigger._value)
                else:
                    trigger._defused = True
                    target = self._generator.throw(trigger._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(_without_frame(exc))
                return
            if not isinstance(target, _EVENT_TYPES):
                exc = SimulationError(
                    f"process {self.name!r} yielded {type(target).__name__}, expected Event"
                )
                try:
                    self._generator.throw(exc)
                except StopIteration as stop:
                    self.succeed(stop.value)
                except BaseException as err:
                    self.fail(_without_frame(err))
                else:
                    # It caught the complaint and yielded again: the
                    # process still ends here, failed with the complaint.
                    self.fail(exc)
                    self._generator.close()
                return
            if target.sim is not self.sim:
                self.fail(SimulationError("yielded event belongs to a different Simulator"))
                return
            if target._processed:
                # Already fired: resume immediately with its outcome.
                trigger = target
                continue
            target.callbacks.append(self._resume)
            self._waiting_on = target
            return


def _without_frame(exc: BaseException) -> BaseException:
    """``exc`` minus its head traceback entry, the ``_resume`` frame.

    That frame holds the process, and the failed process holds ``exc``:
    keeping the entry would make a cycle that only the cycle collector
    frees.  The compiled core's resume has no frame, so tracebacks read
    the same under both cores.
    """
    return exc.with_traceback(exc.__traceback__.tb_next if exc.__traceback__ else None)


def _failure(event: "Event") -> BaseException:
    """The exception an unhandled failed ``event`` raises out of the loop.

    Callers raise it inside ``try``/``finally`` and clear their locals in
    the ``finally``: the traceback keeps the raising frame, and a frame
    still holding the event, or a process's resume callback, would close
    a cycle through the event's exception.
    """
    exc = event._value
    return exc if isinstance(exc, BaseException) else SimulationError(repr(exc))


#: Classes accepted as yield targets.  :mod:`repro.sim.engine` widens
#: this to include the C core's Event when that core is loaded, so a
#: pure-python simulator (e.g. the perturbation checker) keeps working
#: even when model code constructs events from the compiled classes.
_EVENT_TYPES: tuple = (Event,)


class Simulator:
    """The event loop.  ``now`` is simulated time in microseconds.

    ``_queue`` is a heap of ``(when, seq, event)`` entries; ``seq`` is a
    push counter, so same-instant events fire in scheduling order and
    entries never compare events.
    """

    def __init__(self):
        self.now: float = 0.0
        self._queue: list = []
        self._seq = 0
        #: total events processed — the simulator's own work metric,
        #: reported by ``python -m repro bench`` as events/sec.
        self.steps = 0
        #: observability root (repro.telemetry.Telemetry) or None.  This
        #: is the single disable flag: every instrumented site does one
        #: attribute load + ``is None`` test when telemetry is off.
        self.telemetry = None
        #: the Process currently being resumed; the span tracer keys its
        #: task-span map on this to nest same-process spans.
        self.active_process = None
        #: runtime invariant checker (repro.check.Sanitizer) or None.
        #: Same overhead contract as ``telemetry``: one attribute load
        #: plus ``is None`` per instrumented site when off; when on it
        #: only reads sim state, so results stay bit-identical.
        self.sanitizer = None

    # -- construction helpers -------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]):
        from repro.sim.engine import AllOf

        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]):
        from repro.sim.engine import AnyOf

        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        heappush(self._queue, (self.now + delay, self._seq, event))
        self._seq += 1

    # -- execution --------------------------------------------------------
    def step(self) -> None:
        """Process the single next event in the schedule."""
        self.now, _, event = heappop(self._queue)  # IndexError when queue empty
        self.steps += 1
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        assert callbacks is not None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            try:
                raise _failure(event)
            finally:
                event = callback = None  # the traceback keeps this frame

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time reaches ``until``."""
        if until is not None and until < self.now:
            raise SimulationError(f"run(until={until}) is in the past (now={self.now})")
        queue = self._queue
        step = self.step
        while queue:
            if until is not None and queue[0][0] > until:
                break
            step()
        if until is not None:
            self.now = until

    def run_until_complete(self, process: Process, limit: float = float("inf")) -> Any:
        """Run until ``process`` finishes; return its value or raise its error."""
        queue = self._queue
        step = self.step
        while not process._triggered:
            if not queue:
                raise SimulationError(f"deadlock: {process.name!r} never completed")
            if queue[0][0] > limit:
                raise SimulationError(
                    f"time limit {limit} exceeded waiting for {process.name!r}")
            step()
        if not process.ok:
            try:
                raise process.value
            finally:
                process = None  # the traceback keeps this frame
        return process.value

    @property
    def queue_size(self) -> int:
        return len(self._queue)
