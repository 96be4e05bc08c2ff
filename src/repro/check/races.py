"""Schedule-perturbation race detector for the deterministic engine.

The engine's heap orders events by ``(time, seq)``: same-instant events
fire in scheduling order.  That determinism is what makes golden tables
possible — but it can also *mask* order-dependence: code whose result
depends on which of two same-timestamp events happens to have been
scheduled first produces stable-but-arbitrary output that silently
changes under any refactor that reorders scheduling.

:class:`PerturbedSimulator` makes the masking visible — surgically.
Shuffling *all* same-timestamp ties is unsound for a queueing model:
it reorders independent causal chains at shared serial resources
(CPUs, ports, TPT engines), and contended-resource timing legitimately
depends on that service order.  Even step-scoped shuffling is too wide:
one event's callback list resumes many waiting processes, and *their*
mutual order is the engine's documented FIFO fairness guarantee (who
gets the next worker, the next credit, the next link slot).  What must
NOT matter is narrower still: the relative order of **siblings** —
events scheduled at the same timestamp *by one callback invocation*.
That is precisely the footprint of iteration: a loop walking a
collection and scheduling per element, a teardown draining a table, a
broadcast arming one event per member.  If the collection is a ``list``
the sibling order is programmed; if it is a ``set`` keyed by ``id()``
the order is incidental and varies machine-to-machine — exactly the
hazard this detector exists to surface.

One sibling class is exempt: **process boots** (and interrupt
carriers, the two users of the engine's ``_Wakeup``).  ``sim.process``
is an explicit host-level act — a workload booting threads 0, 1, 2 in
a loop has *chosen* that start order the same way construction code
chooses its wiring order, and multi-threaded aggregate results
legitimately depend on which thread reaches a contended resource
first; likewise a CQE handler boots the interrupt process *before*
waking completion waiters, and that precedence is the modeled hardware
order.  Shuffling boots would therefore reject correct models, not
find broken ones.  A boot acts as a program-order *barrier* within its
callback: siblings scheduled before it keep preceding it, siblings
after it keep following it, and each side shuffles only internally.
The residual hazard — booting processes while iterating an unordered
collection — is a *static* property, and the set-iteration rule in
:mod:`repro.check.static` catches it at parse time.

The perturbed heap therefore keys entries ``(time, region, random,
seq)`` where ``region`` is a counter bumped on every callback
invocation (and on every schedule made from host code outside a
callback): cross-region FIFO is preserved — region order *is*
scheduling order — while same-instant siblings within one region fire
in seeded-random order.  Causality is trivially preserved (an event
enters the heap only after its cause ran), so every perturbed schedule
is a legal schedule — and well-written sim code produces
**bit-identical** figure tables under every seed.  ``python -m repro
check --perturb-seed`` asserts exactly that over the quick golden grid.

:func:`nondeterminism_guard` covers the other leak: real-world entropy.
Inside the guard, wall-clock reads (``time.time`` & friends) and draws
from the process-global ``random`` generator raise
:class:`~repro.errors.NondeterminismViolation`.  Seeded
``random.Random`` instances — the only RNG the sim layer is allowed to
use — are untouched.  (``datetime.now`` is C-level and can't be patched;
the static lint in :mod:`repro.check.static.rules.purity` covers it
instead.)
"""

from __future__ import annotations

import heapq
import random
import time
from contextlib import contextmanager
from typing import Iterator

from repro.errors import NondeterminismViolation
from repro.sim._pyengine import Event, SimulationError, Simulator, _failure, _Wakeup

__all__ = ["PerturbedSimulator", "nondeterminism_guard"]


class PerturbedSimulator(Simulator):
    """A :class:`Simulator` that shuffles same-callback sibling events.

    Heap entries are ``(time, region, tie_key, seq, event)``: ``region``
    identifies the callback invocation that pushed the event (host-code
    pushes each get a fresh region, so construction order is FIFO),
    ``tie_key`` is drawn from a ``random.Random(seed)`` owned by this
    simulator (a seeded instance, so perturbed runs are themselves
    reproducible), and ``seq`` stays as the final tiebreaker so entries
    never compare events.  Same-timestamp entries from *different*
    regions keep their original relative order (region order equals
    scheduling order); same-timestamp **siblings** from one callback
    fire in seeded-random order.  :attr:`tie_events` counts pops whose
    successor shared both instant and region — the population whose
    order actually gets shuffled.
    """

    def __init__(self, seed: int):
        super().__init__()
        self.perturb_seed = seed
        self._tie_rng = random.Random(seed)
        self._region = 0
        self._in_callback = False
        #: popped events whose heap successor shared (time, region) —
        #: the sibling groups whose order the seed actually perturbs.
        self.tie_events = 0

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        if isinstance(event, _Wakeup):
            # A process boot/interrupt is a program-order *barrier*
            # within its callback (see module docstring): siblings
            # scheduled before it stay before it, siblings after stay
            # after, so it sits alone in a region of its own (fixed tie
            # key — it never shuffles with anything).
            self._region += 1
            heapq.heappush(
                self._queue, (self.now + delay, self._region, 0.5, self._seq, event)
            )
            self._seq += 1
            self._region += 1
            return
        if not self._in_callback:
            self._region += 1
        heapq.heappush(
            self._queue,
            (self.now + delay, self._region, self._tie_rng.random(),
             self._seq, event),
        )
        self._seq += 1

    def step(self, _heappop=heapq.heappop) -> None:
        queue = self._queue
        when, region, _, _, event = _heappop(queue)
        if queue and queue[0][0] == when and queue[0][1] == region:
            self.tie_events += 1
        self.now = when
        self.steps += 1
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        assert callbacks is not None
        for callback in callbacks:
            self._region += 1
            self._in_callback = True
            callback(event)
        self._in_callback = False
        if not event._ok and not event._defused:
            try:
                raise _failure(event)
            finally:
                event = callback = None  # the traceback keeps this frame


#: time-module functions that read the host clock.
_WALLCLOCK_NAMES = (
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns",
)

#: module-level random functions backed by the hidden global Random.
_GLOBAL_RANDOM_NAMES = (
    "random", "uniform", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "gauss", "expovariate", "betavariate",
    "triangular", "getrandbits", "normalvariate", "vonmisesvariate",
    "paretovariate", "weibullvariate", "lognormvariate",
)


def _raiser(kind: str, name: str):
    def _blocked(*args, **kwargs):
        raise NondeterminismViolation(
            f"{kind} source {name}() used inside a running simulation — "
            f"use sim.now / a seeded DeterministicRNG instead"
        )
    return _blocked


@contextmanager
def nondeterminism_guard() -> Iterator[None]:
    """Trap wall-clock reads and global-RNG draws for the enclosed block.

    Patches ``time.time``/``monotonic``/``perf_counter`` (and their
    ``_ns`` variants) plus every module-level ``random`` function to
    raise :class:`~repro.errors.NondeterminismViolation`.  Seeded
    ``random.Random`` / ``DeterministicRNG`` instances keep working.
    """
    saved: list[tuple[object, str, object]] = []
    try:
        for name in _WALLCLOCK_NAMES:
            saved.append((time, name, getattr(time, name)))
            setattr(time, name, _raiser("wall-clock", f"time.{name}"))
        for name in _GLOBAL_RANDOM_NAMES:
            saved.append((random, name, getattr(random, name)))
            setattr(random, name, _raiser("global-RNG", f"random.{name}"))
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
