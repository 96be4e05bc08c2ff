"""Contention primitives built on the event kernel.

``Resource``
    A counted semaphore with FIFO (optionally priority) queueing.  Used
    for CPU cores, disk spindles, HCA DMA engines and link arbitration.

``Store``
    An unbounded (or bounded) FIFO of Python objects.  Used for task
    queues, NIC receive rings and socket buffers.

``Container``
    A continuous level with blocking get/put.  Used for credit pools and
    page-cache capacity accounting.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any

from repro.sim import engine as _engine
from repro.sim.engine import Event, SimulationError, Simulator

__all__ = ["Container", "Request", "Resource", "Store"]

# The classes below are the pure-python reference.  When the compiled
# core is live, the module tail swaps in the _cengine implementations
# (same semantics, same grant order — see the equivalence notes in
# _cengine.c); these definitions remain the fallback and the oracle the
# compiled ones are tested against.


class Request(Event):
    """A pending claim on a :class:`Resource`; fires when granted."""

    __slots__ = ("resource", "priority", "_seq")

    def __init__(self, resource: "Resource", priority: int):
        super().__init__(resource.sim)
        self.resource = resource
        self.priority = priority
        self._seq = resource._ticket()

    def __lt__(self, other: "Request") -> bool:
        return (self.priority, self._seq) < (other.priority, other._seq)

    def cancel(self) -> None:
        """Withdraw an ungranted request (granted requests must release)."""
        self.resource._cancel(self)


class Resource:
    """Counted semaphore.  ``capacity`` units; requests queue when busy.

    A timed claim is one :meth:`hold`, returned by the model call and
    driven with ``yield from``::

        yield from cpu.hold(service_time)

    ``request``/``release`` stay for claims that span other work (a
    pipeline stage held across a whole segment, a lock around a
    delivery)::

        req = stage.request()
        yield req
        try:
            ...
        finally:
            stage.release(req)
    """

    __slots__ = ("sim", "capacity", "name", "_in_use", "_waiting", "_seq")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"Resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use: set[Request] = set()
        self._waiting: list[Request] = []
        self._seq = 0

    def _ticket(self) -> int:
        self._seq += 1
        return self._seq

    @property
    def count(self) -> int:
        """Units currently granted."""
        return len(self._in_use)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self, priority: int = 0) -> Request:
        """Claim one unit; returned event fires when the unit is granted."""
        req = Request(self, priority)
        if len(self._in_use) < self.capacity and not self._waiting:
            self._in_use.add(req)
            req.succeed(self)
        else:
            heapq.heappush(self._waiting, req)
        return req

    def release(self, request: Request) -> None:
        """Return a granted unit and wake the next waiter."""
        if request not in self._in_use:
            raise SimulationError(f"release of request not held on {self.name or 'resource'}")
        self._in_use.remove(request)
        while self._waiting:
            nxt = heapq.heappop(self._waiting)
            if nxt.triggered:  # cancelled
                continue
            self._in_use.add(nxt)
            nxt.succeed(self)
            break

    def hold(self, delay, priority: int = 0, meters: tuple = (),
             partner: "Resource | None" = None, busy=None):
        """Iterator for ``yield from``: claim a unit, hold it, release it.

        One claim cycle per delay (``delay`` is a number or a list/tuple
        of chunk delays): request a unit (at ``priority``), then one unit
        of ``partner`` (same priority) once the first is granted, acquire
        each of ``meters`` in order, wait ``delay``, release the meters,
        the partner unit and the unit, and add the delay to the ``busy``
        :class:`~repro.sim.Counter`.  It yields exactly the events of
        that pattern written out by hand, in the same order.

        A throw while waiting for a grant withdraws the request (releasing
        it if it was granted in the meantime) and any unit already held;
        a throw while holding releases everything; the busy counter is
        only charged for cycles that complete.  The compiled core's
        ``Resource.hold`` is a C iterator with these semantics, taking
        the same arguments positionally.
        """
        sim = self.sim
        for d in (delay if isinstance(delay, (list, tuple)) else (delay,)):
            req = self.request(priority)
            try:
                yield req
            except BaseException:
                self._withdraw(req)
                raise
            if partner is not None:
                preq = partner.request(priority)
                try:
                    yield preq
                except BaseException:
                    partner._withdraw(preq)
                    self.release(req)
                    raise
            for meter in meters:
                meter.acquire()
            try:
                yield sim.timeout(d)
            finally:
                for meter in meters:
                    meter.release()
                if partner is not None:
                    partner.release(preq)
                self.release(req)
            if busy is not None:
                busy.add(d)

    def _withdraw(self, request: Request) -> None:
        """Give back a claim whose waiter is leaving: release or cancel."""
        if request in self._in_use:
            self.release(request)
        else:
            request.cancel()

    def _cancel(self, request: Request) -> None:
        if request in self._in_use:
            raise SimulationError("cancel of a granted request; use release()")
        if not request.triggered:
            # Lazy removal: mark triggered-as-failed, skipped on pop.
            request.fail(SimulationError("request cancelled"))
            request.defused()


class Store:
    """FIFO of items with blocking ``get`` and optionally bounded ``put``."""

    __slots__ = ("sim", "capacity", "name", "_items", "_getters", "_putters")

    def __init__(self, sim: Simulator, capacity: float = float("inf"), name: str = ""):
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        """Deposit ``item``; fires immediately unless the store is full."""
        ev = Event(self.sim)
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            ev.succeed(None)
        elif len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed(None)
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        """Withdraw the oldest item; fires (with the item) when available."""
        ev = Event(self.sim)
        if self._items:
            item = self._items.popleft()
            if self._putters:
                pev, pitem = self._putters.popleft()
                self._items.append(pitem)
                pev.succeed(None)
            ev.succeed(item)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking withdraw: ``(True, item)`` or ``(False, None)``."""
        if not self._items:
            return False, None
        item = self._items.popleft()
        if self._putters:
            pev, pitem = self._putters.popleft()
            self._items.append(pitem)
            pev.succeed(None)
        return True, item


class Container:
    """A continuous quantity with blocking get/put (credits, capacities)."""

    __slots__ = ("sim", "capacity", "name", "_level", "_getters", "_putters")

    def __init__(
        self,
        sim: Simulator,
        capacity: float = float("inf"),
        init: float = 0.0,
        name: str = "",
    ):
        if init < 0 or init > capacity:
            raise SimulationError(f"Container init {init} outside [0, {capacity}]")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._level = init
        self._getters: deque[tuple[Event, float]] = deque()
        self._putters: deque[tuple[Event, float]] = deque()

    @property
    def level(self) -> float:
        return self._level

    def get(self, amount: float) -> Event:
        """Withdraw ``amount``; fires once the level covers it (FIFO)."""
        if amount < 0:
            raise SimulationError("Container.get of negative amount")
        ev = Event(self.sim)
        self._getters.append((ev, amount))
        self._drain()
        return ev

    def put(self, amount: float) -> Event:
        """Deposit ``amount``; fires once it fits under ``capacity`` (FIFO)."""
        if amount < 0:
            raise SimulationError("Container.put of negative amount")
        ev = Event(self.sim)
        self._putters.append((ev, amount))
        self._drain()
        return ev

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                ev, amount = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.popleft()
                    self._level += amount
                    ev.succeed(None)
                    progressed = True
            if self._getters:
                ev, amount = self._getters[0]
                if self._level >= amount:
                    self._getters.popleft()
                    self._level -= amount
                    ev.succeed(None)
                    progressed = True


if _engine.ACTIVE_CORE == "c":
    # Compiled hot path: Resource.request/release and Store.put/get are
    # among the most-called model entry points, so the C core provides
    # them too.  Container stays pure python (cold: credit pools).
    Request = _engine._cengine.Request
    Resource = _engine._cengine.Resource
    Store = _engine._cengine.Store
