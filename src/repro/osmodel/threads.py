"""Kernel thread pool: the NFS server task queue of Fig 1.

Requests arrive on a :class:`~repro.sim.resources.Store`; ``nthreads``
worker processes pull and service them.  The pool width is what turns
the synchronous-RDMA-Read stall of the Read-Read design (§4.1) into a
throughput cap: while a server thread blocks waiting for an RDMA Read
to complete, it can service nothing else.

``max_queue`` bounds the run queue (None = unbounded, the historical
behaviour).  A bounded pool gives the dispatcher real backpressure:
transports reserve a slot with :meth:`KernelThreadPool.reserve_slot`
(blocking — the receive path stalls, which in turn starves credit
grants), while direct submitters get :class:`~repro.errors.PoolExhausted`
when no slot is free.  When ``max_queue`` is None both paths are
no-ops and schedule zero extra simulator events.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.errors import PoolExhausted
from repro.sim import Container, Counter, Simulator, Store


class KernelThreadPool:
    """Fixed pool of worker processes draining a shared task queue."""

    def __init__(
        self,
        sim: Simulator,
        nthreads: int,
        handler: Callable[[int, object], Generator],
        name: str = "pool",
        max_queue: Optional[int] = None,
    ):
        if nthreads < 1:
            raise ValueError("thread pool needs at least one thread")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 (or None for unbounded)")
        self.sim = sim
        self.nthreads = nthreads
        self.handler = handler
        self.name = name
        self.max_queue = max_queue
        self.queue: Store = Store(sim, name=f"{name}.queue")
        #: run-queue slots; a task holds one from submission until a
        #: worker dequeues it.  None = unbounded (no slot accounting).
        self._slots: Optional[Container] = (
            Container(sim, capacity=max_queue, init=float(max_queue),
                      name=f"{name}.slots")
            if max_queue is not None else None
        )
        self.completed = Counter(f"{name}.completed")
        self.failed = Counter(f"{name}.failed")
        self.queue_waits = Counter(f"{name}.queue_waits")
        self.backlog_peak = 0
        self._stopping = False
        self._workers = [
            sim.process(self._worker(i), name=f"{name}.worker{i}") for i in range(nthreads)
        ]

    def reserve_slot(self) -> Generator:
        """Process: claim a run-queue slot, blocking while the queue is
        full.  Pair with ``submit(task, reserved=True)``.  Unbounded
        pools return immediately without touching the scheduler."""
        if self._slots is None:
            return
        if self._slots.level < 1:
            self.queue_waits.add()
        yield self._slots.get(1)

    def submit(self, task: object, reserved: bool = False) -> None:
        """Enqueue one task (non-blocking).

        On a bounded pool the caller either pre-reserved a slot
        (``reserved=True``) or one is claimed here; a full run queue
        raises :class:`PoolExhausted` rather than queueing unboundedly.
        """
        if self._stopping:
            raise RuntimeError(f"submit to stopped pool {self.name!r}")
        if self._slots is not None and not reserved:
            if self._slots.level < 1:
                raise PoolExhausted(
                    f"{self.name}: run queue full ({self.max_queue} slots)"
                )
            self._slots.get(1)
        self.queue.put(task)
        depth = len(self.queue)
        if depth > self.backlog_peak:
            self.backlog_peak = depth

    def stop(self) -> None:
        """Drain-stop: workers exit after finishing queued tasks."""
        self._stopping = True
        for _ in range(self.nthreads):
            self.queue.put(_STOP)

    @property
    def backlog(self) -> int:
        return len(self.queue)

    def _worker(self, index: int) -> Generator:
        while True:
            task = yield self.queue.get()
            if task is _STOP:
                return
            if self._slots is not None:
                self._slots.put(1)
            try:
                yield from self.handler(index, task)
                self.completed.add()
            except TaskFailure:
                self.failed.add()
            task = None  # an idle worker pins nothing (a closed transport)


class _Stop:
    __slots__ = ()


_STOP = _Stop()


class TaskFailure(Exception):
    """Raised by handlers to record a failed task without killing the worker."""
