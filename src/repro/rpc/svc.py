"""Server-side RPC dispatch: the Fig 1 task-queue state machine.

Incoming calls are queued to a pool of NFS daemon threads ("Server task
queue" in the paper's architecture figure).  Each worker decodes the
call, runs the registered program handler (which descends into the
file-system substrate), then hands the reply back to the transport's
``respond`` continuation — the point at which the Read-Write design
registers reply buffers and issues RDMA Writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.osmodel import CPU, KernelThreadPool
from repro.rpc.drc import DrcDecision, DuplicateRequestCache
from repro.rpc.msg import RpcCall, RpcError, RpcReply
from repro.sim import Counter, Simulator

__all__ = ["RpcProgramHandler", "RpcServer", "RpcServerCosts"]

#: A program handler: a generator taking the call and returning RpcReply.
RpcProgramHandler = Callable[[RpcCall], Generator]


@dataclass(frozen=True)
class RpcServerCosts:
    """Per-operation CPU demands of the RPC layer itself."""

    decode_cpu_us: float = 3.0
    encode_cpu_us: float = 3.0


class RpcServer:
    """Dispatches RPC calls to program handlers on a kernel thread pool."""

    def __init__(
        self,
        sim: Simulator,
        cpu: CPU,
        nthreads: int = 8,
        costs: Optional[RpcServerCosts] = None,
        drc: Optional[DuplicateRequestCache] = None,
        name: str = "rpcsvc",
        max_queue: Optional[int] = None,
    ):
        self.sim = sim
        self.cpu = cpu
        self.costs = costs or RpcServerCosts()
        self.drc = drc
        self.name = name
        self._programs: dict[tuple[int, int], RpcProgramHandler] = {}
        self.pool = KernelThreadPool(sim, nthreads, self._handle,
                                     name=f"{name}.pool", max_queue=max_queue)
        self.calls_served = Counter(f"{name}.calls")
        self.calls_failed = Counter(f"{name}.failed")
        #: security policy hook; failed dispatches count against the
        #: originating client's misbehavior score when set.
        self.security_policy = None

    def register_program(self, prog: int, vers: int, handler: RpcProgramHandler) -> None:
        key = (prog, vers)
        if key in self._programs:
            raise ValueError(f"program {prog}v{vers} already registered")
        self._programs[key] = handler

    def submit_process(self, call: RpcCall,
                       respond: Callable[[RpcReply], Generator]) -> Generator:
        """Process: queue one call; ``respond`` is the transport's reply
        path.  A full bounded run queue *blocks* the submitter — the
        transport receive path's backpressure point.  Duplicates bypass
        the queue (they consume no slot).  Returns the DRC
        classification; without a DRC every call is ``NEW``.
        """
        decision = self._drc_precheck(call, respond)
        if decision is not None:
            return decision
        yield from self.pool.reserve_slot()
        self.pool.submit(self._task(call, respond), reserved=True)
        return DrcDecision.NEW

    def _drc_precheck(self, call: RpcCall, respond) -> Optional[DrcDecision]:
        """Duplicate handling ahead of the run queue; None = NEW.

        With a DRC, duplicates of in-flight requests park their
        responder until the original completes and already-completed
        requests replay immediately — exactly-once under retransmission.
        """
        if self.drc is None:
            return None
        decision, cached = self.drc.check(call.xid, call.prog, call.proc)
        if decision is DrcDecision.IN_PROGRESS:
            if not self.drc.add_waiter(call.xid, call.prog, call.proc, respond):
                # Raced with completion: replay through this responder.
                _, cached = self.drc.check(call.xid, call.prog, call.proc)
                self.sim.process(respond(cached), name=f"{self.name}.replay")
            return decision
        if decision is DrcDecision.REPLAY:
            self.sim.process(respond(cached), name=f"{self.name}.replay")
            return decision
        san = self.sim.sanitizer
        if san is not None:
            san.on_drc_begin(self.drc, call.xid, call.prog, call.proc)
        self.drc.begin(call.xid, call.prog, call.proc)
        return None

    def _task(self, call: RpcCall, respond) -> tuple:
        """Build one queue entry, opening its queue-residency span."""
        telemetry = self.sim.telemetry
        tracer = telemetry.tracer if telemetry is not None else None
        qspan = None
        if tracer is not None:
            qspan = tracer.begin("rpc.queue", "server", "server", "svc.queue",
                                 parent=tracer.xid_span(call.xid), xid=call.xid)
        return call, respond, qspan

    @property
    def backlog(self) -> int:
        return self.pool.backlog

    def _record_bad_call(self, call: RpcCall) -> None:
        if self.security_policy is not None:
            self.security_policy.record_bad_call(
                getattr(call, "client_id", None))

    def _handle(self, worker: int, task) -> Generator:
        call, respond, qspan = task
        if qspan is not None:
            qspan.end()
        telemetry = self.sim.telemetry
        tracer = telemetry.tracer if telemetry is not None else None
        if tracer is None:
            yield from self._handle_inner(call, respond)
            return
        span = tracer.begin("rpc.dispatch", "server", "server",
                            f"svc.w{worker}", parent=tracer.xid_span(call.xid),
                            xid=call.xid, proc=call.proc)
        prev = tracer.push_task(span)
        try:
            yield from self._handle_inner(call, respond)
        finally:
            tracer.pop_task(prev)
            span.end()

    def _handle_inner(self, call: RpcCall, respond) -> Generator:
        yield from self.cpu.consume(self.costs.decode_cpu_us)
        handler = self._programs.get((call.prog, call.vers))
        if handler is None:
            self.calls_failed.add()
            self._record_bad_call(call)
            reply = RpcReply(xid=call.xid, stat=1, header=b"")  # PROG_UNAVAIL-ish
        else:
            try:
                reply = yield from handler(call)
            except RpcError:
                self.calls_failed.add()
                self._record_bad_call(call)
                reply = RpcReply(xid=call.xid, stat=1, header=b"")
        if not isinstance(reply, RpcReply):
            raise TypeError(
                f"handler for prog {call.prog} returned {type(reply).__name__}, "
                "expected RpcReply"
            )
        reply.trace_id = call.trace_id
        yield from self.cpu.consume(self.costs.encode_cpu_us)
        if self.drc is not None:
            waiters = self.drc.complete(call.xid, call.prog, call.proc, reply)
            for parked in waiters:
                # Duplicates that arrived mid-execution (possibly over a
                # fresh connection after a reconnect) get the same reply.
                self.sim.process(parked(reply), name=f"{self.name}.replay")
        yield from respond(reply)
        self.calls_served.add()
