"""Verbs-level objects: work requests, queue pairs, completion queues.

The API mirrors the InfiniBand verbs the paper's transport is written
against: consumers ``post_send``/``post_recv`` work requests on a
Reliable Connection queue pair and collect completions from completion
queues.  Each work request also carries a per-WR ``completion`` event so
transport code can block on exactly the completion it needs (the
kernel-style "wait for this WR" idiom) without polling.

Channel vs memory semantics (Table 1 of the paper):

* ``SendWR``/``RecvWR`` — channel primitives: receiver must pre-post a
  buffer, nothing is exposed, no steering tag, no rendezvous.
* ``RdmaWriteWR``/``RdmaReadWR`` — memory primitives: the *target*
  buffer is exposed under a steering tag the peers must rendezvous on.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from operator import itemgetter
from typing import Optional

from repro.errors import TransportError
from repro.sim import Event, Simulator, Store

__all__ = [
    "CompletionQueue",
    "Cqe",
    "CqeStatus",
    "Opcode",
    "QPError",
    "QPState",
    "QueuePair",
    "RdmaReadWR",
    "RdmaWriteWR",
    "RecvWR",
    "Segment",
    "SendWR",
    "node_of",
]

_wr_ids = itertools.count(1)
_qp_nums = itertools.count(0x100)


class QPError(TransportError):
    """The QP transitioned to the error state (fatal for the connection)."""


class Opcode(enum.Enum):
    SEND = "send"
    RECV = "recv"
    RDMA_WRITE = "rdma_write"
    RDMA_READ = "rdma_read"


class CqeStatus(enum.Enum):
    SUCCESS = "success"
    LOC_PROT_ERR = "local_protection_error"
    REM_ACCESS_ERR = "remote_access_error"
    RNR_RETRY_EXC = "rnr_retry_exceeded"
    WR_FLUSH_ERR = "flushed"


class QPState(enum.Enum):
    RESET = "reset"
    RTS = "ready_to_send"
    ERROR = "error"


class Segment(tuple):
    """A (steering tag, address, length) triple.

    Used both as a local scatter/gather element (stag = lkey) and as the
    wire encoding of chunk-list entries (stag = rkey the peer will use).
    An immutable tuple: it unpacks as ``stag, addr, length = seg`` and
    compares and hashes as the triple does.
    """

    __slots__ = ()

    def __new__(cls, stag: int, addr: int, length: int):
        if length < 0:
            raise ValueError("negative segment length")
        return tuple.__new__(cls, (stag, addr, length))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return f"Segment(stag={self[0]!r}, addr={self[1]!r}, length={self[2]!r})"

    stag = property(itemgetter(0))
    addr = property(itemgetter(1))
    length = property(itemgetter(2))


class Cqe:
    """Completion queue entry."""

    __slots__ = ("wr_id", "opcode", "status", "byte_len", "qp_num", "error")

    def __init__(self, wr_id: int, opcode: Opcode, status: CqeStatus,
                 byte_len: int = 0, qp_num: int = 0, error: Optional[str] = None):
        self.wr_id = wr_id
        self.opcode = opcode
        self.status = status
        self.byte_len = byte_len
        self.qp_num = qp_num
        self.error = error

    @property
    def ok(self) -> bool:
        return self.status is CqeStatus.SUCCESS

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Cqe(wr_id={self.wr_id}, opcode={self.opcode}, "
                f"status={self.status}, byte_len={self.byte_len}, "
                f"qp_num={self.qp_num:#x}, error={self.error!r})")


class _WorkRequest:
    """Common machinery for all WR flavours.

    ``__slots__``-based struct layout: WRs are the highest-volume
    objects after events, so they carry no per-instance dict.  The tag
    slots below (``adversarial``, ``pool_region``, ``pool_slot``,
    ``srq_qp``, ``_san_local``, ``_san_remote``) are written by the
    security, buffer-pool, SRQ and sanitizer layers respectively;
    readers use ``getattr(wr, name, default)``, which works unchanged
    on an unassigned slot.
    """

    __slots__ = (
        "wr_id", "signaled", "completion", "cqe", "tspan", "on_complete",
        "adversarial", "pool_region", "pool_slot", "srq_qp",
        "_san_local", "_san_remote",
    )

    opcode: Opcode = Opcode.SEND
    #: drain outstanding RDMA Reads before this WR executes; the WR
    #: kinds that can set it (Send, RDMA Write) shadow this with a slot.
    fence = False

    def __init__(self, sim: Simulator, signaled: bool = True):
        self.wr_id = next(_wr_ids)
        self.signaled = signaled
        self.completion: Event = sim.event()
        self.cqe: Optional[Cqe] = None
        #: telemetry parent span set by the posting layer — lets the HCA
        #: dispatcher nest its WQE spans under the RPC that posted them.
        self.tspan = None
        #: synchronous completion hook ``(wr, cqe)`` set by pool owners
        #: (the shared receive pool steers deliveries through it); None
        #: costs a single attribute test.
        self.on_complete = None

    def _complete(self, qp: "QueuePair", cq: "CompletionQueue", status: CqeStatus,
                  byte_len: int = 0, error: Optional[str] = None) -> Cqe:
        cqe = Cqe(self.wr_id, self.opcode, status, byte_len, qp.qp_num, error)
        self.cqe = cqe
        if self.signaled:
            cq.push(cqe)
        self.completion.succeed(cqe)
        if self.on_complete is not None:
            self.on_complete(self, cqe)
        return cqe


class SendWR(_WorkRequest):
    """Channel send: inline bytes or a gather list of local segments."""

    __slots__ = ("inline", "segments", "fence")

    opcode = Opcode.SEND

    def __init__(
        self,
        sim: Simulator,
        inline: Optional[bytes] = None,
        segments: Optional[list[Segment]] = None,
        signaled: bool = True,
        fence: bool = False,
    ):
        if (inline is None) == (segments is None):
            raise ValueError("SendWR takes exactly one of inline= or segments=")
        super().__init__(sim, signaled)
        self.inline = inline
        self.segments = segments or []
        self.fence = fence

    @property
    def byte_len(self) -> int:
        if self.inline is not None:
            return len(self.inline)
        return sum(s.length for s in self.segments)


class RecvWR(_WorkRequest):
    """Pre-posted receive buffer (scatter list of local segments)."""

    __slots__ = ("segments", "received")

    opcode = Opcode.RECV

    def __init__(self, sim: Simulator, segments: list[Segment], signaled: bool = True):
        if not segments:
            raise ValueError("RecvWR needs at least one segment")
        super().__init__(sim, signaled)
        self.segments = segments
        self.received: Optional[bytes] = None

    @property
    def capacity(self) -> int:
        return sum(s.length for s in self.segments)


class RdmaWriteWR(_WorkRequest):
    """Memory-semantics write into a remote segment (no remote CQE)."""

    __slots__ = ("local", "remote", "fence")

    opcode = Opcode.RDMA_WRITE

    def __init__(
        self,
        sim: Simulator,
        local: list[Segment],
        remote: Segment,
        signaled: bool = True,
        fence: bool = False,
    ):
        super().__init__(sim, signaled)
        if not local:
            raise ValueError("RDMA Write needs a local gather list")
        self.local = local
        self.remote = remote
        self.fence = fence

    @property
    def byte_len(self) -> int:
        return sum(s.length for s in self.local)


class RdmaReadWR(_WorkRequest):
    """Memory-semantics read from a remote segment into local scatter."""

    __slots__ = ("local", "remote")

    opcode = Opcode.RDMA_READ

    def __init__(self, sim: Simulator, local: list[Segment], remote: Segment,
                 signaled: bool = True):
        super().__init__(sim, signaled)
        if not local:
            raise ValueError("RDMA Read needs a local scatter list")
        self.local = local
        self.remote = remote

    @property
    def byte_len(self) -> int:
        return self.remote.length


class CompletionQueue:
    """Queue of CQEs with blocking wait and optional event callback.

    Reaping rule: the ``on_completion`` handler sees every CQE (an
    interrupt, on a CQ from ``HCA.create_cq(interrupts=True)``), and a
    parked :meth:`wait` also gets the next one.  A CQE that no waiter
    took is queued for :meth:`poll`/:meth:`wait` only when the CQ has
    no handler: an interrupt-armed CQ keeps nothing.  ``total`` counts
    every CQE either way.
    """

    def __init__(self, sim: Simulator, name: str = "cq"):
        self.sim = sim
        self.name = name
        self._cqes: deque[Cqe] = deque()
        self._waiters: deque[Event] = deque()
        self.on_completion = None  # optional callable(Cqe) -> None
        self.total = 0

    def push(self, cqe: Cqe) -> None:
        self.total += 1
        if self.on_completion is not None:
            self.on_completion(cqe)
        if self._waiters:
            self._waiters.popleft().succeed(cqe)
        elif self.on_completion is None:
            self._cqes.append(cqe)

    def poll(self) -> Optional[Cqe]:
        return self._cqes.popleft() if self._cqes else None

    def wait(self) -> Event:
        """Event that fires with the next CQE."""
        ev = Event(self.sim)
        if self._cqes:
            ev.succeed(self._cqes.popleft())
        else:
            self._waiters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._cqes)


def node_of(qp: "QueuePair") -> str:
    """The node name behind a QP (HCAs are named ``<node>.hca``)."""
    return qp.hca.name.partition(".")[0]


class QueuePair:
    """A Reliable Connection endpoint.

    Created through :class:`repro.ib.fabric.Fabric`, which wires the two
    ends together and starts the HCA dispatcher processes.  ``ird`` and
    ``ord`` are the inbound/outbound RDMA Read depths negotiated at
    connection time — 8 on the paper's Mellanox hardware.
    """

    def __init__(
        self,
        sim: Simulator,
        hca,  # repro.ib.hca.HCA
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        ird: int = 8,
        ord: int = 8,
    ):
        self.sim = sim
        self.hca = hca
        self.qp_num = next(_qp_nums)
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.ird = ird
        self.ord = ord
        self.state = QPState.RESET
        self.peer: Optional["QueuePair"] = None
        #: the wire toward the peer's port (``repro.ib.link.Route``),
        #: bound when the HCA activates the QP.
        self.route = None
        # Per-QP HCA state, also bound by ``HCA.activate``: the ORD
        # slots that cap outbound reads, the responder's serial read
        # engine, the lock that keeps RC delivery in order, the
        # done-events of in-flight reads (a dict as an ordered set, so a
        # fence drains them in post order) and the inbound reads being
        # served.
        self.ord_slots = None
        self.read_engine = None
        self.delivery_lock = None
        self.outstanding_reads: Optional[dict] = None
        self.inbound_reads = 0
        self.sq: Store = Store(sim, name=f"qp{self.qp_num}.sq")
        self.rq: deque[RecvWR] = deque()
        #: shared receive pool (``repro.ib.srq``); when set, inbound
        #: messages consume pool buffers instead of the private ``rq``.
        self.srq = None
        self.error_cause: Optional[str] = None
        #: async-event subscribers: each callable(qp, cause) fires once,
        #: synchronously, when the QP transitions to ERROR — the verbs
        #: analogue of IBV_EVENT_QP_FATAL, used by transports for prompt
        #: failure detection instead of waiting for a flushed CQE.
        self.on_error: list = []

    # -- consumer API -----------------------------------------------------
    def post_send(self, wr: _WorkRequest) -> _WorkRequest:
        if self.state is QPState.ERROR:
            raise QPError(f"QP {self.qp_num:#x} in error state: {self.error_cause}")
        if self.state is not QPState.RTS:
            raise QPError(f"QP {self.qp_num:#x} not connected")
        if wr.opcode is Opcode.RECV:
            raise QPError("receive WR posted to send queue")
        san = self.sim.sanitizer
        if san is not None:
            san.on_post_send(self, wr)
        self.sq.put(wr)
        return wr

    def post_recv(self, wr: RecvWR) -> RecvWR:
        if self.state is QPState.ERROR:
            raise QPError(f"QP {self.qp_num:#x} in error state: {self.error_cause}")
        self.rq.append(wr)
        return wr

    # -- fabric-internal ----------------------------------------------------
    def take_recv(self) -> Optional[RecvWR]:
        if self.srq is not None:
            return self.srq.take(self)
        return self.rq.popleft() if self.rq else None

    def enter_error(self, cause: str) -> None:
        """Fatal: flush outstanding WRs with WR_FLUSH_ERR."""
        if self.state is QPState.ERROR:
            return
        self.state = QPState.ERROR
        self.error_cause = cause
        while True:
            ok, wr = self.sq.try_get()
            if not ok:
                break
            wr._complete(self, self.send_cq, CqeStatus.WR_FLUSH_ERR, error=cause)
        while self.rq:
            wr = self.rq.popleft()
            wr._complete(self, self.recv_cq, CqeStatus.WR_FLUSH_ERR, error=cause)
        for callback in list(self.on_error):
            callback(self, cause)

    def kill(self, cause: str) -> bool:
        """Both ends enter ERROR, this one first (a dead link, a CM
        disconnect).  Returns whether this QP was still live."""
        live = self.state is not QPState.ERROR
        self.enter_error(cause)
        if self.peer is not None:
            self.peer.enter_error(f"{cause} (remote)")
        return live

    @property
    def recv_queue_depth(self) -> int:
        return len(self.rq)
