"""The server stack's security ledger and the WARN → throttle → quarantine
ladder.

Every server stack keeps one :class:`SecurityPolicy`.  The data plane
funnels every per-client misbehavior signal into it — protection NAKs
from the HCA (by cause), malformed RPC/RDMA headers, lease reclaims,
quota evictions and bad RPC calls — and it keeps the totals (and the
largest exposure any one connection reached) that outlive the
connections they came from, so what a campaign or ``repro stats``
reads does not depend on which connections are still up.  With
quarantine enabled, crossing the thresholds below escalates:

``WARN`` (score ``MISBEHAVIOR_WARN``)
    Recorded only; the client keeps full service.  Operators see it in
    ``repro stats``.
``throttle`` (score ``MISBEHAVIOR_THROTTLE``)
    Every subsequent call from the client is delayed by
    ``THROTTLE_DELAY_US`` before dispatch, bounding the rate at which a
    misbehaving mount can consume server resources.
``quarantine`` (score ``MISBEHAVIOR_QUARANTINE``)
    The client's live server ends are dropped from the stack
    (``ServerStack.drop``, which reclaims everything each pinned, per
    ``_reclaim_on_close``) and its node name is banned: the stack's
    redial path refuses new connections.

The policy is pure bookkeeping plus, at quarantine time, spawned
``drop`` processes; it charges no CPU and draws no randomness, so a
run where no client is quarantined is event-identical to one where
escalation is off.
"""

from __future__ import annotations

from typing import Optional

from repro.ib.verbs import node_of
from repro.sim import Counter

__all__ = ["SecurityPolicy"]

#: Misbehavior scores at which a client is warned, throttled and
#: quarantined.
MISBEHAVIOR_WARN = 5
MISBEHAVIOR_THROTTLE = 10
MISBEHAVIOR_QUARANTINE = 20
#: Dispatch delay added to each call from a throttled client.
THROTTLE_DELAY_US = 50.0

#: ProtectionError causes we break NAKs down by (matches TPT accounting).
NAK_CAUSES = ("stag", "access", "bounds")


class SecurityPolicy:
    """Per-stack misbehavior ledger with escalating responses."""

    def __init__(self, stack=None, quarantine_enabled: bool = False,
                 name: str = "secpolicy"):
        #: the ``ServerStack`` whose connections quarantine drops and
        #: whose exposure the ledger reads (None: a bare ledger that
        #: only counts, for a dispatcher built outside a stack).
        self.stack = stack
        #: escalate on score; off, the policy only keeps the ledger.
        self.quarantine_enabled = quarantine_enabled
        self.name = name
        self.scores: dict[str, int] = {}
        self.naks_by_cause: dict[str, int] = {c: 0 for c in NAK_CAUSES}
        self.warned: set[str] = set()
        self.throttled: set[str] = set()
        #: quarantined clients; the ban outlives their connections.
        self.quarantined: set[str] = set()
        self.naks = Counter(f"{name}.naks")
        self.malformed_wrs = Counter(f"{name}.malformed")
        self.lease_reclaims = Counter(f"{name}.lease_reclaims")
        self.quota_evictions = Counter(f"{name}.quota_evictions")
        self.bad_calls = Counter(f"{name}.bad_calls")
        self.redials_refused = Counter(f"{name}.redials_refused")
        #: the most bytes any one connection exposed at once.
        self.exposed_bytes_peak = 0

    # -- signal intake ------------------------------------------------------
    def record_nak(self, offender_qp, exc) -> None:
        """HCA hook: this server NAKed a remote op from ``offender_qp``."""
        cause = exc.cause
        self.naks.add()
        self.naks_by_cause[cause] = self.naks_by_cause.get(cause, 0) + 1
        self._score(node_of(offender_qp))

    def record_malformed(self, client: str) -> None:
        """A receive that failed RPC/RDMA header decode (garbage WR)."""
        self.malformed_wrs.add()
        self._score(client)

    def record_exposure(self, exposed_bytes: int) -> None:
        """A connection now exposes ``exposed_bytes``; keep the peak."""
        if exposed_bytes > self.exposed_bytes_peak:
            self.exposed_bytes_peak = exposed_bytes

    def record_lease_reclaim(self, client: str, nbytes: int) -> None:
        """An exposure lease expired before the client's RDMA_DONE."""
        self.lease_reclaims.add(nbytes)
        self._score(client)

    def record_quota_eviction(self, client: str, nbytes: int) -> None:
        """Admission control evicted the client's oldest exposure."""
        self.quota_evictions.add(nbytes)
        self._score(client)

    def record_bad_call(self, client: Optional[str]) -> None:
        """The RPC layer rejected a call (unknown program, decode error)."""
        self.bad_calls.add()
        if client is not None:
            self._score(client)

    # -- escalation ---------------------------------------------------------
    def _score(self, client: str) -> None:
        score = self.scores.get(client, 0) + 1
        self.scores[client] = score
        if not self.quarantine_enabled:
            return
        if score >= MISBEHAVIOR_WARN:
            self.warned.add(client)
        if score >= MISBEHAVIOR_THROTTLE:
            self.throttled.add(client)
        if score >= MISBEHAVIOR_QUARANTINE:
            self.quarantine(client)

    def quarantine(self, client: str) -> None:
        """Drop the client's live connections and refuse its redials."""
        if client in self.quarantined:
            return
        self.quarantined.add(client)
        if not self.quarantine_enabled:
            return
        stack = self.stack
        for server in [s for s in stack.server_transports
                       if s.client_id == client and not s.failed]:
            stack.sim.process(stack.drop(server), name=f"{self.name}.evict")

    # -- queries ------------------------------------------------------------
    def is_banned(self, client: str) -> bool:
        return client in self.quarantined

    def throttle_penalty_us(self, client: str) -> float:
        """Extra dispatch delay for this client's next call (0 if clean)."""
        return THROTTLE_DELAY_US if client in self.throttled else 0.0

    def exposure_bytes_by_client(self) -> dict[str, int]:
        """Currently exposed (pending-DONE) bytes per client."""
        out: dict[str, int] = {}
        for t in self.stack.server_transports:
            out[t.client_id] = out.get(t.client_id, 0) + t.exposed_bytes
        return out
