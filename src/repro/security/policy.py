"""Server-side misbehavior scoring and the WARN → throttle → quarantine ladder.

The hardened data plane funnels every per-client misbehavior signal —
protection NAKs from the HCA (by cause), malformed RPC/RDMA headers,
lease reclaims, quota evictions and bad RPC calls — into one
:class:`SecurityPolicy` score.  With quarantine enabled, crossing the
thresholds below escalates:

``WARN`` (score ``MISBEHAVIOR_WARN``)
    Recorded only; the client keeps full service.  Operators see it in
    ``repro stats``.
``throttle`` (score ``MISBEHAVIOR_THROTTLE``)
    Every subsequent call from the client is delayed by
    ``THROTTLE_DELAY_US`` before dispatch, bounding the rate at which a
    misbehaving mount can consume server resources.
``quarantine`` (score ``MISBEHAVIOR_QUARANTINE``)
    The client's server transports are disconnected (which reclaims
    everything it pinned, per ``_reclaim_on_close``) and its node
    name is banned: the cluster's redial path refuses new connections.

The policy is pure bookkeeping plus, at quarantine time, spawned
``disconnect()`` processes; it charges no CPU and draws no randomness,
so a run where no client ever misbehaves is event-identical to a run
without the policy.
"""

from __future__ import annotations

from typing import Optional

from repro.sim import Counter, Simulator

__all__ = ["SecurityPolicy", "client_of_qp"]

#: Misbehavior scores at which a client is warned, throttled and
#: quarantined.
MISBEHAVIOR_WARN = 5
MISBEHAVIOR_THROTTLE = 10
MISBEHAVIOR_QUARANTINE = 20
#: Dispatch delay added to each call from a throttled client.
THROTTLE_DELAY_US = 50.0

#: ProtectionError causes we break NAKs down by (matches TPT accounting).
NAK_CAUSES = ("stag", "access", "bounds")


def client_of_qp(qp) -> str:
    """The node name behind a QP (HCAs are named ``<node>.hca``)."""
    name = qp.hca.name
    return name.split(".")[0] if "." in name else name


class SecurityPolicy:
    """Per-client misbehavior ledger with escalating responses."""

    def __init__(self, sim: Simulator, transports: list,
                 quarantine_enabled: bool = True, name: str = "secpolicy"):
        self.sim = sim
        #: the server's transports (its stack's list, which only
        #: ``ServerStack.drop`` prunes; an evicted one stays, closed);
        #: eviction and exposure read them by client.
        self.transports = transports
        #: escalate on score; off, the policy only keeps the ledger.
        self.quarantine_enabled = quarantine_enabled
        self.name = name
        self.scores: dict[str, int] = {}
        self.naks_by_cause: dict[str, int] = {c: 0 for c in NAK_CAUSES}
        self.naks_by_client: dict[str, int] = {}
        self.warned: set[str] = set()
        self.throttled: set[str] = set()
        self.quarantined: set[str] = set()
        self.banned: set[str] = set()
        self.naks = Counter(f"{name}.naks")
        self.malformed_wrs = Counter(f"{name}.malformed")
        self.lease_reclaims = Counter(f"{name}.lease_reclaims")
        self.quota_evictions = Counter(f"{name}.quota_evictions")
        self.bad_calls = Counter(f"{name}.bad_calls")
        self.warnings = Counter(f"{name}.warnings")
        self.throttles = Counter(f"{name}.throttles")
        self.quarantines = Counter(f"{name}.quarantines")
        self.redials_refused = Counter(f"{name}.redials_refused")

    # -- signal intake ------------------------------------------------------
    def record_nak(self, offender_qp, exc) -> None:
        """HCA hook: this server NAKed a remote op from ``offender_qp``."""
        client = client_of_qp(offender_qp)
        cause = getattr(exc, "cause", "stag")
        self.naks.add()
        self.naks_by_cause[cause] = self.naks_by_cause.get(cause, 0) + 1
        self.naks_by_client[client] = self.naks_by_client.get(client, 0) + 1
        self._score(client)

    def record_malformed(self, client: str) -> None:
        """A receive that failed RPC/RDMA header decode (garbage WR)."""
        self.malformed_wrs.add()
        self._score(client)

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
        if score >= MISBEHAVIOR_WARN and client not in self.warned:
            self.warned.add(client)
            self.warnings.add()
        if score >= MISBEHAVIOR_THROTTLE and client not in self.throttled:
            self.throttled.add(client)
            self.throttles.add()
        if score >= MISBEHAVIOR_QUARANTINE and client not in self.quarantined:
            self.quarantine(client)

    def quarantine(self, client: str) -> None:
        """Evict the client's mounts and refuse its redials from now on."""
        if client in self.quarantined:
            return
        self.quarantined.add(client)
        self.banned.add(client)
        self.quarantines.add()
        if not self.quarantine_enabled:
            return
        for transport in self.transports:
            if transport.client_id == client and not transport.failed:
                self.sim.process(transport.disconnect(),
                                 name=f"{self.name}.evict")

    # -- queries ------------------------------------------------------------
    def is_banned(self, client: str) -> bool:
        return client in self.banned

    def throttle_penalty_us(self, client: str) -> float:
        """Extra dispatch delay for this client's next call (0 if clean)."""
        if client in self.throttled:
            return THROTTLE_DELAY_US
        return 0.0

    def exposure_bytes_by_client(self) -> dict[str, int]:
        """Currently exposed (pending-DONE) bytes per client."""
        out: dict[str, int] = {}
        for t in self.transports:
            out[t.client_id] = (out.get(t.client_id, 0)
                                + getattr(t, "exposed_bytes", 0))
        return out
