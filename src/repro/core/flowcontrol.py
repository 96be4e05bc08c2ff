"""Adaptive credit flow control — the paper's §7 future work, implemented.

"As part of future work, we would like to study buffer management and
credit flow control schemes to further enhance the multi-client
scalability of our NFS/RDMA design."

The RPC/RDMA credits field already lets every reply refresh the
client's grant (:mod:`repro.core.credits`).  This module supplies the
*server-side policy*: an object with ``register_connection``,
``unregister_connection`` and ``grant_for(conn_id, backlog)`` that
watches the dispatcher backlog and per-connection demand and computes
the grant each reply should carry, shrinking grants under overload (so
one client cannot bury the task queue) and growing them while the
server has headroom.  A transport without a policy grants the static
``credits`` of its config.

The policy is deliberately simple and fully deterministic:

* the server has a global target of ``total_credits`` outstanding
  requests across all connections;
* each connection's grant is its fair share plus any unused share of
  idle connections, bounded by [min_grant, max_grant];
* when the dispatcher backlog exceeds ``backlog_high`` the total target
  halves (multiplicative decrease); it recovers by ``recover_step`` per
  grant decision once the backlog falls below ``backlog_low``
  (additive increase).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import Counter

__all__ = ["AdaptiveCreditPolicy", "SrqCreditPolicy"]


@dataclass
class AdaptiveCreditPolicy:
    """AIMD credit management driven by dispatcher backlog."""

    total_credits: int = 128
    min_grant: int = 2
    max_grant: int = 64
    backlog_high: int = 32
    backlog_low: int = 8
    recover_step: int = 2

    def __post_init__(self):
        if not (1 <= self.min_grant <= self.max_grant):
            raise ValueError("need 1 <= min_grant <= max_grant")
        if self.backlog_low >= self.backlog_high:
            raise ValueError("backlog_low must sit below backlog_high")
        self._target = self.total_credits
        self._connections: set[int] = set()
        self.shrinks = Counter("credits.shrinks")
        self.grows = Counter("credits.grows")

    # -- membership ---------------------------------------------------------
    def register_connection(self, conn_id: int) -> None:
        self._connections.add(conn_id)

    def unregister_connection(self, conn_id: int) -> None:
        self._connections.discard(conn_id)

    # -- policy -----------------------------------------------------------
    @property
    def target(self) -> int:
        return self._target

    def grant_for(self, conn_id: int, backlog: int) -> int:
        if backlog > self.backlog_high:
            new_target = max(
                self._target // 2,
                self.min_grant * max(1, len(self._connections)),
            )
            if new_target < self._target:
                self._target = new_target
                self.shrinks.add()
        elif backlog < self.backlog_low and self._target < self.total_credits:
            self._target = min(self.total_credits,
                               self._target + self.recover_step)
            self.grows.add()
        nconn = max(1, len(self._connections))
        fair = self._target // nconn
        return max(self.min_grant, min(self.max_grant, fair))


class SrqCreditPolicy:
    """Grants backed by a shared receive pool (:mod:`repro.ib.srq`).

    The invariant that keeps a shared pool out of RNR stalls is

        sum of outstanding grants  <=  pool entries

    so each connection's grant is its fair share of the pool, further
    halved while the dispatcher backlog is high (the same AIMD pressure
    signal as :class:`AdaptiveCreditPolicy`, but the *total* is pinned
    to physical buffer capacity instead of a free parameter).
    """

    def __init__(self, pool, min_grant: int = 1, max_grant: int = 32,
                 backlog_high: int = 64):
        if not (1 <= min_grant <= max_grant):
            raise ValueError("need 1 <= min_grant <= max_grant")
        self.pool = pool
        self.min_grant = min_grant
        self.max_grant = max_grant
        self.backlog_high = backlog_high
        self._connections: set[int] = set()
        self.shrinks = Counter("srqcredits.shrinks")

    def register_connection(self, conn_id: int) -> None:
        self._connections.add(conn_id)

    def unregister_connection(self, conn_id: int) -> None:
        self._connections.discard(conn_id)

    def grant_for(self, conn_id: int, backlog: int) -> int:
        nconn = max(1, len(self._connections))
        fair = self.pool.entries // nconn
        if backlog > self.backlog_high:
            fair //= 2
            self.shrinks.add()
        return max(self.min_grant, min(self.max_grant, fair))
