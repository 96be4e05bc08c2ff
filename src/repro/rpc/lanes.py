"""Per-lane accounting for multiplexed connections (DESIGN.md §15).

When QP sharing is on (:mod:`repro.ib.mux`), one RC connection carries
many mounts as *virtual lanes*.  The connection-level credit window —
:class:`~repro.core.credits.CreditManager` on the client, the SRQ-aware
:class:`~repro.core.flowcontrol.SrqCreditPolicy` on the server — stays
the hard safety cap (receives never overrun); what it cannot provide is
*fairness between lanes*, and it cannot audit that each lane's traffic
stays FIFO on the shared queue pair.  The :class:`LaneLedger` is the
server-side half of both jobs: it tracks per-lane sequence numbers
(RC delivers in order, and a lane never migrates between QPs, so the
sequence observed at the server must be non-decreasing — any regression
is a demux bug and increments :attr:`~LaneLedger.order_violations`)
and carves the connection grant into equal per-lane slices echoed in
version-2 reply headers.
"""

from __future__ import annotations

from repro.sim import Counter

__all__ = ["LaneLedger", "lane_grant"]


def lane_grant(connection_grant: int, active_lanes: int) -> int:
    """Equal slice of the connection window, never starving a lane."""
    return max(1, connection_grant // max(1, active_lanes))


class LaneLedger:
    """Server-side per-lane bookkeeping over one shared connection."""

    def __init__(self, name: str = "lanes"):
        self.name = name
        #: sequence regressions seen on any lane — must stay zero.
        self.order_violations = Counter(f"{name}.order_violations")
        #: total lane-tagged calls observed.
        self.calls = Counter(f"{name}.calls")
        #: lane id -> highest sequence number seen.
        self._last_seq: dict[int, int] = {}

    def on_call(self, lane: int, seq: int) -> None:
        """Record an arriving call; flag out-of-order lane sequences.

        Retransmissions legitimately replay an already-seen sequence
        number (equal is fine); only a strictly *older* sequence after a
        newer one means the shared queue reordered a lane.
        """
        last = self._last_seq.get(lane)
        if last is not None and seq < last:
            self.order_violations.add()
        else:
            self._last_seq[lane] = seq
        self.calls.add()

    @property
    def active_lanes(self) -> int:
        return len(self._last_seq)

    def grant_for(self, lane: int, connection_grant: int) -> int:
        """The per-lane credit slice advertised in a version-2 reply."""
        return lane_grant(connection_grant, self.active_lanes)
