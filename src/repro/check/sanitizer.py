"""Runtime RDMA sanitizer: invariant checks on the simulated data path.

The paper's security argument is about memory-protection mistakes —
guessable steering tags, buffers pinned forever, server memory exposed
to remote Reads — and four PRs of protocol code enforce the matching
invariants only implicitly.  This module makes them machine-checked:

========================  =============================================
rule                      checked where
========================  =============================================
``bounds`` / ``access``   RDMA Read/Write target validation in the HCA
                          delivery path, *before* the TPT lookup, so a
                          violation surfaces as a typed error rather
                          than a modeled NAK.
``stale-stag``            Every registration and invalidation bumps a
                          per-``(tpt, stag)`` epoch; work requests
                          snapshot the epochs they name at post time
                          and the HCA re-checks at execution/delivery.
                          This catches the FMR stag-reuse window — a WR
                          naming a stag that was unmapped and remapped
                          to a different buffer passes the TPT lookup
                          but fails the epoch check.
``chunk-lifetime``        Transports declare the chunk windows they
                          advertise in an RPC/RDMA header and retire
                          them when the call completes (client) or the
                          ``RDMA_DONE`` arrives (Read-Read server).  A
                          remote access outside every live window for
                          its stag — or against a retired stag the
                          registration cache kept valid — violates.
``srq``                   Shared-receive-pool slots follow a strict
                          posted → taken → posted cycle; double-post
                          (= double-recycle) and take-of-unposted fire.
``credits``               Conservation per connection: ``outstanding -
                          deficit <= grant`` and no release without an
                          acquire (checked against the manager's own
                          counters, never the pool level, so blocked
                          acquirers can't false-positive).
``drc``                   ``begin`` of a (xid, prog, proc) key whose
                          entry is still live = a re-execution the
                          exactly-once machinery should have stopped.
``leak``                  Teardown report: strategy acquire/release
                          imbalance, FMR mappings never unmapped,
                          Read-Read exposures still awaiting DONE (the
                          paper's pinned-forever complaint), QPs left
                          on an HCA that no transport holds, and closed
                          transports whose inline pools are still
                          registered.
========================  =============================================

Timing inertness: every hook only *reads* simulator state — no events,
no CPU charges, no RNG draws — so a sanitized run's figure tables are
bit-identical to an unsanitized run (asserted by ``repro check``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import (
    AccessViolation,
    BoundsViolation,
    ChunkLifetimeViolation,
    CreditViolation,
    DrcViolation,
    LeakViolation,
    SanitizerError,
    SrqViolation,
    StaleStagViolation,
)
from repro.ib.memory import AccessFlags
from repro.ib.phys import GLOBAL_STAG

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Simulator

__all__ = ["Sanitizer", "Violation"]

#: Rule names in reporting order (also the telemetry counter keys).
RULES = ("bounds", "access", "stale-stag", "chunk-lifetime", "srq",
         "credits", "drc", "leak", "nondeterminism")


@dataclass(frozen=True)
class Violation:
    """One recorded invariant violation."""

    rule: str
    message: str
    time: float


class Sanitizer:
    """Runtime invariant checker; attach via ``sim.sanitizer``.

    With ``raise_on_violation`` (the default) the offending hook raises
    the typed :class:`~repro.errors.SanitizerError` subclass at the
    exact simulated instant of the violation — the ASAN-style "crash at
    first badness".  With it off, violations are only recorded in
    :attr:`violations` (the soak/telemetry mode).
    """

    RULES = RULES

    def __init__(self, sim: "Simulator", raise_on_violation: bool = True):
        self.sim = sim
        self.raise_on_violation = raise_on_violation
        self.violations: list[Violation] = []
        self.counts: dict[str, int] = {rule: 0 for rule in RULES}
        # (tpt name, stag) -> registration epoch.  Bumped on every
        # register/map AND deregister/unmap/invalidate, so any epoch
        # change between snapshot and use means the binding changed.
        self._epoch: dict[tuple[str, int], int] = {}
        # (tpt name, stag) -> live advertised windows
        # [addr, length, xid, kind] with kind "read" | "write".
        self._advertised: dict[tuple[str, int], list[tuple[int, int, int, str]]] = {}
        # (tpt name, xid) -> stag keys advertised under that call.
        self._adv_by_xid: dict[tuple[str, int], list[tuple[str, int]]] = {}
        # Stags whose advertisements were all retired while the
        # registration itself stayed live (registration cache): writes
        # here are use-after-retire even though the TPT would allow them.
        self._retired: set[tuple[str, int]] = set()
        # (pool name, slot index) -> "posted" | "taken".
        self._srq_state: dict[tuple[str, int], str] = {}

    # -- reporting --------------------------------------------------------
    def _violate(self, exc_cls: type[SanitizerError], message: str) -> None:
        self.violations.append(Violation(exc_cls.rule, message, self.sim.now))
        self.counts[exc_cls.rule] += 1
        if self.raise_on_violation:
            raise exc_cls(f"[t={self.sim.now:.3f}us] {message}")

    @property
    def total_violations(self) -> int:
        return len(self.violations)

    # -- registration epochs (TPT / FMR hooks) ----------------------------
    def on_register(self, tpt, mr) -> None:
        """A stag was bound (TPT register or FMR map)."""
        key = (tpt.name, mr.stag)
        self._epoch[key] = self._epoch.get(key, 0) + 1
        # A fresh binding under a reused stag starts a new lifetime.
        self._retired.discard(key)

    def on_invalidate(self, tpt, mr) -> None:
        """A stag binding was dropped (deregister, FMR unmap, teardown)."""
        key = (tpt.name, mr.stag)
        self._epoch[key] = self._epoch.get(key, 0) + 1

    # -- work-request epoch snapshots -------------------------------------
    def on_post_send(self, qp, wr) -> None:
        """Snapshot the epochs of every stag the WR names, at post time."""
        tname = qp.hca.tpt.name
        segs = getattr(wr, "segments", None)
        if segs is None:
            segs = getattr(wr, "local", None)
        if segs:
            epoch = self._epoch
            wr._san_local = [
                (seg.stag, epoch.get((tname, seg.stag), 0))
                for seg in segs if seg.stag != GLOBAL_STAG
            ]
        remote = getattr(wr, "remote", None)
        if remote is not None and remote.stag != GLOBAL_STAG and qp.peer is not None:
            rname = qp.peer.hca.tpt.name
            wr._san_remote = (remote.stag, self._epoch.get((rname, remote.stag), 0))

    def on_wr_execute(self, hca, wr) -> None:
        """The HCA began executing ``wr``: its local stags must be unchanged."""
        snap = getattr(wr, "_san_local", None)
        if not snap:
            return
        tname = hca.tpt.name
        for stag, epoch in snap:
            current = self._epoch.get((tname, stag), 0)
            if current != epoch:
                self._violate(
                    StaleStagViolation,
                    f"{hca.name}: WR {wr.wr_id} executed with local stag "
                    f"{stag:#010x} whose registration changed since posting "
                    f"(epoch {epoch} -> {current})",
                )

    # -- remote target validation -----------------------------------------
    def _check_remote_epoch(self, tpt, wr) -> None:
        snap = getattr(wr, "_san_remote", None)
        if snap is None:
            return
        stag, epoch = snap
        current = self._epoch.get((tpt.name, stag), 0)
        if current != epoch:
            self._violate(
                StaleStagViolation,
                f"{tpt.name}: WR {wr.wr_id} targets stag {stag:#010x} whose "
                f"registration changed since posting (epoch {epoch} -> "
                f"{current}) — use-after-{'unmap' if current > epoch else 'free'}",
            )

    def _check_remote_mr(self, tpt, stag: int, addr: int, length: int,
                         need: AccessFlags, wr) -> None:
        mr = tpt._entries.get(stag)
        if mr is None or not mr.valid:
            self._violate(
                StaleStagViolation,
                f"{tpt.name}: WR {wr.wr_id} targets stag {stag:#010x} with no "
                f"live registration (use-after-deregister)",
            )
            return
        if need & ~mr.access:
            self._violate(
                AccessViolation,
                f"{tpt.name}: stag {stag:#010x} grants {mr.access!r} but WR "
                f"{wr.wr_id} needs {need!r}",
            )
        if addr < mr.addr or addr + length > mr.addr + mr.length:
            self._violate(
                BoundsViolation,
                f"{tpt.name}: access {addr:#x}+{length} outside MR "
                f"[{mr.addr:#x}, {mr.addr + mr.length:#x}) for stag {stag:#010x}",
            )

    def _check_chunk(self, tpt_name: str, stag: int, addr: int, length: int,
                     kind: str, wr) -> None:
        key = (tpt_name, stag)
        windows = self._advertised.get(key)
        if windows:
            for waddr, wlength, _xid, wkind in windows:
                if wkind == kind and waddr <= addr and addr + length <= waddr + wlength:
                    return
            self._violate(
                ChunkLifetimeViolation,
                f"{tpt_name}: RDMA {kind} {addr:#x}+{length} on stag "
                f"{stag:#010x} lands outside every advertised {kind} chunk",
            )
        elif key in self._retired:
            self._violate(
                ChunkLifetimeViolation,
                f"{tpt_name}: RDMA {kind} on stag {stag:#010x} after its "
                f"advertised chunk was retired (call already completed)",
            )
        # Never-advertised stags are raw verbs traffic (transport pools,
        # tests): bounds/access/epoch checks above still cover them.

    def on_rdma_write_target(self, tpt, wr, nbytes: int) -> None:
        """An RDMA Write is landing in ``tpt``'s memory."""
        if getattr(wr, "adversarial", False):
            # Modeled attack traffic (repro.security): the TPT's NAK is
            # the *expected* outcome, not an invariant violation.
            return
        remote = wr.remote
        if remote.stag == GLOBAL_STAG:
            return
        self._check_remote_epoch(tpt, wr)
        self._check_remote_mr(tpt, remote.stag, remote.addr, nbytes,
                              AccessFlags.REMOTE_WRITE, wr)
        self._check_chunk(tpt.name, remote.stag, remote.addr, nbytes, "write", wr)

    def on_rdma_read_target(self, tpt, wr) -> None:
        """An RDMA Read is being served from ``tpt``'s memory."""
        if getattr(wr, "adversarial", False):
            return
        remote = wr.remote
        if remote.stag == GLOBAL_STAG:
            return
        self._check_remote_epoch(tpt, wr)
        self._check_remote_mr(tpt, remote.stag, remote.addr, remote.length,
                              AccessFlags.REMOTE_READ, wr)
        self._check_chunk(tpt.name, remote.stag, remote.addr, remote.length,
                          "read", wr)

    # -- advertised-chunk lifetime ----------------------------------------
    def advertise(self, tpt_name: str, xid: int, chunks) -> None:
        """Declare the chunk windows an RPC/RDMA header exposes.

        ``tpt_name`` is the TPT of the *advertising* side (whose memory
        the peer will access).  Read chunks may be RDMA-Read, write and
        reply chunks RDMA-Written, until :meth:`retire` for ``xid``.
        """
        if chunks is None:
            return
        for chunk in chunks.read_chunks:
            self._advertise_segment(tpt_name, xid, chunk.segment, "read")
        for chunk in chunks.write_chunks:
            for seg in chunk.segments:
                self._advertise_segment(tpt_name, xid, seg, "write")
        if chunks.reply_chunk is not None:
            for seg in chunks.reply_chunk.segments:
                self._advertise_segment(tpt_name, xid, seg, "write")

    def _advertise_segment(self, tpt_name: str, xid: int, seg, kind: str) -> None:
        if seg.stag == GLOBAL_STAG:
            return
        key = (tpt_name, seg.stag)
        self._retired.discard(key)
        self._advertised.setdefault(key, []).append(
            (seg.addr, seg.length, xid, kind))
        self._adv_by_xid.setdefault((tpt_name, xid), []).append(key)

    def retire(self, tpt_name: str, xid: int) -> None:
        """The call owning ``xid``'s advertisements completed."""
        keys = self._adv_by_xid.pop((tpt_name, xid), None)
        if not keys:
            return
        for key in keys:
            windows = self._advertised.get(key)
            if windows is None:
                continue
            windows[:] = [w for w in windows if w[2] != xid]
            if not windows:
                del self._advertised[key]
                self._retired.add(key)

    # -- shared receive pool ----------------------------------------------
    def on_srq_post(self, pool, slot) -> None:
        key = (pool.name, slot.index)
        if self._srq_state.get(key) == "posted":
            self._violate(
                SrqViolation,
                f"{pool.name}: slot {slot.index} posted while already posted "
                f"(double-recycle)",
            )
        self._srq_state[key] = "posted"

    def on_srq_take(self, pool, slot) -> None:
        key = (pool.name, slot.index)
        if self._srq_state.get(key) != "posted":
            self._violate(
                SrqViolation,
                f"{pool.name}: slot {slot.index} taken while not posted",
            )
        self._srq_state[key] = "taken"

    # -- credit conservation ----------------------------------------------
    def check_credits(self, mgr) -> None:
        """Invariant after any acquire/release: derived from the pool
        algebra ``level + outstanding - deficit == grant`` with
        ``level >= 0``, but stated only in the manager's own counters so
        credits parked in transit to a blocked acquirer can't
        false-positive."""
        if mgr._outstanding < 0 or mgr._deficit < 0:
            self._violate(
                CreditViolation,
                f"{mgr.name}: negative accounting (outstanding="
                f"{mgr._outstanding}, deficit={mgr._deficit})",
            )
        elif mgr._outstanding - mgr._deficit > mgr.grant:
            self._violate(
                CreditViolation,
                f"{mgr.name}: {mgr._outstanding} outstanding exceeds grant "
                f"{mgr.grant} (deficit {mgr._deficit}) — more requests in "
                f"flight than receive buffers",
            )

    def credit_underflow(self, mgr) -> None:
        self._violate(
            CreditViolation,
            f"{mgr.name}: credit released but none outstanding",
        )

    # -- duplicate request cache ------------------------------------------
    def on_drc_begin(self, drc, xid: int, prog: int, proc: int) -> None:
        if (xid, prog, proc) in drc._entries:
            self._violate(
                DrcViolation,
                f"{drc.name}: began executing xid {xid:#x} prog {prog} proc "
                f"{proc} while its cache entry is live — exactly-once broken",
            )

    # -- teardown leak report ---------------------------------------------
    def leak_report(self, cluster) -> list[str]:
        """Buffers still pinned/registered once a cluster is quiescent."""
        leaks: list[str] = []
        # Every server/data-server stack has its own strategy (auditing
        # only the first would hide leaks on the other shards), and so
        # does every client connection: dedicated mounts, mux channels
        # (their lanes share it) and striped data-server legs.
        strategies: list[tuple[str, object]] = [
            (stack.name, stack.strategy) for stack in cluster.all_stacks]
        strategies += [(t.name, t.strategy) for t in cluster.client_transports
                       if getattr(t, "strategy", None) is not None]
        for label, strategy in strategies:
            held = strategy.acquires.events - strategy.releases.events
            if held > 0:
                leaks.append(
                    f"{label}/{strategy.name}: {held} region(s) acquired but "
                    f"never released"
                )
            fmr_pool = getattr(strategy, "pool", None)
            if fmr_pool is not None and hasattr(fmr_pool, "pool_size"):
                mapped = fmr_pool.pool_size - fmr_pool.available
                if mapped > 0:
                    leaks.append(
                        f"{label}/{strategy.name}: {mapped} FMR mapping(s) "
                        f"never unmapped"
                    )
        for transport in cluster.server_transports:
            pending = getattr(transport, "pending_done", None)
            if pending:
                leaks.append(
                    f"{transport.name}: {len(pending)} exposure(s) still "
                    f"awaiting RDMA_DONE (client-controlled lifetime)"
                )
        # Connection lifecycle on every HCA on the fabric, attacker hosts
        # included: a QP no transport holds was never destroyed, and a
        # closed transport (its QP destroyed) must have deregistered its
        # inline pools.
        rdma = [t for t in (*cluster.client_transports,
                            *cluster.server_transports)
                if getattr(t, "qp", None) is not None]
        held = {t.qp for t in rdma}
        hcas = [node.hca for node in cluster.fabric.nodes.values()]
        for hca in hcas:
            stale = sum(qp not in held for qp in hca.qps)
            if stale:
                leaks.append(f"{hca.name}: {stale} QP(s) held by no "
                             f"transport were never destroyed")
        live = {qp for hca in hcas for qp in hca.qps}
        leaks += [f"{t.name}: closed with inline buffers still registered"
                  for t in rdma if t.qp not in live and any(
                      pool is not None and pool.regions
                      for pool in (t.send_pool, t.recv_pool))]
        return leaks

    def check_teardown(self, cluster) -> None:
        """Raise/record a ``leak`` violation if the cluster leaks."""
        leaks = self.leak_report(cluster)
        if leaks:
            self._violate(LeakViolation, "; ".join(leaks))
