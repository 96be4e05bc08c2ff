"""Chaos soak: a multi-client Postmark-style workload under faults.

The robustness counterpart of the paper's performance figures: instead
of measuring bandwidth, the soak drives several clients through a
metadata- and data-heavy file workload while a seeded
:class:`~repro.faults.FaultPlan` kills queue pairs, drops ~1% of
channel messages and injects transient disk errors — then checks the
recovery machinery's two promises:

* **exactly-once** — no non-idempotent NFS procedure (CREATE, REMOVE,
  RENAME) executes twice, however many times it was resent;
* **durability** — every acknowledged stable WRITE reads back intact
  after all faults and recoveries.

Everything derives from two seeds (cluster, plan), so a failing soak
reproduces exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.analysis import SOLARIS_SDR
from repro.core.config import RpcRdmaConfig
from repro.experiments.cluster import Cluster, ClusterConfig
from repro.experiments.figures import EXPERIMENTS, ExperimentResult
from repro.faults import FaultPlan
from repro.nfs.protocol import Nfs3Proc
from repro.sim import DeterministicRNG

__all__ = [
    "ChaosSoakOutcome",
    "recovery_summary",
    "run_chaos_soak",
]

NFS_PROG, NFS_VERS = 100003, 3
#: The soak's reply timer, above its fault-free WRITE tail so a timeout
#: means an injected fault: the quick soak without loss, QP kills or disk
#: faults measures WRITE p50 56.7 ms, p99 77.8 ms, max 102.4 ms (at 30 ms
#: the faulted soak timed out 92 times for its 2 dropped messages).
REPLY_TIMEOUT_US = 150_000.0
NON_IDEMPOTENT = frozenset(
    {Nfs3Proc.CREATE, Nfs3Proc.REMOVE, Nfs3Proc.RENAME}
)


def recovery_summary(cluster: Cluster) -> ExperimentResult:
    """Fault/recovery counters of a run, as a reportable table.

    Covers every layer that participates in self-healing: per-mount
    transport retries and redials, the server's duplicate request
    cache, FMR fallback degradations, disk retry loops, and (when a
    plan was armed) what the injector actually fired.
    """
    rows: list[list] = []
    for i, mount in enumerate(cluster.mounts):
        t = mount.transport
        for counter, label in (
            (getattr(t, "retransmissions", None), "retransmissions"),
            (getattr(t, "reconnects", None), "reconnects"),
            (getattr(t, "calls_recovered", None), "calls recovered"),
        ):
            if counter is not None:
                rows.append([f"client{i}", label, counter.events])
    for stack in cluster.all_stacks:
        rows.append([stack.name, "drc replays", stack.drc.replays.events])
        rows.append([stack.name, "drc duplicate drops",
                     stack.drc.drops.events])
        if hasattr(stack.strategy, "fallbacks"):
            rows.append([stack.name, "fmr fallbacks",
                         stack.strategy.fallbacks.events])
        if stack.raid is not None:
            hits = sum(d.transient_errors.events for d in stack.raid.disks)
            rows.append([stack.name, "disk transient errors", hits])
    if cluster.faults is not None:
        for label, value in cluster.faults.summary().items():
            rows.append(["injector", label, value])
    return ExperimentResult(
        experiment="Recovery summary",
        headers=["where", "counter", "events"],
        rows=rows,
        paper_reference=EXPERIMENTS["chaos"].paper_reference,
    )


@dataclass
class ChaosSoakOutcome:
    """Everything a caller needs to assert the soak's invariants."""

    completed: bool
    #: per-client list of (filename, expected bytes) that verified OK.
    verified_files: int
    #: acknowledged stable writes whose read-back mismatched (must be 0).
    lost_writes: int
    #: (xid, proc) -> handler executions for non-idempotent procedures.
    executions: dict = field(default_factory=dict)
    summary: Optional[ExperimentResult] = None
    cluster: Optional[Cluster] = None

    @property
    def duplicate_executions(self) -> int:
        return sum(n - 1 for n in self.executions.values() if n > 1)


def _instrument(cluster) -> dict:
    """Count non-idempotent executions on every server stack."""
    executions: dict = {}
    for stack in cluster.all_stacks:
        programs = stack.rpc_server._programs

        def wrapped(call, original=programs[(NFS_PROG, NFS_VERS)]):
            if call.proc in NON_IDEMPOTENT:
                key = (call.xid, call.proc)
                executions[key] = executions.get(key, 0) + 1
            return (yield from original(call))

        programs[(NFS_PROG, NFS_VERS)] = wrapped
    return executions


def _postmark(nfs, index, rng, nfiles, file_bytes, transactions, state):
    """One client's Postmark-style lifetime.

    ``state`` collects {name: expected content} for every file whose
    stable WRITE was acknowledged — the durability ledger.
    """
    files = state["files"]
    # Initial pool.
    for i in range(nfiles):
        name = f"c{index}-f{i}"
        fh, _ = yield from nfs.create(nfs.root, name)
        data = rng.bytes(file_bytes)
        yield from nfs.write(fh, 0, data, stable=True)
        files[name] = (fh, data)
    # Transactions: weighted mix of read / overwrite / create / delete /
    # rename, like Postmark's transaction phase.
    serial = nfiles
    for _ in range(transactions):
        op = rng.choice(("read", "write", "create", "delete", "rename"))
        if op == "read" and files:
            name = rng.choice(sorted(files))
            fh, expect = files[name]
            data, _, _ = yield from nfs.read(fh, 0, len(expect))
            if data != expect:
                state["lost"] += 1
        elif op == "write" and files:
            name = rng.choice(sorted(files))
            fh, _ = files[name]
            data = rng.bytes(file_bytes)
            yield from nfs.write(fh, 0, data, stable=True)
            files[name] = (fh, data)
        elif op == "create":
            name = f"c{index}-f{serial}"
            serial += 1
            fh, _ = yield from nfs.create(nfs.root, name)
            data = rng.bytes(file_bytes)
            yield from nfs.write(fh, 0, data, stable=True)
            files[name] = (fh, data)
        elif op == "delete" and len(files) > 1:
            name = rng.choice(sorted(files))
            yield from nfs.remove(nfs.root, name)
            del files[name]
        elif op == "rename" and files:
            name = rng.choice(sorted(files))
            newname = f"{name}-r{serial}"
            serial += 1
            yield from nfs.rename(nfs.root, name, nfs.root, newname)
            files[newname] = files.pop(name)
    # Verification sweep: every acknowledged write must read back.
    verified = 0
    for name in sorted(files):
        fh, expect = files[name]
        data, _, _ = yield from nfs.read(fh, 0, len(expect))
        if data == expect:
            verified += 1
        else:
            state["lost"] += 1
    state["verified"] = verified
    state["done"] = True


def run_chaos_soak(
    scale: str = "quick",
    seed: int = 2007,
    nclients: int = 4,
    loss_rate: float = 0.01,
    qp_kills: int = 3,
    disk_faults: int = 2,
    crashes: int = 0,
    telemetry: bool = False,
) -> ChaosSoakOutcome:
    """Build a faulted cluster, run the soak, check the invariants.

    ``crashes`` arms that many seeded server crash-restarts on top of
    the usual chaos mix; ``telemetry`` builds the cluster with the
    metrics registry attached so ``repro health`` can grade the run.
    """
    if scale == "quick":
        nfiles, file_bytes, transactions = 6, 16 * 1024, 30
        duration_us = 400_000.0
        horizon_us = 600_000_000.0
    else:
        nfiles, file_bytes, transactions = 20, 32 * 1024, 150
        duration_us = 3_000_000.0
        horizon_us = 3_600_000_000.0
    profile = replace(
        SOLARIS_SDR,
        rpcrdma=replace(RpcRdmaConfig(), reply_timeout_us=REPLY_TIMEOUT_US),
    )
    plan = FaultPlan.chaos(
        seed=seed,
        duration_us=duration_us,
        nclients=nclients,
        loss_rate=loss_rate,
        qp_kills=qp_kills,
        disk_faults=disk_faults,
        crashes=crashes,
    )
    cluster = Cluster(ClusterConfig(
        transport="rdma-rw",
        backend="raid",
        nclients=nclients,
        seed=seed,
        profile=profile,
        # Small server cache: the workload spills to the spindles, so
        # armed disk faults actually land in the I/O path.
        cache_bytes=2 << 20,
        fault_plan=plan,
        telemetry=telemetry,
    ))
    executions = _instrument(cluster)
    states = []
    for index, mount in enumerate(cluster.mounts):
        rng = DeterministicRNG(seed, "chaos-soak", f"client{index}")
        state = {"files": {}, "lost": 0, "verified": 0, "done": False}
        states.append(state)
        cluster.sim.process(
            _postmark(mount.nfs, index, rng, nfiles, file_bytes,
                      transactions, state),
            name=f"soak.client{index}",
        )
    cluster.sim.run(until=cluster.sim.now + horizon_us)
    return ChaosSoakOutcome(
        completed=all(s["done"] for s in states),
        verified_files=sum(s["verified"] for s in states),
        lost_writes=sum(s["lost"] for s in states),
        executions=executions,
        summary=recovery_summary(cluster),
        cluster=cluster,
    )

