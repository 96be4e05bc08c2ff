"""Adversary campaigns: long-running attacks against a live cluster.

A *campaign* mixes malicious mounts in with legitimate IOzone-style
traffic on one simulated deployment and measures both sides of the
fight: what the attackers achieve (stag-guess hits, pinned-buffer
growth, garbage absorbed) and what the victims pay (read bandwidth,
p99 latency, server CPU) — with the §4.1 mitigations toggled by the
cluster's hardening knobs (leases, exposure quotas, misbehavior
quarantine, AES payloads).

Timeline of one campaign of duration ``D`` (all knobs in
:class:`CampaignParams`):

* ``t=0``       legitimate mounts and the DONE-withholder start
  steady-state read loops over pre-written files;
* ``t=0.25·D``  the stag-guessing adversary starts firing (optionally
  biased toward stags the server has ever exposed — an attacker with
  partial knowledge);
* ``t=0.4·D``   the flood adversary starts its garbage bursts;
* ``t=0.5·D``   the stale-chunk replay adversary (which until now
  behaved like an honest mount) replays its recorded windows;
* ``t=D``       legitimate loops wind down; metrics are captured, then
  the malicious connections are drained so teardown leak checks stay
  meaningful.

Against the Read-Write design the withholding and replay attacks
degrade to ordinary traffic by construction — the server exposes no
stags and controls its own buffer lifetime — which is exactly the
paper's security argument, measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Generator

from repro.analysis.latency import LatencyRecorder
from repro.core import ReadWriteClient
from repro.errors import TransportError
from repro.experiments.cluster import Mount
from repro.nfs import NfsClient
from repro.payload import Payload
from repro.security.adversary import (
    DoneWithholdingClient,
    FloodAdversary,
    StagGuessingAdversary,
    StaleChunkReplayAdversary,
)
from repro.sim import AllOf

__all__ = ["CampaignParams", "CampaignResult", "run_campaign"]

ADVERSARIES = ("withhold", "guess", "replay", "flood")


@dataclass(frozen=True)
class CampaignParams:
    """One adversary campaign."""

    #: steady-state window (µs) the legitimate mounts are measured over.
    duration_us: float = 60_000.0
    #: which attacks to run alongside the legitimate traffic.
    adversaries: tuple = ADVERSARIES
    record_bytes: int = 128 * 1024
    file_bytes: int = 1 << 20
    #: stag-guess attempts (50 % biased to ever-exposed stags when
    #: ``informed_guesser`` — the partial-knowledge attacker).
    guesses: int = 64
    informed_guesser: bool = True
    #: flood rounds (each = ``8`` garbage sends + one wild RDMA Read).
    flood_bursts: int = 6
    #: legitimate reads the replay adversary performs while it is still
    #: indistinguishable from an honest mount.
    replay_reads: int = 4
    #: settle time between the replayer's last honest read and its
    #: replay burst, so in-flight DONEs retire first — a replay of a
    #: window the client itself just read is not a leak.
    replay_grace_us: float = 2_000.0
    seed: int = 1337

    def __post_init__(self):
        if self.duration_us <= 0:
            raise ValueError("duration_us must be positive")
        for adv in self.adversaries:
            if adv not in ADVERSARIES:
                raise ValueError(f"unknown adversary {adv!r}")


@dataclass
class CampaignResult:
    """Scalar outcomes of one campaign (everything a figure needs)."""

    # victims
    legit_ops: int = 0
    legit_read_mb_s: float = 0.0
    legit_p99_us: float = 0.0
    legit_p99_late_us: float = 0.0      # p99 of the attacked half
    server_cpu: float = 0.0
    # attack surface
    pinned_peak_bytes: int = 0
    pinned_final_bytes: int = 0
    protection_naks: int = 0
    # per-adversary outcomes
    guess_attempts: int = 0
    guess_hits: int = 0
    replay_count: int = 0
    replay_hits: int = 0
    flood_garbage: int = 0
    malformed_wrs: int = 0
    # mitigation activity
    lease_reclaimed_bytes: int = 0
    quota_evicted_bytes: int = 0
    quarantined: int = 0
    redials_refused: int = 0
    aes_crypt_bytes: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def run_campaign(cluster, params: CampaignParams) -> CampaignResult:
    """Run one campaign against ``cluster``; returns scalar outcomes.

    The cluster must use an RDMA transport.  Its own mounts are the
    legitimate victims; malicious mounts are added on fresh nodes.
    """
    if not cluster.config.is_rdma:
        raise ValueError("campaigns require an RDMA cluster")
    sim = cluster.sim
    is_rr = cluster.config.transport == "rdma-rr"
    payload = Payload.tile(bytes(range(256)), params.record_bytes)
    records = max(1, params.file_bytes // params.record_bytes)
    stack = cluster.server_stacks[0]
    mal_nodes: dict = {}    # name → node, in creation order

    def mal_node(name: str):
        node = mal_nodes[name] = cluster.add_client_node(name)
        return node

    def mal_mount(name: str, client_cls) -> Mount:
        """A full NFS mount for a protocol-speaking adversary."""
        node = mal_node(name)
        client = stack.connect(node, client_cls=client_cls)
        return Mount(node=node, transport=client,
                     nfs=NfsClient(client, stack.nfs_server.root_handle(),
                                   name=f"{name}.nfs"))

    # -- malicious mounts --------------------------------------------------
    # Withhold/replay are Read-Read protocol attacks; against Read-Write
    # they degrade to ordinary clients (nothing to pin, nothing to
    # replay) — the comparison fig12 exists to show.  Raw adversaries
    # redial through the stack, which refuses a quarantined node.
    withholder = replayer = guesser = flooder = None
    if "withhold" in params.adversaries:
        withholder = mal_mount(
            "malwh", DoneWithholdingClient if is_rr else ReadWriteClient)
    if "replay" in params.adversaries:
        replayer = mal_mount(
            "malrp", StaleChunkReplayAdversary if is_rr else ReadWriteClient)
    if "guess" in params.adversaries:
        node = mal_node("malsg")
        guesser = StagGuessingAdversary(
            node, partial(stack.open_qp, node), seed=params.seed)
    if "flood" in params.adversaries:
        node = mal_node("malfl")
        flooder = FloodAdversary(
            node, partial(stack.open_qp, node), seed=params.seed + 1)

    # -- setup: pre-write every file (untimed) -----------------------------
    def write_file(nfs, tag: str) -> Generator:
        fh, _ = yield from nfs.create(nfs.root, f"campaign.{tag}")
        for i in range(records):
            yield from nfs.write(fh, i * params.record_bytes, payload)
        yield from nfs.commit(fh)
        return fh

    def setup() -> Generator:
        legit = []
        for m, mount in enumerate(cluster.mounts):
            legit.append((mount, (yield from write_file(mount.nfs, f"l{m}"))))
        mal = {}
        for tag, mm in (("wh", withholder), ("rp", replayer)):
            if mm is not None:
                mal[tag] = (mm, (yield from write_file(mm.nfs, tag)))
        return legit, mal

    legit_handles, mal_handles = cluster.run(setup())

    cluster.reset_utilization_windows()
    t0 = sim.now
    t_end = t0 + params.duration_us
    mid = t0 + params.duration_us / 2
    recorder = LatencyRecorder("legit")
    late = LatencyRecorder("legit-late")
    legit_ops = [0]
    legit_end = [t0]

    # -- victim traffic ----------------------------------------------------
    def legit_loop(mount, fh) -> Generator:
        i = 0
        while sim.now < t_end:
            start = sim.now
            data, _, _ = yield from mount.nfs.read(
                fh, (i % records) * params.record_bytes, params.record_bytes)
            if len(data) != params.record_bytes:
                raise AssertionError("short read in campaign")
            elapsed = sim.now - start
            recorder.record(elapsed)
            if start >= mid:
                late.record(elapsed)
            legit_ops[0] += 1
            legit_end[0] = max(legit_end[0], sim.now)
            i += 1

    # -- attacks -----------------------------------------------------------
    def withhold_loop() -> Generator:
        mm, fh = mal_handles["wh"]
        i = 0
        try:
            while sim.now < t_end:
                yield from mm.nfs.read(
                    fh, (i % records) * params.record_bytes,
                    params.record_bytes)
                i += 1
        except TransportError:
            return  # evicted and refused redial: the defense worked

    def replay_loop() -> Generator:
        mm, fh = mal_handles["rp"]
        try:
            for i in range(params.replay_reads):
                yield from mm.nfs.read(
                    fh, (i % records) * params.record_bytes,
                    params.record_bytes)
        except TransportError:
            return
        yield sim.timeout(max(mid - sim.now, params.replay_grace_us))
        if isinstance(mm.transport, StaleChunkReplayAdversary):
            yield from mm.transport.replay(partial(stack.open_qp, mm.node))

    def guess_loop() -> Generator:
        yield sim.timeout(params.duration_us * 0.25)
        targets = (cluster.server_node.hca.tpt.stags_exposed_ever
                   if params.informed_guesser else None)
        try:
            yield from guesser.run(params.guesses, target_stags=targets)
        except TransportError:
            return

    def flood_loop() -> Generator:
        yield sim.timeout(params.duration_us * 0.4)
        yield from flooder.run(params.flood_bursts)

    procs = [sim.process(legit_loop(mount, fh), name="campaign.legit")
             for mount, fh in legit_handles]
    if withholder is not None:
        procs.append(sim.process(withhold_loop(), name="campaign.withhold"))
    if replayer is not None:
        procs.append(sim.process(replay_loop(), name="campaign.replay"))
    if guesser is not None:
        procs.append(sim.process(guess_loop(), name="campaign.guess"))
    if flooder is not None:
        procs.append(sim.process(flood_loop(), name="campaign.flood"))

    def drive() -> Generator:
        yield AllOf(sim, procs)

    cluster.run(drive())
    # Victim bandwidth is measured over the *victims'* window — the
    # attacks may drain long after the legitimate loops wind down.
    elapsed = legit_end[0] - t0

    # -- capture (before draining the malicious connections) ---------------
    result = CampaignResult()
    result.legit_ops = legit_ops[0]
    result.legit_read_mb_s = (
        legit_ops[0] * params.record_bytes / elapsed if elapsed else 0.0)
    result.legit_p99_us = recorder.summarize().p99
    result.legit_p99_late_us = late.summarize().p99
    result.server_cpu = cluster.server_cpu_utilization()

    tpt = cluster.server_node.hca.tpt
    result.protection_naks = tpt.protection_faults.events
    # What the mitigations did comes from the stack's ledger, which
    # keeps the totals of connections a quarantine already dropped.
    policy = stack.security_policy
    result.pinned_final_bytes = sum(t.exposed_bytes
                                    for t in stack.server_transports)
    result.pinned_peak_bytes = policy.exposed_bytes_peak
    result.malformed_wrs = policy.malformed_wrs.events
    result.lease_reclaimed_bytes = int(policy.lease_reclaims.value)
    result.quota_evicted_bytes = int(policy.quota_evictions.value)
    result.quarantined = len(policy.quarantined)
    result.redials_refused = policy.redials_refused.events

    if guesser is not None:
        result.guess_attempts = guesser.attempts.events
        result.guess_hits = guesser.successes.events
    if replayer is not None and isinstance(
            replayer.transport, StaleChunkReplayAdversary):
        result.replay_count = replayer.transport.replays.events
        result.replay_hits = replayer.transport.replay_hits.events
    if flooder is not None:
        result.flood_garbage = flooder.garbage_sent.events

    if stack.rpcrdma.aes_payload:
        result.aes_crypt_bytes = int(stack.node.cpu.crypt_bytes.value)

    # -- drain: close both ends of every malicious connection so the
    # sanitizer's teardown leak check sees only what the mitigations
    # failed to reclaim on the *legitimate* transports (which is:
    # nothing).  The mounts' client ends close like any transport (a
    # Read-Read mount's final close gives its bounce buffers back); the
    # bare QPs the adversaries dialed have no owner, so the HCA destroys
    # whatever is left on each attacker host, and each adversary
    # deregisters its own scratch buffers.
    def drain() -> Generator:
        for server in [s for s in stack.server_transports
                       if s.client_id in mal_nodes]:
            yield from stack.drop(server)
        for mm in (withholder, replayer):
            if mm is not None:
                yield from mm.transport.close("campaign over")
        for node in mal_nodes.values():
            for qp in list(node.hca.qps):
                node.hca.destroy_qp(qp)
        owners = [guesser, flooder]
        if replayer is not None and isinstance(
                replayer.transport, StaleChunkReplayAdversary):
            owners.append(replayer.transport)
        for adversary in owners:
            if adversary is not None:
                yield from adversary.release_scratch()

    cluster.run(drain())
    return result
