"""Hardened-data-plane tests: leases, quotas, quarantine, AES, campaigns.

Complements ``test_security.py`` (the raw §4.1 attacks): here every
attack runs against a server with the PR-6 mitigations toggled on, and
the assertions are about the *defense* — bounded pinning, admission
control, escalation to quarantine, and the analytic stag-guess bound.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.sanitizer import Sanitizer
from repro.core.readread import ReadReadServer
from repro.experiments import Cluster, ClusterConfig
from repro.experiments.topology import TopologyConfig
from repro.faults import FaultPlan, QpKill
from repro.nfs import NfsClient
from repro.security import (
    CampaignParams,
    DoneWithholdingClient,
    StagGuessingAdversary,
    audit_server_exposure,
    run_campaign,
    stag_guess_success_probability,
)
from repro.workloads import IozoneParams, run_iozone

RECORD = 128 * 1024


def _withholder_cluster(**knobs):
    """An RR cluster plus a DONE-withholding mount dialed through the
    server stack, so its server end is hardened (leases/quota/policy)."""
    c = Cluster(ClusterConfig(transport="rdma-rr", **knobs))
    stack = c.server_stacks[0]
    withholder = stack.connect(c.mounts[0].node,
                               client_cls=DoneWithholdingClient)
    server = stack.server_transports[-1]
    nfs = NfsClient(withholder, c.nfs_server.root_handle())
    return c, nfs, withholder, server


def _withhold_eight(c, nfs):
    def attack():
        fh, _ = yield from nfs.create(nfs.root, "pinned")
        yield from nfs.write(fh, 0, bytes(1 << 20))
        for i in range(8):
            yield from nfs.read(fh, i * RECORD, RECORD)

    c.run(attack())


# ---------------------------------------------------------------- analytic bound
def test_uniform_guess_hits_match_analytic_bound():
    """Empirical uniform-guess hit count is consistent with the
    ``exposed / 2^32`` analytic probability: zero hits over any
    realistic number of attempts."""
    c = Cluster(ClusterConfig(transport="rdma-rr"))
    mount = c.mounts[0]

    def traffic():
        nfs = mount.nfs
        fh, _ = yield from nfs.create(nfs.root, "victim")
        yield from nfs.write(fh, 0, bytes(512 * 1024))
        for i in range(4):
            yield from nfs.read(fh, i * RECORD, RECORD)

    c.run(traffic())
    exposed = len(c.server_node.hca.tpt.stags_exposed_ever)
    assert exposed >= 4
    p = stag_guess_success_probability(exposed)
    assert p == exposed / 2**32

    def qp_factory():
        return c.server_stacks[0].open_qp(mount.node)

    adversary = StagGuessingAdversary(mount.node, qp_factory, seed=11)
    guesses = 200
    faults_before = c.server_node.hca.tpt.protection_faults.events
    c.run(adversary.run(guesses=guesses))
    # Expected hits = guesses * p ~ 2e-8: a single observed hit would be
    # a >1e7-sigma event, i.e. a randomization bug.
    assert guesses * p < 1e-6
    assert adversary.successes.events == 0
    assert (c.server_node.hca.tpt.protection_faults.events
            - faults_before) >= guesses


# ---------------------------------------------------------------- leases
def test_withheld_pins_unbounded_without_leases():
    c, nfs, withholder, server = _withholder_cluster()
    _withhold_eight(c, nfs)
    c.sim.run(until=c.sim.now + 200_000.0)
    # No deadline: all eight windows stay pinned forever.
    assert withholder.dones_suppressed.events == 8
    assert server.pending_done_count == 8
    assert c.security_policy.lease_reclaims.events == 0


def test_leases_reclaim_withheld_pins():
    c, nfs, withholder, server = _withholder_cluster(lease_timeout_us=5_000.0)
    _withhold_eight(c, nfs)
    c.sim.run(until=c.sim.now + 200_000.0)
    assert withholder.dones_suppressed.events == 8
    # Every withheld window was reclaimed at its lease deadline.
    assert server.pending_done_count == 0
    # The stack's ledger counted the reclaims (a misbehavior signal)
    # and the TPT holds no remote exposure.
    assert c.security_policy.lease_reclaims.events == 8
    assert c.security_policy.lease_reclaims.value == 8 * RECORD
    report = audit_server_exposure(c.server_node, c.server_transports)
    assert report["exposed_regions_now"] == 0


# ---------------------------------------------------------------- quotas
def test_quota_caps_pinned_exposure():
    quota = 2 * RECORD
    c, nfs, withholder, server = _withholder_cluster(
        exposure_quota_bytes=quota)
    _withhold_eight(c, nfs)
    report = audit_server_exposure(c.server_node, [server])
    assert report["pending_done_bytes"] <= quota
    # Six of the eight windows were evicted by admission control.
    assert c.security_policy.quota_evictions.events >= 6
    assert c.security_policy.quota_evictions.value >= 6 * RECORD


def test_running_exposure_total_settles_on_every_retire_path():
    """DONE, quota eviction, lease expiry and close each keep the
    server's running ``exposed_bytes`` equal to what is still exposed."""
    def exposed(server):
        return sum(r.length for r in server.exposed_regions())

    c, nfs, _, server = _withholder_cluster(exposure_quota_bytes=2 * RECORD)
    _withhold_eight(c, nfs)
    assert c.security_policy.quota_evictions.events >= 6
    assert server.exposed_bytes == exposed(server) > 0
    honest = c.server_transports[0]
    mount = c.mounts[0].nfs

    def read_back():
        fh, _ = yield from mount.lookup(mount.root, "pinned")
        yield from mount.read(fh, 0, RECORD)

    c.run(read_back())
    c.sim.run(until=c.sim.now + 1_000.0)  # the DONE lands
    assert honest.dones_received.events == 1
    assert honest.exposed_bytes == exposed(honest) == 0
    c.run(c.server_stacks[0].drop(server))
    assert server.exposed_bytes == exposed(server) == 0

    c, nfs, _, server = _withholder_cluster(lease_timeout_us=5_000.0)
    _withhold_eight(c, nfs)
    assert server.exposed_bytes == exposed(server) > 0
    c.sim.run(until=c.sim.now + 200_000.0)
    assert c.security_policy.lease_reclaims.events == 8
    assert server.exposed_bytes == exposed(server) == 0


# ---------------------------------------------------------------- AES payloads
def test_aes_payload_charges_crypt_on_both_ends():
    plain = Cluster(ClusterConfig(transport="rdma-rr"))
    aes = Cluster(ClusterConfig(transport="rdma-rr", aes_payload=True))
    r_plain = run_iozone(plain, IozoneParams(nthreads=1, ops_per_thread=8))
    r_aes = run_iozone(aes, IozoneParams(nthreads=1, ops_per_thread=8))
    assert plain.server_node.cpu.crypt_bytes.value == 0
    # Both ends pay per byte moved; the work shows up as throughput loss.
    assert aes.server_node.cpu.crypt_bytes.value > 0
    assert aes.client_nodes[0].cpu.crypt_bytes.value > 0
    assert r_aes.read_mb_s < r_plain.read_mb_s


# ---------------------------------------------------------------- SRQ audit
def test_exposure_audit_counts_shared_recv_pool_once():
    c = Cluster(ClusterConfig(transport="rdma-rr", srq=True, nclients=4))
    run_iozone(c, IozoneParams(nthreads=1, ops_per_thread=4))
    report = audit_server_exposure(c.server_node, c.server_transports)
    # One shared pool attributed once — not once per transport.
    assert report["recv_shared_pools"] == 1
    assert report["recv_registered_bytes"] == c.server_recv_buffer_bytes()
    assert report["recv_registered_bytes"] == c.srq.registered_bytes


def test_exposure_audit_sums_per_connection_rings():
    c = Cluster(ClusterConfig(transport="rdma-rr", nclients=4))
    run_iozone(c, IozoneParams(nthreads=1, ops_per_thread=4))
    report = audit_server_exposure(c.server_node, c.server_transports)
    assert report["recv_shared_pools"] == 0
    assert report["recv_registered_bytes"] == c.server_recv_buffer_bytes()
    assert report["recv_registered_bytes"] > 0


# ---------------------------------------------------------------- quarantine
def test_policy_holds_only_live_transports_across_redials():
    """Five QP-kill redials of a hardened mount: the policy reads its
    stack's live transports, so the five superseded server transports
    are freed, and exposure and eviction act on the one live transport."""
    kills = 5
    c = Cluster(ClusterConfig(
        transport="rdma-rr", lease_timeout_us=5_000.0, quarantine=True,
        fault_plan=FaultPlan(seed=1, qp_kills=tuple(
            QpKill(at_us=20_000.0 * (i + 1)) for i in range(kills))),
    ))
    stack = c.server_stacks[0]
    made = [weakref.ref(stack.server_transports[0])]
    open_qp = stack.open_qp

    def tracked(host):
        dialed = open_qp(host)
        made.append(weakref.ref(stack.server_transports[-1]))
        return dialed

    stack.open_qp = tracked
    nfs = c.mounts[0].nfs

    def workload():
        for i in range(400):
            fh, _ = yield from nfs.create(nfs.root, f"f{i}")
            yield from nfs.write(fh, 0, bytes(16 * 1024))

    c.run(workload())
    assert c.mounts[0].transport.reconnects.events == kills
    gc.collect()
    alive = [ref() for ref in made if ref() is not None]
    assert len(made) == kills + 1
    assert alive == stack.server_transports == [made[-1]()]
    live = alive[0]
    policy = c.security_policy
    assert policy.exposure_bytes_by_client() == {"client0": 0}
    policy.quarantine("client0")
    c.sim.run(until=c.sim.now + 1_000.0)
    assert live.failed
    assert policy.is_banned("client0")


@pytest.mark.parametrize("shape", ["one-server", "two-servers"])
def test_quarantine_drops_evicted_connections_from_the_stack(shape):
    """A quarantine evicts through ``ServerStack.drop``: the evicted end
    leaves ``server_transports``, so ``qp_count()`` equals the QPs the
    server HCAs still hold, and the other mount keeps its connection."""
    if shape == "one-server":
        c = Cluster(ClusterConfig(transport="rdma-rr", nclients=2,
                                  quarantine=True))
    else:
        c = Cluster(TopologyConfig(servers=2, transport="rdma-rr",
                                   nclients=4, quarantine=True))
    run_iozone(c, IozoneParams(nthreads=1, ops_per_thread=2))
    stack = next(s for s in c.server_stacks
                 if any(t.client_id == "client0"
                        for t in s.server_transports))
    before = c.qp_count()
    stack.security_policy.quarantine("client0")
    c.sim.run(until=c.sim.now + 1_000.0)
    assert c.qp_count() == before - 1
    assert c.qp_count() == sum(len(n.hca.qps) for n in c.server_nodes)
    assert "client0" not in [t.client_id for t in c.server_transports]


def test_ledger_keeps_what_a_redialed_connection_reported():
    """A connection whose leases were reclaimed, then dropped by the
    mount's redial, still counts in the stack's ledger: its reclaimed
    bytes and the exposure peak it reached outlive it."""
    c, nfs, withholder, server = _withholder_cluster(lease_timeout_us=5_000.0)
    _withhold_eight(c, nfs)
    c.sim.run(until=c.sim.now + 200_000.0)
    stack = c.server_stacks[0]
    withholder.qp.kill("test")

    def getattr_root():
        yield from nfs.getattr(nfs.root)

    c.run(getattr_root())
    assert withholder.reconnects.events == 1
    assert server not in stack.server_transports
    policy = c.security_policy
    assert policy.lease_reclaims.events == 8
    assert policy.lease_reclaims.value == 8 * RECORD
    # Six windows were pinned at once before the first lease ran out.
    assert policy.exposed_bytes_peak == 6 * RECORD
    assert policy.scores == {"client0": 8}


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_quarantine_evicts_flooder_not_victims(seed):
    """Property over adversary seeds: a flooding mount always ends up
    quarantined while the legitimate mounts keep full service."""
    c = Cluster(ClusterConfig(transport="rdma-rr", quarantine=True))
    result = run_campaign(c, CampaignParams(
        duration_us=15_000.0, adversaries=("flood",), seed=seed))
    assert result.quarantined >= 1
    assert c.security_policy.is_banned("malfl")
    # Victims were never evicted and kept reading throughout.
    for mount in c.mounts:
        assert not getattr(mount.transport, "failed", False)
        assert not c.security_policy.is_banned(mount.node.name)
    assert result.legit_ops > 0


# ---------------------------------------------------------------- campaign acceptance
def test_campaign_rr_acceptance():
    """The fig12 acceptance story at campaign level: unmitigated RR
    pinning grows unbounded; leases+quota bound it below the cap while
    legitimate throughput stays within 10% of the attack-free run."""
    # Full-figure duration: long enough that the fixed-size attacks (and
    # the pre-quarantine damage window) are small next to the measured
    # steady state — the regime the within-10% criterion is about.
    duration = 120_000.0
    quota = 4 * RECORD

    baseline = run_campaign(
        Cluster(ClusterConfig(transport="rdma-rr")),
        CampaignParams(duration_us=duration, adversaries=()))
    unmitigated = run_campaign(
        Cluster(ClusterConfig(transport="rdma-rr")),
        CampaignParams(duration_us=duration))
    hardened = run_campaign(
        Cluster(ClusterConfig(transport="rdma-rr", lease_timeout_us=5_000.0,
                              exposure_quota_bytes=quota, quarantine=True)),
        CampaignParams(duration_us=duration))

    # Unmitigated: the withholder's pins survive the whole campaign.
    assert unmitigated.pinned_final_bytes >= 4 * RECORD
    # Hardened: peak exposure bounded by quota (+ the one in-flight
    # window admission control always lets through); at the end nothing
    # is pinned beyond at most one window whose DONE is still in flight.
    assert hardened.pinned_peak_bytes <= quota + RECORD
    assert hardened.pinned_final_bytes <= RECORD
    assert hardened.lease_reclaimed_bytes + hardened.quota_evicted_bytes > 0
    # Victim throughput: within 10% of attack-free.
    assert hardened.legit_read_mb_s >= 0.9 * baseline.legit_read_mb_s


def test_campaign_rw_immune():
    """Against Read-Write the same campaign has nothing to attack:
    no pins, no exposed stags to hit, no replayable windows."""
    result = run_campaign(
        Cluster(ClusterConfig(transport="rdma-rw")),
        CampaignParams(duration_us=15_000.0))
    assert result.pinned_final_bytes == 0
    assert result.pinned_peak_bytes == 0
    assert result.guess_hits == 0
    assert result.replay_hits == 0
    assert result.legit_ops > 0


def test_campaign_on_all_physical_read_read():
    """Adversaries dial through the server stack like every mount, so
    they get the cluster's node options (an all-physical cluster's
    nodes honour the global stag), and the drain drops every malicious
    server end, quarantined ones included."""
    c = Cluster(ClusterConfig(transport="rdma-rr", strategy="all-physical",
                              lease_timeout_us=5_000.0, quarantine=True))
    result = run_campaign(c, CampaignParams(duration_us=15_000.0))
    assert result.legit_ops > 0
    assert result.quarantined >= 1
    stack = c.server_stacks[0]
    assert [t.client_id for t in stack.server_transports] == ["client0"]
    assert len(c.server_node.hca.qps) == len(stack.server_transports)



@pytest.mark.parametrize("transport", ["rdma-rr", "rdma-rw"])
def test_campaign_drain_leaves_no_attacker_qp(transport):
    """The drain closes both ends of every malicious connection: the
    mounts' client transports and the adversaries' bare QPs are gone
    from their HCAs, and the leak report, which walks every HCA on the
    fabric, finds nothing on attacker hosts."""
    c = Cluster(ClusterConfig(transport=transport, nclients=2))
    run_campaign(c, CampaignParams(duration_us=15_000.0))
    c.sim.run(until=c.sim.now + 1_000_000.0)
    attackers = {name: len(node.hca.qps)
                 for name, node in c.fabric.nodes.items()
                 if name.startswith("mal")}
    assert attackers == {"malwh": 0, "malrp": 0, "malsg": 0, "malfl": 0}
    assert Sanitizer(c.sim).leak_report(c) == []


def test_campaign_drain_leaves_no_attacker_mr():
    """The drain empties every attacker HCA's TPT: the Read-Read mounts'
    final closes deregister their bounce buffers (kept across redials),
    and the guesser, flooder and replayer deregister their own scratch
    buffers."""
    c = Cluster(ClusterConfig(transport="rdma-rr", nclients=2))
    run_campaign(c, CampaignParams(duration_us=15_000.0))
    c.sim.run(until=c.sim.now + 1_000_000.0)
    attackers = {name: node.hca.tpt.live_entries
                 for name, node in c.fabric.nodes.items()
                 if name.startswith("mal")}
    assert attackers == {"malwh": 0, "malrp": 0, "malsg": 0, "malfl": 0}

# ---------------------------------------------------------------- sanitized flood
def test_flood_under_sanitizer_yields_typed_naks_only():
    """Attack traffic is NAKed with typed causes; none of it escapes as
    a sanitizer violation (adversarial WRs are NAKs by design, not
    simulation bugs)."""
    c = Cluster(ClusterConfig(transport="rdma-rr", sanitizer=True))
    result = run_campaign(c, CampaignParams(
        duration_us=15_000.0, adversaries=("flood", "guess")))
    assert result.protection_naks > 0
    causes = {cause for cause, n in
              c.server_node.hca.tpt.faults_by_cause.items() if n}
    assert causes and causes <= {"stag", "access", "bounds"}
    assert "stag" in causes
    assert c.sim.sanitizer.violations == []


def test_hardening_knobs_validated():
    with pytest.raises(ValueError):
        ClusterConfig(transport="tcp-ipoib", lease_timeout_us=5_000.0)
    with pytest.raises(ValueError):
        ClusterConfig(transport="rdma-rr", lease_timeout_us=0.0)
    with pytest.raises(ValueError):
        ClusterConfig(transport="rdma-rr", exposure_quota_bytes=-1)
    with pytest.raises(ValueError):
        CampaignParams(adversaries=("withhold", "zerg"))


def test_mitigations_off_by_default():
    """Hardening knobs default off: the stack keeps its ledger, but
    with escalation off and no lease timers or quota checks, and an
    honest run leaves it empty — the inertness the golden figures pin."""
    c = Cluster(ClusterConfig(transport="rdma-rr"))
    policy = c.security_policy
    assert not policy.quarantine_enabled
    assert c.rpcrdma.lease_timeout_us is None
    assert c.rpcrdma.exposure_quota_bytes is None
    assert not c.rpcrdma.aes_payload
    run_iozone(c, IozoneParams(nthreads=1, ops_per_thread=4))
    assert c.server_transports[0].dones_received.events > 0
    assert policy.scores == {}
    assert [policy.naks.events, policy.malformed_wrs.events,
            policy.bad_calls.events, policy.lease_reclaims.events,
            policy.quota_evictions.events, policy.redials_refused.events,
            ] == [0] * 6
    assert policy.warned == policy.throttled == policy.quarantined == set()
