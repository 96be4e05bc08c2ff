"""QP multiplexing, sharded serving, striping: the fig13 substrate.

Covers the DESIGN.md §15 invariants: the version-2 lane framing is
inert when off, shared-QP pools stay O(sqrt(N)), lanes keep FIFO order
under adversarial event perturbation, one redial heals every lane on a
killed shared QP without leaking SRQ slots, striped reads/writes
round-trip bytes identically to a single server, and the audit/stats
surfaces aggregate across server nodes.
"""

import math

import pytest

from repro.core.header import (
    RPC_RDMA_VERSION,
    RPC_RDMA_VERSION_MUX,
    MessageType,
    RpcRdmaHeader,
)
from repro.errors import TransportError
from repro.experiments.cluster import Cluster, ClusterConfig
from repro.experiments.topology import TopologyConfig
from repro.faults import FaultPlan, QpKill, ServerCrash
from repro.ib.mux import default_mux_qps
from repro.security import audit_server_exposure
from repro.sim import AllOf
from repro.workloads import IozoneParams, run_iozone


def topo(**kw):
    base = dict(transport="rdma-rw", strategy="dynamic", nclients=8,
                client_hosts=4, mux=True, srq=True, credits=8)
    base.update(kw)
    return TopologyConfig(**base)


def run_all_mounts(mc, payload_for=lambda i: bytes([i % 251 + 1]) * 65536):
    """Create/write/read/verify one file per mount, all concurrently."""
    results = []

    def wl(mount, i):
        payload = payload_for(i)
        nfs = mount.nfs
        fh, _ = yield from nfs.create(nfs.root, f"f{i}")
        n, _ = yield from nfs.write(fh, 0, payload)
        data, eof, _ = yield from nfs.read(fh, 0, len(payload))
        results.append((i, n == len(payload) and data == payload and eof))

    def main():
        procs = [mc.sim.process(wl(m, i)) for i, m in enumerate(mc.mounts)]
        yield AllOf(mc.sim, procs)

    mc.run(main())
    assert len(results) == len(mc.mounts)
    assert all(ok for _, ok in results)


# ---------------------------------------------------------- wire framing
def test_header_v2_roundtrip_carries_lane_fields():
    h = RpcRdmaHeader(xid=7, credits=3, mtype=MessageType.RDMA_MSG,
                      lane=42, lane_seq=9, lane_credits=2)
    wire = h.encode()
    back = RpcRdmaHeader.decode(wire)
    assert (back.lane, back.lane_seq, back.lane_credits) == (42, 9, 2)
    assert int.from_bytes(wire[4:8], "big") == RPC_RDMA_VERSION_MUX


def test_header_without_lane_stays_version1_byte_identical():
    h = RpcRdmaHeader(xid=7, credits=3, mtype=MessageType.RDMA_MSG)
    wire = h.encode()
    assert int.from_bytes(wire[4:8], "big") == RPC_RDMA_VERSION
    back = RpcRdmaHeader.decode(wire)
    assert back.lane is None and back.lane_seq == 0 and back.lane_credits == 0
    # A laneless header must be exactly the pre-mux encoding length:
    # the version-2 words only exist when a lane is set.
    assert len(wire) == len(h.encode())
    assert len(RpcRdmaHeader(xid=7, credits=3, mtype=MessageType.RDMA_MSG,
                             lane=0).encode()) == len(wire) + 12


# ---------------------------------------------------------- pool sizing
def test_default_mux_qps_is_ceil_sqrt():
    for n in (1, 2, 3, 4, 10, 99, 100, 1000):
        assert default_mux_qps(n) == math.ceil(math.sqrt(n))


def test_mux_config_validates():
    """A pool planned for no lanes still holds one channel."""
    assert default_mux_qps(0) == 1


def test_qp_count_sqrt_bound_vs_linear():
    """Muxed deployments stay under 2*sqrt(N)+hosts; per-conn is N."""
    for n in (10, 100, 1000):
        mc = Cluster(topo(nclients=n))
        assert mc.qp_count() <= 2 * math.isqrt(n) + 4
        per_conn = Cluster(topo(nclients=n, mux=False, srq=False))
        assert per_conn.qp_count() == n


def test_srq_sizing_sublinear_and_safe():
    """Mux-mode pools drop the per-mount linear floor but still cover
    every channel's full credit grant (no overcommit)."""
    small = Cluster(topo(nclients=10))
    big = Cluster(topo(nclients=1000))
    assert big.server_stacks[0].srq.entries < 1000  # sublinear
    for mc in (small, big):
        stack = mc.server_stacks[0]
        grantable = stack.rpcrdma.credits * len(stack.server_transports)
        assert grantable <= stack.srq.entries


# ---------------------------------------------------------- lane FIFO
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lane_fifo_under_perturbation(seed):
    """The server-side ledger sees every lane in order even when the
    event queue's tie-breaking is adversarially perturbed."""
    mc = Cluster(topo(nclients=8, sanitizer=True, perturb_seed=seed))
    run_all_mounts(mc)
    ledgers = [t.lanes for t in mc.server_transports
               if getattr(t, "lanes", None) is not None]
    assert ledgers, "muxed traffic never reached the lane ledger"
    assert sum(led.calls.events for led in ledgers) > 0
    assert sum(led.order_violations.events for led in ledgers) == 0
    assert mc.sim.sanitizer.violations == []


def test_lane_fifo_without_mux_never_allocates_ledger():
    """Dedicated connections never pay for lane accounting."""
    mc = Cluster(topo(nclients=4, mux=False, srq=False))
    run_all_mounts(mc)
    assert all(getattr(t, "lanes", None) is None
               for t in mc.server_transports)


# ---------------------------------------------------------- kill + redial
def test_killed_shared_qp_heals_all_lanes_without_srq_leak():
    """One redial revives every lane on the shared channel, and the
    dead QP's parked SRQ slots all come back to the pool."""
    mc = Cluster(topo(nclients=6, client_hosts=1))
    mux = next(iter(mc.muxes.values()))
    assert mux.qp_count == 3  # ceil(sqrt(6)) shared channels
    victim = mux.channels[0]
    lanes_on_victim = sum(1 for lane in mux.lanes.values()
                          if lane.channel is victim)

    def killer():
        yield mc.sim.timeout(60.0)  # mid-flight
        qp = victim.qp
        qp.enter_error("injected fault")
        qp.peer.enter_error("injected fault (remote)")

    mc.sim.process(killer())
    run_all_mounts(mc)
    assert lanes_on_victim >= 2
    assert victim.reconnects.events == 1
    # One redial served every lane: the other channels never redialed.
    assert sum(ch.reconnects.events for ch in mux.channels) == 1
    mc.sim.run(until=mc.sim.now + 1_000_000.0)
    for stack in mc.server_stacks:
        assert stack.srq.available == stack.srq.entries
        assert len(stack.server_transports) == mux.qp_count


# ---------------------------------------------------------- striping
def test_striped_roundtrip_matches_single_server():
    """Byte-for-byte: striped reads return exactly what a single
    server returns for the same op sequence."""
    payload = bytes(i % 256 for i in range(300_000))

    def script(nfs):
        fh, _ = yield from nfs.create(nfs.root, "data")
        yield from nfs.write(fh, 0, payload)
        # Overwrite a misaligned span crossing stripe boundaries.
        yield from nfs.write(fh, 70_000, b"\xAA" * 50_000)
        data, eof, attrs = yield from nfs.read(fh, 0, len(payload))
        return data, eof, attrs.size

    single = Cluster(ClusterConfig(transport="rdma-rw", strategy="dynamic"))
    want = single.run(script(single.mounts[0].nfs))

    mc = Cluster(TopologyConfig(
        transport="rdma-rw", strategy="dynamic", nclients=1,
        data_servers=3, mux=True, srq=True))
    got = mc.run(script(mc.mounts[0].nfs))
    assert got == want
    # The data really was striped: every data server moved bytes.
    for stack in mc.data_stacks:
        assert stack.node.hca.reads.value > 0


def test_striped_remove_cleans_components():
    mc = Cluster(TopologyConfig(
        transport="rdma-rw", strategy="dynamic", nclients=1,
        data_servers=2, mux=True, srq=True))
    nfs = mc.mounts[0].nfs

    def script():
        fh, _ = yield from nfs.create(nfs.root, "victim")
        yield from nfs.write(fh, 0, b"x" * 200_000)
        yield from nfs.remove(nfs.root, "victim")
        entries = []
        for ds in nfs.data:
            entries.extend(e.name for e in (yield from ds.readdir(ds.root)))
        return entries

    assert mc.run(script()) == []


def test_striped_large_ops_reject_a_zero_limit():
    mc = Cluster(TopologyConfig(
        transport="rdma-rw", strategy="dynamic", nclients=1,
        data_servers=2))
    nfs = mc.mounts[0].nfs

    def script():
        fh, _ = yield from nfs.create(nfs.root, "f")
        for op in (nfs.write_large(fh, 0, b"a" * 10, limit=0),
                   nfs.read_large(fh, 0, 10, limit=0)):
            with pytest.raises(ValueError):
                yield from op

    mc.run(script())


# ---------------------------------------------------------- redirector
def test_redirector_balances_within_one():
    mc = Cluster(topo(nclients=10, servers=4))
    counts = mc.redirector.counts()
    assert sum(counts) == 10
    assert max(counts) - min(counts) <= 1
    # Every mount's nfs really points at its assigned shard.
    for m, (mid, idx) in enumerate(mc.redirector.assignments):
        assert mid == m
        stack = mc.server_stacks[idx]
        assert mc.mounts[m].nfs.root == stack.nfs_server.root_handle()


# ------------------------------------------------- multi-node aggregation
def test_audit_aggregates_across_server_nodes():
    """Regression: the single-node audit silently missed K-1 shards."""
    mc = Cluster(topo(nclients=8, servers=2, transport="rdma-rr"))
    run_all_mounts(mc)
    mc.sim.run(until=mc.sim.now + 1_000_000.0)
    per_node = [
        audit_server_exposure(stack.node, stack.server_transports)
        for stack in mc.server_stacks
    ]
    # Read-Read exposes server stags on every shard that served reads.
    assert all(r["stags_exposed_ever"] > 0 for r in per_node)
    combined = audit_server_exposure(mc.server_nodes, mc.server_transports)
    assert combined["server_nodes_audited"] == 2
    assert combined["stags_exposed_ever"] == sum(
        r["stags_exposed_ever"] for r in per_node)
    assert combined["recv_registered_bytes"] == sum(
        r["recv_registered_bytes"] for r in per_node)


def test_stats_aggregate_across_server_nodes():
    """Regression: nfsstat/health payloads must carry every shard."""
    mc = Cluster(topo(nclients=8, servers=2,
                           **{"telemetry": True}))
    run_all_mounts(mc)
    from repro.telemetry.nfsstat import render_stats, stats_dict

    payload = stats_dict(mc)
    served = {s["labels"].get("server"): s["value"]
              for s in payload["samples"] if s["name"] == "rpc_server_calls"}
    assert served.get("server0", 0) > 0 and served.get("server1", 0) > 0
    shard_counts = [s["value"] for s in payload["samples"]
                    if s["name"] == "shard_mounts"]
    assert sorted(shard_counts) == [4.0, 4.0]
    text = render_stats(mc)
    assert "server=server1" in text and "shared QPs" in text


# ------------------------------------------------- faults and quarantine
@pytest.mark.parametrize("mux", [False, True])
def test_qp_kill_and_crash_on_sharded_topology(mux):
    """A QP kill and a server crash on two shards: iozone completes,
    every connection heals, and the sanitizer stays clean."""
    plan = FaultPlan(seed=3, qp_kills=(QpKill(at_us=2000.0, client_index=1),),
                     server_crashes=(ServerCrash(at_us=8500.0,
                                                 restart_us=20_000.0),))
    mc = Cluster(TopologyConfig(
        transport="rdma-rw", nclients=4, client_hosts=2, servers=2, mux=mux,
        srq=mux, sanitizer=True, fault_plan=plan))
    run_iozone(mc, IozoneParams(record_bytes=64 * 1024, file_bytes=1 << 20,
                                ops_per_thread=16))
    mc.sim.run(until=mc.sim.now + 1_000_000.0)
    summary = mc.faults.summary()
    assert summary["qp kills"] == 1 and summary["server crashes"] == 1
    assert sum(t.reconnects.events for t in mc.client_transports) >= 1
    assert sum(s.rpc_server.calls_failed.events for s in mc.all_stacks) == 0
    assert mc.sim.sanitizer.violations == []
    mc.sim.sanitizer.check_teardown(mc)


def test_quarantine_refuses_redial_on_own_shard():
    """Each shard runs its own misbehavior policy: a client banned by
    its shard is refused on redial, and the other shard is unaffected."""
    mc = Cluster(topo(nclients=4, servers=2, mux=False, srq=False,
                      quarantine=True))
    shard = mc.redirector.index_of(1)
    mount = mc.mounts[1]
    own, other = mc.server_stacks[shard], mc.server_stacks[1 - shard]
    assert own.security_policy is not other.security_policy
    nfs = mount.nfs

    def getattr_root():
        yield from nfs.getattr(nfs.root)

    mc.run(getattr_root())
    own.security_policy.quarantine(mount.node.name)
    with pytest.raises(TransportError, match="redial refused"):
        mc.run(getattr_root())
    assert own.security_policy.redials_refused.events == 1
    assert not other.security_policy.is_banned(mount.node.name)


def test_topology_validation():
    with pytest.raises(ValueError):
        TopologyConfig(servers=0)
    with pytest.raises(ValueError):
        TopologyConfig(transport="tcp-gige")  # multi-node needs RDMA
    with pytest.raises(ValueError):
        TopologyConfig(mux="yes")
    with pytest.raises(ValueError):
        TopologyConfig(mux={"qp_budget": 2})
    with pytest.raises(ValueError):
        TopologyConfig(cluster=ClusterConfig(), nclients=2)
    assert TopologyConfig(mux=False).mux is False
