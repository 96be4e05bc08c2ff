"""Builds complete simulated NFS deployments.

One builder assembles the full stack of DESIGN.md §2 — nodes, fabric or
TCP network, RPC transport (either RDMA design or TCP on IPoIB/GigE),
registration strategy, RPC dispatcher, NFS server, backend file system
— and hands back per-client NFS mounts.  Every test, example and
benchmark builds on this.

``Cluster(ClusterConfig)`` is the paper's testbed: one server, one
client host and one connection per mount.  ``Cluster(TopologyConfig)``
is the scale-out form behind fig13 (DESIGN.md §15): K server shards, M
pNFS-style data servers, H client hosts and optional QP multiplexing.
Both shapes run the same code: :class:`ServerStack` is the only place a
serving stack is wired or a connection to it made, and the cluster only
places mounts and attaches faults and telemetry.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from math import isqrt
from typing import TYPE_CHECKING, Generator, Optional

from repro.analysis.calibration import SOLARIS_SDR, TestbedProfile
from repro.core import (
    ClientRegistrationCache,
    DynamicRegistration,
    ReadReadClient,
    ReadReadServer,
    ReadWriteClient,
    ReadWriteServer,
    RegistrationCacheStrategy,
    SrqCreditPolicy,
)
from repro.core.strategies import AllPhysicalStrategy, FmrStrategy, RegistrationStrategy
from repro.errors import TransportError
from repro.faults import FaultInjector, FaultPlan
from repro.fs import BlockFs, Raid0, TmpFs
from repro.ib.fabric import Fabric, IBNode
from repro.ib.mux import QpMux, default_mux_qps
from repro.ib.srq import SharedReceivePool
from repro.nfs import NfsClient, NfsServer
from repro.nfs.redirector import MountRedirector
from repro.nfs.striping import StripedNfsClient
from repro.rpc import RpcServer, TcpRpcClient, TcpRpcServerTransport
from repro.rpc.drc import DuplicateRequestCache
from repro.rpc.svc import RpcServerCosts
from repro.sim import Simulator
from repro.tcpip import TcpConnection, TcpEndpoint

if TYPE_CHECKING:
    from repro.experiments.topology import TopologyConfig

__all__ = ["Cluster", "ClusterConfig", "Mount", "ServerStack",
           "default_srq_entries", "make_strategy"]


def default_srq_entries(lanes: int, connections: Optional[int] = None) -> int:
    """Auto-size a shared receive pool for ``lanes`` mounts.

    ``16·sqrt(lanes)`` grows sublinearly (the figure-11 contrast with
    the per-connection ``credits·n``), floored at 64 (two rings' worth,
    so small deployments lose nothing) and at ``connections`` (every
    connection can always hold at least one buffer).  ``connections``
    defaults to ``lanes``: one QP per mount.  Multiplexed mounts share
    fewer QPs, so the linear floor drops — the fig13 sublinear-memory
    claim.
    """
    if connections is None:
        connections = lanes
    return max(64, 16 * isqrt(lanes), connections)


TRANSPORTS = ("rdma-rw", "rdma-rr", "tcp-ipoib", "tcp-gige")
STRATEGIES = ("dynamic", "fmr", "cache", "client-cache", "all-physical")
BACKENDS = ("tmpfs", "raid")


@dataclass(frozen=True)
class ClusterConfig:
    """What to build."""

    profile: TestbedProfile = SOLARIS_SDR
    transport: str = "rdma-rw"
    strategy: str = "dynamic"
    backend: str = "tmpfs"
    nclients: int = 1
    seed: int = 2007
    #: raid backend: server page cache (the Fig 10 4 GB / 8 GB knob).
    cache_bytes: int = 4 << 30
    #: deterministic fault schedule to arm against this cluster (None =
    #: no injector constructed, zero overhead).
    fault_plan: Optional[FaultPlan] = None
    #: build with telemetry (span tracer + metrics registry) enabled.
    #: Off by default: when off, ``sim.telemetry`` stays ``None`` and
    #: every instrumentation site is a single attribute test.
    telemetry: bool = False
    #: serve every connection's receives from one shared registered
    #: pool (:mod:`repro.ib.srq`) instead of per-connection rings.
    #: Off by default — the paper figures use per-connection pools.
    srq: bool = False
    #: dispatcher worker threads (None = the profile's calibrated
    #: ``server_threads``, the paper-figure default).
    server_workers: Optional[int] = None
    #: dispatcher run-queue bound (None = unbounded, the historical
    #: behaviour; bounded queues exert credit backpressure).
    server_queue_depth: Optional[int] = None
    #: attach the runtime RDMA sanitizer (:mod:`repro.check.sanitizer`).
    #: Off by default: when off, ``sim.sanitizer`` stays ``None`` and
    #: every check site is a single attribute test.  The sanitizer only
    #: reads sim state, so results are bit-identical either way.
    sanitizer: bool = False
    #: run on a :class:`~repro.check.races.PerturbedSimulator` that
    #: breaks same-timestamp ties in seeded-random order (None = the
    #: plain deterministic engine).
    perturb_seed: Optional[int] = None
    #: hardened data plane (all default-off, and inert when off — see
    #: :class:`repro.core.config.RpcRdmaConfig`): exposure leases,
    #: per-client exposure quota, misbehavior quarantine, AES payloads.
    lease_timeout_us: Optional[float] = None
    exposure_quota_bytes: Optional[int] = None
    quarantine: bool = False
    aes_payload: bool = False

    def __post_init__(self):
        if self.transport not in TRANSPORTS:
            raise ValueError(f"transport must be one of {TRANSPORTS}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if self.nclients < 1:
            raise ValueError("need at least one client")
        if self.srq and not self.is_rdma:
            raise ValueError("srq requires an RDMA transport")
        if self.server_workers is not None and self.server_workers < 1:
            raise ValueError("server_workers must be >= 1 (or None)")
        if self.server_queue_depth is not None and self.server_queue_depth < 1:
            raise ValueError("server_queue_depth must be >= 1 (or None)")
        if (self.lease_timeout_us is not None or
                self.exposure_quota_bytes is not None or
                self.quarantine or self.aes_payload) and not self.is_rdma:
            raise ValueError("hardening knobs require an RDMA transport")
        if self.lease_timeout_us is not None and self.lease_timeout_us <= 0:
            raise ValueError("lease_timeout_us must be positive (or None)")
        if (self.exposure_quota_bytes is not None
                and self.exposure_quota_bytes < 1):
            raise ValueError("exposure_quota_bytes must be >= 1 (or None)")

    @property
    def is_rdma(self) -> bool:
        return self.transport.startswith("rdma")

    # -- builders (the repro.api entry points) -----------------------------
    @classmethod
    def rdma_rw(cls, **kwargs) -> "ClusterConfig":
        """The paper's proposed Read-Write design (server RDMA Writes)."""
        return cls(transport="rdma-rw", **kwargs)

    @classmethod
    def rdma_rr(cls, **kwargs) -> "ClusterConfig":
        """Callaghan's original Read-Read design (client RDMA Reads)."""
        return cls(transport="rdma-rr", **kwargs)

    @classmethod
    def tcp(cls, nic: str = "ipoib", **kwargs) -> "ClusterConfig":
        """RPC over TCP on ``nic``: ``"ipoib"`` or ``"gige"``."""
        if nic not in ("ipoib", "gige"):
            raise ValueError('nic must be "ipoib" or "gige"')
        return cls(transport=f"tcp-{nic}", **kwargs)


@dataclass
class Mount:
    """One client's view: node + transport + NFS client."""

    node: IBNode
    transport: object
    nfs: NfsClient


def make_strategy(config: ClusterConfig, node: IBNode,
                  server: bool) -> RegistrationStrategy:
    """The registration strategy ``config.strategy`` puts on ``node``."""
    kind = config.strategy
    if kind == "dynamic":
        return DynamicRegistration(node)
    if kind == "fmr":
        return FmrStrategy(node)
    if kind in ("cache", "client-cache") and server:
        return RegistrationCacheStrategy(node)
    if kind == "cache":
        # §4.3: the cache is a *server* design; clients register
        # dynamically (the client-side variant is an extension).
        return DynamicRegistration(node)
    if kind == "client-cache":
        # Extension (TR): registration caches on BOTH sides.
        return ClientRegistrationCache(node)
    if kind == "all-physical":
        return AllPhysicalStrategy(node)
    raise ValueError(kind)


@dataclass(frozen=True)
class Naming:
    """The names one build path gives the nodes and transports it wires.

    Node names seed each node's fabric RNG stream and client transport
    names seed reply-timer jitter, so each path keeps its own scheme: a
    ``ClusterConfig`` build uses ``server``, ``client{i}``, the
    transports' default names and ``client{i}.nfs``; a ``TopologyConfig``
    build uses ``server{i}``, ``ds{j}``, ``client{h}.m{m}.server{s}``
    and ``client{h}.m{m}.nfs``.
    """

    single: bool

    def server(self, index: int) -> str:
        return "server" if self.single else f"server{index}"

    def service(self, stack: str) -> str:
        """The stack's RPC dispatcher (its DRC is ``<service>.drc``)."""
        return "rpcsvc" if self.single else f"{stack}.rpcsvc"

    def mount(self, host: str, m: int) -> str:
        """Prefix of every name mount ``m`` on ``host`` owns."""
        return host if self.single else f"{host}.m{m}"

    def transport(self, mount: str, stack: str) -> str:
        """A dedicated client transport ("" keeps the default name)."""
        return "" if self.single else f"{mount}.{stack}"


class ServerStack:
    """One server node's complete serving stack.

    The only place the backend file system, DRC, security ledger, RPC
    dispatcher, NFS program, server registration strategy, shared
    receive pool, credit clamp and hardening overrides are wired.  Flow
    control waits for :meth:`size_flow_control`, because it is sized
    from the cluster's full lane plan.  Every connection to the node is
    dialed through :meth:`connect` (a wired client transport) or
    :meth:`open_qp` (a bare client QP), a dead RDMA connection is
    replaced through :meth:`redial`, and :meth:`drop` takes a server end
    off the stack.
    """

    def __init__(self, cluster: "Cluster", name: str):
        from repro.security.policy import SecurityPolicy

        config = cluster.config
        profile = config.profile
        self.sim = cluster.sim
        self.fabric = cluster.fabric
        self.config = config
        self.name = name
        self.node = cluster._add_node(name, profile.server_cpu,
                                      profile.server_hca)
        if config.backend == "tmpfs":
            self.fs = TmpFs(self.sim, self.node.cpu)
            self.raid = None
        else:
            self.raid = Raid0(self.sim)
            self.fs = BlockFs(self.sim, self.node.cpu, self.raid,
                              cache_bytes=config.cache_bytes)
        # A call resent after an RDMA redial must not re-execute
        # non-idempotent procedures.
        service = cluster.names.service(name)
        self.drc = DuplicateRequestCache(name=f"{service}.drc")
        # The stack's one security ledger: every server end, the
        # dispatcher and the HCA's NAKs report into it; escalation
        # (throttle, quarantine) runs only with quarantine configured.
        self.security_policy = SecurityPolicy(
            self, quarantine_enabled=config.quarantine)
        self.node.hca.protection_nak_hook = self.security_policy.record_nak
        self.rpc_server = RpcServer(
            self.sim, self.node.cpu, self.security_policy,
            nthreads=config.server_workers or profile.server_threads,
            costs=RpcServerCosts(), drc=self.drc, name=service,
            max_queue=config.server_queue_depth,
        )
        self.nfs_server = NfsServer(self.rpc_server, self.fs)
        # One strategy shared by every connection (the registration
        # cache is a server-global structure; dynamic/FMR are stateless
        # enough that sharing matches a real kernel transport).
        self.strategy = make_strategy(config, self.node, server=True)
        self.server_transports: list = []
        self.srq: Optional[SharedReceivePool] = None
        self.credit_policy = None
        self.rpcrdma = profile.rpcrdma
        #: TCP NIC profile (None on RDMA), and the one physical server
        #: port every accepted endpoint shares so aggregate bandwidth is
        #: capped correctly.
        self.nic = (None if config.is_rdma else
                    profile.ipoib if config.transport == "tcp-ipoib"
                    else profile.gige)
        self._tcp_port = None

    def size_flow_control(self, lanes: int, connections: int,
                          credits: Optional[int] = None) -> None:
        """Shared pool, credit clamp and hardening overrides.

        ``lanes`` mounts reach this stack over ``connections`` QPs
        (equal unless mounts are multiplexed); ``credits`` overrides the
        profile's per-connection grant.
        """
        config = self.config
        base_credits = credits or self.rpcrdma.credits
        overrides: dict = {"credits": base_credits}
        if config.srq:
            # One registered pool per server HCA, sized sublinearly in
            # client count, with credit grants clamped so their sum never
            # outruns the pool (the RNR-avoidance invariant).
            entries = default_srq_entries(lanes, connections)
            # Read-Read DONE messages consume receives beyond the credit
            # grant; budget two pool buffers per outstanding call.
            demand = 2 if config.transport == "rdma-rr" else 1
            per_conn = max(1, min(base_credits,
                                  entries // max(1, demand * connections)))
            self.srq = SharedReceivePool(
                self.node, entries, self.rpcrdma.inline_threshold,
                name=f"{self.name}.srq",
            )
            self.sim.process(self.srq.setup(), name=f"{self.name}.srq.setup")
            overrides["credits"] = per_conn
            self.credit_policy = SrqCreditPolicy(self.srq, max_grant=per_conn)
        # Hardened data plane: fold the mitigation knobs into the
        # transport config.  At defaults nothing below runs: no lease
        # timer, quota check or crypt on the data path.
        if config.lease_timeout_us is not None:
            overrides["lease_timeout_us"] = config.lease_timeout_us
        if config.exposure_quota_bytes is not None:
            overrides["exposure_quota_bytes"] = config.exposure_quota_bytes
        if config.aes_payload:
            overrides["aes_payload"] = True
        self.rpcrdma = replace(self.rpcrdma, **overrides)

    # -- connections --------------------------------------------------------
    def connect(self, host: IBNode, name: str = "", client_cls=None):
        """Dial ``host`` to this stack; returns the wired client transport.

        RDMA: the client end is built before the server end (both start
        processes at t=0), waits for the server end's ``ready`` (the CM
        handshake) and heals a dead QP through :meth:`redial`;
        ``client_cls`` replaces the design's client (a protocol-speaking
        adversary).  TCP: one connection on the stack's shared port.
        """
        config = self.config
        if config.is_rdma:
            qp_c, qp_s = self.fabric.connect(host, self.node)
            if client_cls is None:
                client_cls = (ReadWriteClient if config.transport == "rdma-rw"
                              else ReadReadClient)
            client = client_cls(host, qp_c, self.rpcrdma,
                                make_strategy(config, host, server=False),
                                name=name)
            client.peer_ready = self._serve(qp_s).ready
            client.reconnector = self.redial
        else:
            client_ep = TcpEndpoint(self.sim, host.cpu, host.irq, self.nic,
                                    name=f"{host.name}.tcp")
            ep_name = f"{self.name}.tcp.{host.name}"
            if self._tcp_port is None:
                self._tcp_port = self.nic.port(self.sim,
                                               f"{ep_name}.{self.nic.name}")
            server_ep = TcpEndpoint(self.sim, self.node.cpu, self.node.irq,
                                    self.nic, name=ep_name, port=self._tcp_port)
            conn = TcpConnection(client_ep, server_ep)
            client = TcpRpcClient(client_ep, conn)
            server = TcpRpcServerTransport(server_ep, conn)
            server.attach(self.rpc_server)
            self.server_transports.append(server)
        return client

    def open_qp(self, host: IBNode):
        """Admit ``host``, then dial a bare QP to this stack.

        Returns the client QP and the new server end's ``ready`` event:
        a sender that must land its messages waits for it.
        """
        self.admit(host.name)
        qp_c, qp_s = self.fabric.connect(host, self.node)
        return qp_c, self._serve(qp_s).ready

    def _serve(self, qp_s):
        """Build and attach the RDMA server end of ``qp_s``."""
        cls = (ReadWriteServer if self.config.transport == "rdma-rw"
               else ReadReadServer)
        server = cls(self.node, qp_s, self.rpcrdma, self.strategy,
                     credit_policy=self.credit_policy, srq=self.srq)
        server.attach(self.rpc_server)
        self.server_transports.append(server)
        return server

    def drop(self, server) -> Generator:
        """Process: take ``server`` off this stack and disconnect it."""
        self.server_transports.remove(server)
        yield from server.disconnect()

    def admit(self, client: str) -> None:
        """Refuse a (re)dial from a quarantined client.

        The ban outlives the evicted connection: a quarantined mount
        never gets a fresh one.
        """
        policy = self.security_policy
        if policy.is_banned(client):
            policy.redials_refused.add()
            raise TransportError(f"{client}: redial refused (quarantined)")

    def redial(self, client) -> Generator:
        """Transport recovery policy (installed as ``client.reconnector``).

        Admit the client first, so a refused redial leaves the old
        server end in place.  Then drop the old server end, found by
        connection identity (the client QP's peer) so a mount redialed
        twice never targets a stale entry, which reclaims anything the
        client pinned (§4.1's operational defense), and hand back a
        fresh QP and the new server end's ready event for the CM
        handshake; the client closes its own end of the old connection.
        """
        self.admit(client.node.name)
        server = next((s for s in self.server_transports
                       if s.qp is client.qp.peer), None)
        if server is not None:
            yield from self.drop(server)
        return self.open_qp(client.node)

    def recv_buffer_bytes(self) -> int:
        """Registered receive-buffer memory on this node.

        The figure-11 scaling metric: the shared pool's one-time
        registration vs the per-connection rings' ``credits ×
        inline_threshold`` per mount.  TCP transports pre-register
        nothing (socket buffers are not HCA-registered).
        """
        if self.srq is not None:
            return self.srq.registered_bytes
        pools = [getattr(t, "recv_pool", None) for t in self.server_transports]
        return sum(p.count * p.size for p in pools if p is not None)


def _first_stack(attr: str) -> property:
    """A one-server convenience: delegate to ``server_stacks[0]``."""
    return property(lambda self: getattr(self.server_stacks[0], attr),
                    doc=f"``server_stacks[0].{attr}``")


class Cluster:
    """A fully wired simulated NFS deployment (see the module docstring)."""

    def __init__(self, config):
        # A ClusterConfig is the paper's testbed: one server, and a host
        # and a QP per mount.
        topology = None if isinstance(config, ClusterConfig) else config
        self.topology: Optional[TopologyConfig] = topology
        self.config = config = config if topology is None else topology.cluster
        servers, data_servers, client_hosts, credits, mux = (
            (1, 0, None, None, False) if topology is None else
            (topology.servers, topology.data_servers, topology.client_hosts,
             topology.credits, topology.mux))
        hosts = min(client_hosts or config.nclients, config.nclients)
        self.names = Naming(single=topology is None)
        if config.perturb_seed is not None:
            from repro.check.races import PerturbedSimulator

            self.sim = PerturbedSimulator(config.perturb_seed)
        else:
            self.sim = Simulator()
        if config.sanitizer:
            # Attach before any wiring so setup-time registrations and
            # SRQ posts are tracked from the first event.
            from repro.check.sanitizer import Sanitizer

            self.sim.sanitizer = Sanitizer(self.sim)
        self.fabric = Fabric(self.sim, seed=config.seed)

        self.server_stacks = [ServerStack(self, self.names.server(i))
                              for i in range(servers)]
        self.data_stacks = [ServerStack(self, f"ds{j}")
                            for j in range(data_servers)]
        self.client_nodes = [self.add_client_node(f"client{h}")
                             for h in range(hosts)]

        # Placement first — flow-control sizing and mux pool sizing both
        # need the full lane plan before any connection is dialed.
        self.redirector = MountRedirector(self.server_stacks)
        placements = [(m % hosts, self.redirector.place(m)[0])
                      for m in range(config.nclients)]
        lanes = Counter(placements)
        host_mounts = Counter(h for h, _ in placements)

        def channels(n: int) -> int:
            return default_mux_qps(n) if mux else n

        for s, stack in enumerate(self.server_stacks):
            stack.size_flow_control(
                sum(n for (_, si), n in lanes.items() if si == s),
                sum(channels(n) for (_, si), n in lanes.items() if si == s),
                credits)
        for stack in self.data_stacks:
            # Every mount stripes to every data server: lane count per
            # host is simply that host's mount count.
            stack.size_flow_control(
                config.nclients,
                sum(channels(n) for n in host_mounts.values()), credits)

        #: every client transport the builder dialed (dedicated mounts,
        #: mux channels, data-server legs), in dial order.
        self.client_transports: list = []
        # Channel pools per (host, target stack), dialed eagerly so the
        # lane plan above matches what actually exists.
        self.muxes: dict[tuple[int, str], QpMux] = {}
        if mux:
            for h, host in enumerate(self.client_nodes):
                for s, stack in enumerate(self.server_stacks):
                    if lanes[(h, s)]:
                        self._add_mux(h, host, stack, lanes[(h, s)])
                for stack in self.data_stacks:
                    if host_mounts[h]:
                        self._add_mux(h, host, stack, host_mounts[h])
        self.mounts = [self._build_mount(m, h, s)
                       for m, (h, s) in enumerate(placements)]

        # Fault injection (off unless a plan is supplied): hooks install
        # only when armed, so fault-free runs schedule no extra events.
        self.faults: Optional[FaultInjector] = None
        if config.fault_plan is not None:
            self.faults = FaultInjector(self, config.fault_plan)
            self.faults.arm()

        # Telemetry last: every component above must exist before the
        # registry adapters walk the cluster.  Spans only read sim.now,
        # so enabling this cannot perturb simulated timing.
        self.telemetry = None
        if config.telemetry:
            self.enable_telemetry()

    def enable_telemetry(self, tracing: bool = True):
        """Attach a :class:`repro.telemetry.Telemetry` to this cluster.

        Must be called before the simulation runs (the standard path is
        ``ClusterConfig(telemetry=True)``).  Returns the Telemetry.
        """
        from repro.telemetry import Telemetry

        if self.telemetry is None:
            self.telemetry = Telemetry(self.sim, tracing=tracing)
            self.sim.telemetry = self.telemetry
            self.telemetry.attach_cluster(self)
        elif tracing:
            self.telemetry.enable_tracing()
        return self.telemetry

    # -- wiring -----------------------------------------------------------
    def _add_node(self, name: str, cpu_config, hca_config) -> IBNode:
        profile = self.config.profile
        return self.fabric.add_node(
            name, cpu_config=cpu_config, hca_config=hca_config,
            link_config=profile.link,
            interrupt_cost_us=profile.interrupt_cost_us,
            allow_physical=self.config.strategy == "all-physical",
        )

    def add_client_node(self, name: str) -> IBNode:
        """A client host on the fabric (mount hosts and adversaries)."""
        profile = self.config.profile
        return self._add_node(name, profile.client_cpu, profile.client_hca)

    def _connect(self, host: IBNode, stack: ServerStack, name: str):
        """A mount's or mux channel's :meth:`ServerStack.connect`, kept in
        :attr:`client_transports`."""
        client = stack.connect(host, name)
        self.client_transports.append(client)
        return client

    def _add_mux(self, h: int, host: IBNode, stack: ServerStack,
                 lanes: int) -> None:
        name = f"{host.name}.{stack.name}.mux"
        self.muxes[(h, stack.name)] = QpMux(
            name, lanes, lambda i: self._connect(host, stack, f"{name}.ch{i}"))

    def _transport_for(self, m: int, h: int, stack: ServerStack,
                       prefix: str):
        """Mount ``m``'s transport to ``stack``: lane or dedicated QP."""
        if self.muxes:
            return self.muxes[(h, stack.name)].add_lane(m)
        return self._connect(self.client_nodes[h], stack,
                             self.names.transport(prefix, stack.name))

    def _build_mount(self, m: int, h: int, s: int) -> Mount:
        host = self.client_nodes[h]
        stack = self.server_stacks[s]
        prefix = self.names.mount(host.name, m)
        transport = self._transport_for(m, h, stack, prefix)
        mds = NfsClient(transport, stack.nfs_server.root_handle(),
                        name=f"{prefix}.nfs")
        if not self.data_stacks:
            return Mount(node=host, transport=transport, nfs=mds)
        data_clients = [
            NfsClient(self._transport_for(m, h, ds, prefix),
                      ds.nfs_server.root_handle(),
                      name=f"{prefix}.{ds.name}.nfs")
            for ds in self.data_stacks
        ]
        striped = StripedNfsClient(
            mds, data_clients,
            name=f"{prefix}.pnfs",
            component_tag=f".s{s}.m{m}",
        )
        return Mount(node=host, transport=transport, nfs=striped)

    # -- aggregate views ----------------------------------------------------
    @property
    def all_stacks(self) -> list[ServerStack]:
        return [*self.server_stacks, *self.data_stacks]

    @property
    def server_nodes(self) -> list[IBNode]:
        return [stack.node for stack in self.all_stacks]

    @property
    def server_transports(self) -> list:
        return [t for stack in self.all_stacks
                for t in stack.server_transports]

    def qp_count(self) -> int:
        """Live server-side connections across every stack — the fig13
        "total QPs" column (each costs HCA QP context on both ends)."""
        return len(self.server_transports)

    server_node = _first_stack("node")
    rpc_server = _first_stack("rpc_server")
    nfs_server = _first_stack("nfs_server")
    fs = _first_stack("fs")
    raid = _first_stack("raid")
    drc = _first_stack("drc")
    srq = _first_stack("srq")
    server_strategy = _first_stack("strategy")
    security_policy = _first_stack("security_policy")
    rpcrdma = _first_stack("rpcrdma")

    # -- measurement helpers ----------------------------------------------
    def server_recv_buffer_bytes(self) -> int:
        """Registered receive-buffer memory across every server node."""
        return sum(stack.recv_buffer_bytes() for stack in self.all_stacks)

    def reset_utilization_windows(self) -> None:
        for node in [*self.server_nodes, *self.client_nodes]:
            node.cpu.reset_utilization_window()

    def client_cpu_utilization(self) -> float:
        """Mean utilization across client nodes (fraction of all cores)."""
        return (sum(n.cpu.utilization() for n in self.client_nodes)
                / len(self.client_nodes))

    def server_cpu_utilization(self) -> float:
        """Mean utilization across server nodes."""
        nodes = self.server_nodes
        return sum(n.cpu.utilization() for n in nodes) / len(nodes)

    def run(self, proc):
        """Run one process to completion and return its value."""
        return self.sim.run_until_complete(self.sim.process(proc))
