"""Arms a :class:`FaultPlan` against a built cluster.

The injector is the single implementation behind every hook point:

* ``ib/link.py`` — it *is* a :class:`LinkFaultHook`; installed on the
  server's and every client's port it answers the drop/delay queries
  the wire and the HCA delivery path make.
* ``ib/verbs.py`` — scheduled :meth:`QueuePair.kill` of both ends of a
  mount's connection (:class:`QpKill`, :class:`ServerCrash`).
* ``fs/disk.py`` — transient-error arming consumed by the disk driver's
  retry loop (:class:`DiskFault`).
* ``osmodel`` — whole-server stall windows via :meth:`CPU.stall`
  (:class:`ServerStall`, the crash-restart window).

Nothing here runs unless :meth:`FaultInjector.arm` is called, and every
draw comes from a child of the plan's seed, so armed runs are exactly
reproducible and unarmed runs are untouched.
"""

from __future__ import annotations

from repro.faults.plan import FaultPlan
from repro.ib.link import DuplexLink, LinkFaultHook
from repro.sim import Counter, DeterministicRNG

__all__ = ["FaultInjector"]


class FaultInjector(LinkFaultHook):
    """Deterministic executor for a :class:`FaultPlan`.

    ``cluster`` is a :class:`~repro.experiments.cluster.Cluster` of any
    shape: hooks go on every server and client node and every server
    stack's RAID, and whole-server faults hit every server stack.
    """

    def __init__(self, cluster, plan: FaultPlan):
        self.cluster = cluster
        self.plan = plan
        self.sim = cluster.sim
        self.rng = DeterministicRNG(plan.seed, "fault-injector")
        self._loss_rng = self.rng.child("loss")
        self._delay_rng = self.rng.child("delay")
        self._armed = False
        #: port -> node name, for node-scoped loss/delay specs.
        self._port_nodes: dict[int, str] = {}
        #: deterministic targeted drops (tests): node name -> messages.
        self._forced_drops: dict[str, int] = {}
        #: armed-but-unconsumed transient disk errors.
        self._disk_errors_any = 0
        self._disk_errors_by_name: dict[str, int] = {}
        self.messages_dropped = Counter("faults.msg_dropped")
        self.delay_spikes_injected = Counter("faults.delay_spikes")
        self.qp_kills_fired = Counter("faults.qp_kills")
        self.disk_errors_armed = Counter("faults.disk_errors")
        self.stalls_fired = Counter("faults.stalls")
        self.crashes_fired = Counter("faults.crashes")

    # -- telemetry ---------------------------------------------------------
    def _instant(self, name: str, node: str, **args) -> None:
        """Mark a fired fault on the trace timeline (no-op when off)."""
        telemetry = self.sim.telemetry
        if telemetry is not None and telemetry.tracer is not None:
            telemetry.tracer.instant(name, "fault", node, "faults", **args)

    # -- lifecycle --------------------------------------------------------
    def arm(self) -> None:
        """Install hooks and schedule every planned fault."""
        if self._armed:
            raise RuntimeError("fault plan already armed")
        self._armed = True
        for node in self._nodes():
            port = node.hca.port
            self._port_nodes[id(port)] = node.name
            port.fault_hook = self
        for disk in self._disks():
            disk.fault_hook = self
        for spec in self.plan.qp_kills:
            self.sim.process(self._qp_kill(spec), name="faults.qpkill")
        for spec in self.plan.disk_faults:
            self.sim.process(self._disk_fault(spec), name="faults.disk")
        for spec in self.plan.server_stalls:
            self.sim.process(self._stall(spec), name="faults.stall")
        for spec in self.plan.server_crashes:
            self.sim.process(self._crash(spec), name="faults.crash")

    def disarm(self) -> None:
        """Remove the hooks (scheduled one-shot faults may still fire)."""
        for node in self._nodes():
            if node.hca.port.fault_hook is self:
                node.hca.port.fault_hook = None
        for disk in self._disks():
            if disk.fault_hook is self:
                disk.fault_hook = None
        self._armed = False

    def _nodes(self) -> list:
        return [*self.cluster.server_nodes, *self.cluster.client_nodes]

    def _disks(self) -> list:
        return [disk for stack in self.cluster.all_stacks
                if stack.raid is not None for disk in stack.raid.disks]

    # -- LinkFaultHook interface ------------------------------------------
    def drop_message(self, link: DuplexLink) -> bool:
        node = self._port_nodes.get(id(link))
        if node is None:
            return False
        forced = self._forced_drops.get(node, 0)
        if forced > 0:
            self._forced_drops[node] = forced - 1
            self.messages_dropped.add()
            self._instant("fault.msg_drop", node, forced=True)
            return True
        now = self.sim.now
        for spec in self.plan.message_loss:
            if spec.node is not None and spec.node != node:
                continue
            if not spec.start_us <= now < spec.end_us:
                continue
            if self._loss_rng.uniform() < spec.rate:
                self.messages_dropped.add()
                self._instant("fault.msg_drop", node, forced=False)
                return True
        return False

    def transfer_delay_us(self, link: DuplexLink, nbytes: int) -> float:
        node = self._port_nodes.get(id(link))
        if node is None:
            return 0.0
        now = self.sim.now
        for spec in self.plan.delay_spikes:
            if spec.node is not None and spec.node != node:
                continue
            if not spec.start_us <= now < spec.end_us:
                continue
            if self._delay_rng.uniform() < spec.rate:
                self.delay_spikes_injected.add()
                delay = self._delay_rng.exponential(spec.mean_delay_us)
                self._instant("fault.delay_spike", node, delay_us=delay)
                return delay
        return 0.0

    # -- disk hook ---------------------------------------------------------
    def disk_error(self, disk) -> bool:
        pending = self._disk_errors_by_name.get(disk.name, 0)
        if pending > 0:
            self._disk_errors_by_name[disk.name] = pending - 1
            return True
        if self._disk_errors_any > 0:
            self._disk_errors_any -= 1
            return True
        return False

    # -- test helpers ------------------------------------------------------
    def drop_next(self, node: str, count: int = 1) -> None:
        """Deterministically drop the next ``count`` messages arriving at
        ``node`` — the surgical variant of :class:`MessageLoss`."""
        self._forced_drops[node] = self._forced_drops.get(node, 0) + count

    # -- scheduled faults ---------------------------------------------------
    def _wait_until(self, at_us: float):
        return self.sim.timeout(max(0.0, at_us - self.sim.now))

    def _qp_kill(self, spec):
        yield self._wait_until(spec.at_us)
        mounts = self.cluster.mounts
        mount = mounts[spec.client_index % len(mounts)]
        # A muxed mount rides its lane's shared channel QP.
        transport = getattr(mount.transport, "channel", mount.transport)
        qp = getattr(transport, "qp", None)
        if qp is not None and qp.kill("injected fault: qp kill"):
            self.qp_kills_fired.add()
            self._instant("fault.qp_kill", mount.node.name)

    def _disk_fault(self, spec):
        yield self._wait_until(spec.at_us)
        disks = self._disks()
        if not disks:
            return  # tmpfs backend: nothing to fail
        if spec.disk_index is None:
            self._disk_errors_any += spec.count
        else:
            # Every stack's RAID names its disks alike, so the error
            # lands on whichever stack first touches that disk position.
            disk = disks[spec.disk_index % len(disks)]
            self._disk_errors_by_name[disk.name] = (
                self._disk_errors_by_name.get(disk.name, 0) + spec.count
            )
        self.disk_errors_armed.add(spec.count)

    def _stall_servers(self, duration_us: float):
        """Stall every server node at once (the first one in-process)."""
        first, *rest = self.cluster.server_nodes
        for node in rest:
            self.sim.process(node.cpu.stall(duration_us), name="faults.stall")
        yield from first.cpu.stall(duration_us)

    def _stall(self, spec):
        yield self._wait_until(spec.at_us)
        self.stalls_fired.add()
        for node in self.cluster.server_nodes:
            self._instant("fault.server_stall", node.name,
                          duration_us=spec.duration_us)
        yield from self._stall_servers(spec.duration_us)

    def _crash(self, spec):
        yield self._wait_until(spec.at_us)
        self.crashes_fired.add()
        for node in self.cluster.server_nodes:
            self._instant("fault.server_crash", node.name,
                          restart_us=spec.restart_us)
        # Every connection dies with the servers...
        for transport in self.cluster.client_transports:
            qp = getattr(transport, "qp", None)
            if qp is not None:
                qp.kill("injected fault: server crash")
        # ...and the nodes are unresponsive until they have rebooted;
        # clients redialing during the window queue behind the restart.
        yield from self._stall_servers(spec.restart_us)

    # -- reporting ----------------------------------------------------------
    def summary(self) -> dict[str, int]:
        disks = self._disks()
        return {
            "messages dropped": self.messages_dropped.events,
            "delay spikes": self.delay_spikes_injected.events,
            "qp kills": self.qp_kills_fired.events,
            "disk errors armed": int(self.disk_errors_armed.value),
            "disk errors hit": sum(d.transient_errors.events for d in disks),
            "server stalls": self.stalls_fired.events,
            "server crashes": self.crashes_fired.events,
        }
