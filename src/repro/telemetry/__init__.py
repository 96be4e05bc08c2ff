"""Telemetry: span tracing, a unified metrics registry, reporting.

One object — :class:`Telemetry` — owns both observability surfaces:

* ``telemetry.registry`` (:class:`~repro.telemetry.registry.Registry`):
  labeled counters/gauges/histograms with deterministic iteration order.
  :meth:`Telemetry.attach_cluster` absorbs every scattered live counter
  in a built cluster (transports, HCAs, TPTs, FMR pools, registration
  caches, page cache, DRC, fault injector) as callback gauges.
* ``telemetry.tracer`` (:class:`~repro.telemetry.spans.SpanTracer`):
  per-RPC span trees over simulated time, exportable as Chrome
  ``trace_event`` JSON.  ``None`` unless tracing was requested.

**Overhead contract** (DESIGN.md §9): the whole subsystem hangs off a
single ``sim.telemetry`` attribute that defaults to ``None``.  Every
instrumented site does one attribute load and one ``is None`` test when
telemetry is off — no span objects, no dict lookups, no closures.  When
on, spans only *read* ``sim.now``; they never schedule events, consume
modeled CPU, or draw randomness, so simulated results are bit-identical
either way.
"""

from __future__ import annotations

from repro.ib.verbs import QPState
from typing import Any

from repro.telemetry.registry import Counter, Gauge, Histogram, Registry, Sample
from repro.telemetry.spans import Span, SpanTracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "Sample",
    "Span",
    "SpanTracer",
    "Telemetry",
]


def _events(counter):
    """Collect-time reader for a live sim Counter's event count."""
    return lambda: float(counter.events)


def _value(counter):
    """Collect-time reader for a live sim Counter's (possibly byte) value."""
    return lambda: float(counter.value)


class Telemetry:
    """The cluster-wide observability root, attached as ``sim.telemetry``."""

    def __init__(self, sim: Any, tracing: bool = True) -> None:
        self.sim = sim
        self.registry = Registry()
        self.tracer = SpanTracer(sim) if tracing else None
        reg = self.registry
        self.client_ops = reg.counter(
            "nfs_client_ops", "NFS calls issued, by mount and verb",
            ("mount", "verb"))
        self.client_latency = reg.histogram(
            "nfs_client_latency_us", "client-observed call latency",
            ("mount", "verb"))
        self.server_ops = reg.counter(
            "nfs_server_ops", "NFS procedures executed by the server",
            ("verb",))

    def enable_tracing(self) -> SpanTracer:
        if self.tracer is None:
            self.tracer = SpanTracer(self.sim)
        return self.tracer

    # -- hot-path recording hooks -----------------------------------------
    def record_op(self, mount: str, verb: str, latency_us: float) -> None:
        self.client_ops.labels(mount=mount, verb=verb).add()
        self.client_latency.labels(mount=mount, verb=verb).observe(latency_us)

    def record_server_op(self, verb: str) -> None:
        self.server_ops.labels(verb=verb).add()

    # -- cluster wiring ----------------------------------------------------
    def attach_cluster(self, cluster: Any) -> None:
        """Absorb a built cluster's live counters into the registry.

        Everything is attached as a callback gauge, so the subsystems
        keep their existing counter objects and the registry reads them
        at collect time.
        """
        reg = self.registry

        for mount in cluster.mounts:
            self._attach_transport(mount.transport, mount.nfs.name)
        for mux in cluster.muxes.values():
            reg.attach("mux_channels",
                       lambda x=mux: float(x.qp_count),
                       "shared QPs in this channel pool", mux=mux.name)
            reg.attach("mux_lanes",
                       lambda x=mux: float(len(x.lanes)),
                       "virtual lanes attached to this pool", mux=mux.name)
            for channel in mux.channels:
                self._attach_transport(channel, channel.name)

        for stack in cluster.all_stacks:
            self._attach_serving_stack(stack)
        # Placement is only a choice with more than one shard.
        if len(cluster.server_stacks) > 1:
            for index, stack in enumerate(cluster.server_stacks):
                reg.attach("shard_mounts",
                           lambda r=cluster.redirector, i=index: float(
                               r.counts()[i]),
                           "mounts the redirector placed on this shard",
                           server=stack.name)

        for node in [*cluster.server_nodes, *cluster.client_nodes]:
            hca = node.hca
            n = node.name
            reg.attach("hca_send_ops", _events(hca.sends),
                       "send WQEs executed", node=n)
            reg.attach("hca_send_bytes", _value(hca.sends),
                       "bytes moved by sends", node=n)
            reg.attach("hca_rdma_write_bytes", _value(hca.writes),
                       "bytes moved by RDMA Writes", node=n)
            reg.attach("hca_rdma_read_bytes", _value(hca.reads),
                       "bytes moved by RDMA Reads", node=n)
            reg.attach("hca_rnr_events", _events(hca.rnr_events),
                       "receiver-not-ready stalls", node=n)
            reg.attach("hca_qps", lambda h=hca: float(len(h.qps)),
                       "live queue pairs on this adapter", node=n)
            reg.attach("hca_qps_error",
                       lambda h=hca: float(sum(
                           1 for qp in h.qps if qp.state is QPState.ERROR)),
                       "queue pairs currently in the ERROR state", node=n)
            tpt = hca.tpt
            reg.attach("tpt_registrations", _events(tpt.registrations),
                       "memory registrations installed", node=n)
            reg.attach("tpt_deregistrations", _events(tpt.deregistrations),
                       "registrations torn down", node=n)
            reg.attach("tpt_protection_faults", _events(tpt.protection_faults),
                       "RDMA accesses refused by the TPT", node=n)
            reg.attach("tpt_live_entries", lambda t=tpt: float(t.live_entries),
                       "currently valid TPT entries", node=n)

        san = cluster.sim.sanitizer
        if san is not None:
            reg.attach("sanitizer_violations",
                       lambda s=san: float(len(s.violations)),
                       "runtime sanitizer violations recorded")
            for rule in san.RULES:
                reg.attach("sanitizer_rule_violations",
                           lambda s=san, r=rule: float(s.counts.get(r, 0)),
                           "sanitizer violations for one rule", rule=rule)

        for stack in cluster.all_stacks:
            self._attach_strategy(stack.strategy, side=stack.name)
        for mux in cluster.muxes.values():
            for channel in mux.channels:
                self._attach_strategy(channel.strategy, side=channel.name)
        for mount in cluster.mounts:
            strategy = getattr(mount.transport, "strategy", None)
            if strategy is not None and not hasattr(mount.transport, "channel"):
                self._attach_strategy(strategy, side=mount.nfs.name)

        clients = sorted({m.node.name for m in cluster.mounts})
        for stack in cluster.all_stacks:
            self._attach_pagecache(stack)
            if stack.security_policy is not None:
                self._attach_security(stack, clients)

        if cluster.faults is not None:
            f = cluster.faults
            reg.attach("faults_messages_dropped", _events(f.messages_dropped),
                       "messages eaten by the wire")
            reg.attach("faults_delay_spikes", _events(f.delay_spikes_injected),
                       "latency spikes injected")
            reg.attach("faults_qp_kills", _events(f.qp_kills_fired),
                       "QP connections killed")
            reg.attach("faults_server_stalls", _events(f.stalls_fired),
                       "whole-server stalls fired")
            reg.attach("faults_server_crashes", _events(f.crashes_fired),
                       "server crash-restarts fired")

    def _attach_transport(self, t: Any, mount: str) -> None:
        """One client transport's call, retry and credit gauges.

        A MuxLane has no timers or recovery of its own — those live on
        its shared channel, which is attached as a transport too.
        """
        reg = self.registry
        reg.attach("rpc_calls_sent", _events(t.calls_sent),
                   "RPC calls handed to the transport", mount=mount)
        if hasattr(t, "retransmissions"):
            reg.attach("rpc_retransmits", _events(t.retransmissions),
                       "timer-driven resends (same xid)", mount=mount)
        if hasattr(t, "reconnects"):
            reg.attach("rpc_reconnects", _events(t.reconnects),
                       "transport redials after fatal QP errors", mount=mount)
            reg.attach("rpc_calls_recovered", _events(t.calls_recovered),
                       "calls replayed across a reconnect", mount=mount)
        credits = getattr(t, "credits", None)
        if credits is not None:
            reg.attach("rpc_credit_waits", _events(credits.waits),
                       "calls that stalled on an exhausted credit grant",
                       mount=mount)
            reg.attach("rpc_credit_outstanding_peak",
                       lambda c=credits: float(c.outstanding_peak),
                       "deepest concurrent-call level seen", mount=mount)

    def _attach_serving_stack(self, stack: Any) -> None:
        """One serving stack's dispatch/SRQ/DRC/connection gauges.

        Every series carries ``server=<stack name>``, whatever the
        cluster's shape, so the registry-summing health checks aggregate
        across nodes for free.
        """
        reg = self.registry
        rpc, srq, drc = stack.rpc_server, stack.srq, stack.drc
        labels = {"server": stack.name}
        reg.attach("rpc_server_calls", _events(rpc.calls_served),
                   "RPCs dispatched by the server", **labels)
        reg.attach("rpc_server_failed", _events(rpc.calls_failed),
                   "dispatches that raised", **labels)
        pool = rpc.pool
        reg.attach("rpc_queue_depth", lambda p=pool: float(p.backlog),
                   "RPCs waiting for a worker thread", **labels)
        reg.attach("rpc_queue_peak", lambda p=pool: float(p.backlog_peak),
                   "deepest run-queue backlog seen", **labels)
        reg.attach("rpc_queue_waits", _events(pool.queue_waits),
                   "submitters blocked on a full bounded run queue", **labels)
        if srq is not None:
            reg.attach("srq_entries", lambda s=srq: float(s.entries),
                       "shared receive pool capacity", **labels)
            reg.attach("srq_available", lambda s=srq: float(s.available),
                       "receive buffers currently posted and unclaimed",
                       **labels)
            reg.attach("srq_min_available",
                       lambda s=srq: float(s.min_available),
                       "low-water mark of posted buffers", **labels)
            reg.attach("srq_takes", _events(srq.takes),
                       "receive buffers claimed by arriving messages",
                       **labels)
            reg.attach("srq_exhaustions", _events(srq.exhaustions),
                       "arrivals that found the pool empty (RNR path)",
                       **labels)
            reg.attach("srq_registered_bytes",
                       lambda s=srq: float(s.registered_bytes),
                       "registered receive-buffer memory, whole server",
                       **labels)
            reg.attach("srq_recycles", _events(srq.recycles),
                       "buffers reposted to the pool after consumption",
                       **labels)
            reg.attach("srq_low_watermark",
                       lambda s=srq: float(s.low_watermark),
                       "repost threshold the pool guards", **labels)
            reg.attach("srq_low_watermark_hits",
                       _events(srq.low_watermark_hits),
                       "times the pool drained down to the watermark",
                       **labels)
            reg.attach("srq_reclaimed_on_detach",
                       _events(srq.reclaimed_on_detach),
                       "parked deliveries drained back on connection death",
                       **labels)
        reg.attach("drc_inserts", _events(drc.inserts),
                   "replies cached for duplicate detection", **labels)
        reg.attach("drc_replays", _events(drc.replays),
                   "duplicate xids answered from the cache", **labels)
        reg.attach("drc_drops", _events(drc.drops),
                   "duplicates dropped while the original ran", **labels)
        reg.attach("nfsd_errors", _events(stack.nfs_server.errors),
                   "NFS procedures that returned an error status", **labels)
        reg.attach("lane_order_violations",
                   lambda st=stack: float(sum(
                       t.lanes.order_violations.events
                       for t in st.server_transports
                       if getattr(t, "lanes", None) is not None)),
                   "per-lane FIFO violations flagged by the server", **labels)
        reg.attach("server_connections",
                   lambda st=stack: float(len(st.server_transports)),
                   "live server-side connections (QPs)", **labels)

    def _attach_pagecache(self, stack: Any) -> None:
        """A block file system's page-cache gauges (tmpfs has none)."""
        reg = self.registry
        cache = getattr(stack.fs, "cache", None)
        if cache is None or not hasattr(cache, "hits"):
            return
        labels = {"server": stack.name}
        reg.attach("pagecache_hits", _events(cache.hits),
                   "server page-cache hits", **labels)
        reg.attach("pagecache_misses", _events(cache.misses),
                   "server page-cache misses", **labels)
        reg.attach("pagecache_evictions", _events(cache.evictions),
                   "pages evicted under memory pressure", **labels)
        reg.attach("pagecache_writebacks", _events(cache.writebacks),
                   "dirty pages written back", **labels)
        reg.attach("pagecache_resident_pages",
                   lambda c=cache: float(c.resident_pages),
                   "pages currently cached", **labels)

    def _attach_security(self, stack: Any, clients: list) -> None:
        """One stack's misbehavior-policy gauges (hardened data plane)."""
        from repro.security.policy import NAK_CAUSES

        reg = self.registry
        policy = stack.security_policy
        labels = {"server": stack.name}
        reg.attach("security_naks", _events(policy.naks),
                   "protection NAKs recorded by the policy", **labels)
        for cause in NAK_CAUSES:
            reg.attach("security_naks_by_cause",
                       lambda p=policy, c=cause: float(
                           p.naks_by_cause.get(c, 0)),
                       "protection NAKs broken down by TPT cause",
                       cause=cause, **labels)
        reg.attach("security_malformed_wrs", _events(policy.malformed_wrs),
                   "receives that failed RPC/RDMA header decode", **labels)
        reg.attach("security_bad_calls", _events(policy.bad_calls),
                   "RPC calls rejected at dispatch", **labels)
        reg.attach("security_lease_reclaims", _events(policy.lease_reclaims),
                   "exposure leases reclaimed by deadline", **labels)
        reg.attach("security_lease_reclaimed_bytes",
                   _value(policy.lease_reclaims),
                   "bytes un-exposed by lease reclamation", **labels)
        reg.attach("security_quota_evictions",
                   _events(policy.quota_evictions),
                   "exposures evicted by per-client quota", **labels)
        reg.attach("security_quota_evicted_bytes",
                   _value(policy.quota_evictions),
                   "bytes un-exposed by quota eviction", **labels)
        reg.attach("security_warnings", _events(policy.warnings),
                   "clients that crossed the WARN threshold", **labels)
        reg.attach("security_throttles", _events(policy.throttles),
                   "clients escalated to throttling", **labels)
        reg.attach("security_quarantined_mounts",
                   lambda p=policy: float(len(p.quarantined)),
                   "clients evicted and banned", **labels)
        reg.attach("security_redials_refused",
                   _events(policy.redials_refused),
                   "redial attempts refused for banned clients", **labels)
        reg.attach("security_active_exposures",
                   lambda st=stack: float(sum(
                       len(getattr(t, "pending_done", ()) or ())
                       for t in st.server_transports)),
                   "chunk exposures currently awaiting RDMA_DONE", **labels)
        for client in clients:
            reg.attach("security_exposure_bytes",
                       lambda p=policy, c=client: float(
                           p.exposure_bytes_by_client().get(c, 0)),
                       "currently exposed (pending-DONE) bytes",
                       client=client, **labels)

    def _attach_strategy(self, strategy: Any, side: str) -> None:
        """Registration-strategy gauges: FMR occupancy, regcache hit rate."""
        reg = self.registry
        if hasattr(strategy, "acquires"):
            reg.attach("reg_acquires", _events(strategy.acquires),
                       "registration-strategy acquisitions", side=side)
            reg.attach("reg_releases", _events(strategy.releases),
                       "registration-strategy releases", side=side)
        pool = getattr(strategy, "pool", None)
        if pool is not None:
            reg.attach("fmr_pool_size", lambda p=pool: float(p.pool_size),
                       "pre-allocated FMR entries", side=side)
            reg.attach("fmr_mapped", lambda p=pool: float(p.pool_size - p.available),
                       "FMR entries currently mapped (occupancy)", side=side)
            reg.attach("fmr_maps", _events(pool.maps), "FMR map operations",
                       side=side)
            reg.attach("fmr_unmaps", _events(pool.unmaps), "FMR unmap operations",
                       side=side)
            reg.attach("fmr_fallbacks", _events(pool.fallbacks),
                       "mappings that fell back to regular registration",
                       side=side)
        if hasattr(strategy, "hits") and hasattr(strategy, "misses"):
            reg.attach("regcache_hits", _events(strategy.hits),
                       "registration-cache hits", side=side)
            reg.attach("regcache_misses", _events(strategy.misses),
                       "registration-cache misses", side=side)
