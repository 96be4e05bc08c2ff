"""``nfsstat``/``mountstats``-style text report over the registry.

Renders what a kernel admin would get from ``nfsstat -c``, ``nfsstat
-s`` and ``/proc/self/mountstats`` rolled together: per-verb op counts
with exact latency percentiles, per-mount transport health (calls,
retransmits, reconnects), server dispatch and DRC activity, the whole
registration story (TPT transactions, FMR occupancy, regcache hit
rate), page-cache effectiveness and per-node HCA traffic.

Everything is read back *through the registry* — the report is proof
that :meth:`Telemetry.attach_cluster` absorbed the scattered counters.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.latency import LatencyRecorder
from repro.analysis.stats import format_table

__all__ = ["render_stats", "stats_dict"]


def _rows(registry, name):
    family = registry.get(name)
    return list(family.items()) if family is not None else []


def _fmt(value: float) -> str:
    return f"{value:.0f}" if float(value).is_integer() else f"{value:.1f}"


def _verbs(telemetry: Any) -> dict[str, tuple]:
    """Per verb, in name order: client ops (all mounts merged), server
    ops, and the merged client latency summary (None if unrecorded)."""
    counts: dict[str, float] = {}
    recorders: dict[str, LatencyRecorder] = {}
    for labels, child in telemetry.client_ops.items():
        counts[labels["verb"]] = counts.get(labels["verb"], 0.0) + child.value
    for labels, child in telemetry.client_latency.items():
        merged = recorders.setdefault(labels["verb"], LatencyRecorder())
        merged.extend(child.recorder)
    server_counts = {labels["verb"]: child.value
                     for labels, child in telemetry.server_ops.items()}
    return {
        verb: (counts.get(verb, 0.0), server_counts.get(verb, 0.0),
               recorders[verb].summarize() if verb in recorders else None)
        for verb in sorted(set(counts) | set(server_counts))
    }


def _verb_section(telemetry: Any) -> str:
    """Per-verb table: client ops (all mounts merged), server ops, latency."""
    rows = []
    for verb, (client_ops, server_ops, summary) in _verbs(telemetry).items():
        rows.append([
            verb,
            _fmt(client_ops),
            _fmt(server_ops),
            f"{summary.mean:.1f}" if summary else "-",
            f"{summary.p50:.1f}" if summary else "-",
            f"{summary.p99:.1f}" if summary else "-",
            f"{summary.maximum:.1f}" if summary else "-",
        ])
    table = format_table(
        ["verb", "client ops", "server ops", "mean us", "p50 us", "p99 us",
         "max us"], rows)
    return "NFS per-verb operations:\n" + table


def _mount_section(registry: Any) -> str:
    mounts: dict[str, dict[str, float]] = {}
    for metric in ("rpc_calls_sent", "rpc_retransmits", "rpc_reconnects",
                   "rpc_calls_recovered", "rpc_credit_waits"):
        for labels, child in _rows(registry, metric):
            mounts.setdefault(labels["mount"], {})[metric] = child.value
    rows = [
        [mount, _fmt(vals.get("rpc_calls_sent", 0.0)),
         _fmt(vals.get("rpc_retransmits", 0.0)),
         _fmt(vals.get("rpc_reconnects", 0.0)),
         _fmt(vals.get("rpc_calls_recovered", 0.0)),
         _fmt(vals.get("rpc_credit_waits", 0.0))]
        for mount, vals in sorted(mounts.items())
    ]
    table = format_table(
        ["mount", "calls", "retrans", "reconnects", "recovered",
         "credit waits"], rows)
    return "RPC transport (per mount):\n" + table


def _scalar_lines(registry: Any, title: str,
                  metrics: list[tuple[str, str]]) -> str:
    lines = [title]
    for metric, label in metrics:
        for labels, child in _rows(registry, metric):
            suffix = ""
            if labels:
                suffix = " (" + ", ".join(f"{k}={v}" for k, v in
                                          sorted(labels.items())) + ")"
            lines.append(f"  {label}{suffix}: {_fmt(child.value)}")
    return "\n".join(lines)


def _server_section(registry: Any) -> str:
    return _scalar_lines(registry, "Server RPC dispatch:", [
        ("rpc_server_calls", "calls served"),
        ("rpc_server_failed", "calls failed"),
        ("nfsd_errors", "nfs error replies"),
        ("drc_inserts", "drc inserts"),
        ("drc_replays", "drc hits (replays)"),
        ("drc_drops", "drc in-progress drops"),
        ("rpc_queue_peak", "run-queue peak depth"),
        ("rpc_queue_waits", "run-queue full waits"),
    ])


def _srq_section(registry: Any) -> str:
    if registry.get("srq_entries") is None:
        return ""
    return _scalar_lines(registry, "Shared receive pool (SRQ):", [
        ("srq_entries", "pool entries"),
        ("srq_available", "posted + unclaimed now"),
        ("srq_min_available", "low-water mark"),
        ("srq_takes", "buffers claimed"),
        ("srq_recycles", "buffers reposted"),
        ("srq_low_watermark", "low-watermark threshold"),
        ("srq_low_watermark_hits", "low-watermark crossings"),
        ("srq_exhaustions", "pool-empty arrivals (RNR)"),
        ("srq_reclaimed_on_detach", "reclaimed on detach"),
        ("srq_registered_bytes", "registered recv bytes"),
    ])


def _registration_section(registry: Any) -> str:
    lines = [_scalar_lines(registry, "Registration:", [
        ("tpt_registrations", "tpt registrations"),
        ("tpt_deregistrations", "tpt deregistrations"),
        ("tpt_protection_faults", "protection faults"),
        ("fmr_pool_size", "fmr pool size"),
        ("fmr_mapped", "fmr mapped (occupancy)"),
        ("fmr_fallbacks", "fmr fallbacks"),
    ])]
    hits = {labels["side"]: child.value
            for labels, child in _rows(registry, "regcache_hits")}
    misses = {labels["side"]: child.value
              for labels, child in _rows(registry, "regcache_misses")}
    for side in sorted(set(hits) | set(misses)):
        h, m = hits.get(side, 0.0), misses.get(side, 0.0)
        rate = h / (h + m) if h + m else 0.0
        lines.append(f"  regcache (side={side}): {_fmt(h)} hits, "
                     f"{_fmt(m)} misses, {rate * 100:.1f}% hit rate")
    return "\n".join(lines)


def _pagecache_section(registry: Any) -> str:
    if registry.get("pagecache_hits") is None:
        return ""
    lines = [_scalar_lines(registry, "Server page cache:", [
        ("pagecache_hits", "hits"),
        ("pagecache_misses", "misses"),
        ("pagecache_evictions", "evictions"),
        ("pagecache_writebacks", "writebacks"),
        ("pagecache_resident_pages", "resident pages"),
    ])]
    hits = next((c.value for _, c in _rows(registry, "pagecache_hits")), 0.0)
    misses = next((c.value for _, c in _rows(registry, "pagecache_misses")), 0.0)
    if hits + misses:
        lines.append(f"  hit rate: {hits / (hits + misses) * 100:.1f}%")
    return "\n".join(lines)


def _hca_section(registry: Any) -> str:
    nodes: dict[str, dict[str, float]] = {}
    for metric in ("hca_send_ops", "hca_send_bytes", "hca_rdma_write_bytes",
                   "hca_rdma_read_bytes", "hca_rnr_events"):
        for labels, child in _rows(registry, metric):
            nodes.setdefault(labels["node"], {})[metric] = child.value
    rows = [
        [node, _fmt(v.get("hca_send_ops", 0.0)),
         _fmt(v.get("hca_send_bytes", 0.0)),
         _fmt(v.get("hca_rdma_write_bytes", 0.0)),
         _fmt(v.get("hca_rdma_read_bytes", 0.0)),
         _fmt(v.get("hca_rnr_events", 0.0))]
        for node, v in sorted(nodes.items())
    ]
    table = format_table(
        ["node", "sends", "send bytes", "write bytes", "read bytes", "rnr"],
        rows)
    return "HCA traffic (per node):\n" + table


def _mux_section(registry: Any) -> str:
    if (registry.get("mux_channels") is None
            and registry.get("shard_mounts") is None):
        return ""
    return _scalar_lines(registry, "QP multiplexing / sharding:", [
        ("mux_channels", "shared QPs"),
        ("mux_lanes", "virtual lanes"),
        ("server_connections", "server-side connections"),
        ("lane_order_violations", "lane FIFO violations"),
        ("shard_mounts", "mounts placed"),
    ])


def _security_section(registry: Any) -> str:
    if registry.get("security_naks") is None:
        return ""
    return _scalar_lines(registry, "Security (hardened data plane):", [
        ("security_naks", "protection naks"),
        ("security_naks_by_cause", "naks"),
        ("security_malformed_wrs", "malformed wrs"),
        ("security_bad_calls", "bad rpc calls"),
        ("security_lease_reclaims", "lease reclaims"),
        ("security_lease_reclaimed_bytes", "lease reclaimed bytes"),
        ("security_quota_evictions", "quota evictions"),
        ("security_quota_evicted_bytes", "quota evicted bytes"),
        ("security_active_exposures", "active exposures (pending DONE)"),
        ("security_exposure_bytes", "exposed bytes"),
        ("security_warnings", "clients warned"),
        ("security_throttles", "clients throttled"),
        ("security_quarantined_mounts", "quarantined mounts"),
        ("security_redials_refused", "redials refused"),
    ])


def _fault_section(registry: Any) -> str:
    if registry.get("faults_messages_dropped") is None:
        return ""
    return _scalar_lines(registry, "Fault injection:", [
        ("faults_messages_dropped", "messages dropped"),
        ("faults_delay_spikes", "delay spikes"),
        ("faults_qp_kills", "qp kills"),
        ("faults_server_stalls", "server stalls"),
        ("faults_server_crashes", "server crashes"),
    ])


def _require_telemetry(cluster):
    telemetry = getattr(cluster, "telemetry", None)
    if telemetry is None:
        raise ValueError(
            "cluster has no telemetry (build with ClusterConfig(telemetry=True) "
            "or call cluster.enable_telemetry())")
    return telemetry


def stats_dict(cluster: Any) -> dict:
    """The nfsstat report as plain data (the ``--json`` / health-sink form).

    Two views of the same registry:

    * ``verbs`` — per-verb client/server op counts with the merged
      latency distribution (mean/p50/p90/p99/max), mirroring the text
      report's first table;
    * ``samples`` — every registry sample as ``{name, labels, value}``
      in collection order, so nothing the registry knows is dropped.

    Everything is JSON-native (str/int/float/dict/list); round-tripping
    through ``json.dumps``/``loads`` is lossless.
    """
    telemetry = _require_telemetry(cluster)
    verbs = {}
    for verb, (client_ops, server_ops, s) in _verbs(telemetry).items():
        entry = {"client_ops": client_ops, "server_ops": server_ops}
        if s is not None:
            entry["latency_us"] = {
                "count": s.count, "mean": s.mean, "p50": s.p50,
                "p90": s.p90, "p99": s.p99, "max": s.maximum,
            }
        verbs[verb] = entry
    samples = [
        {"name": s.name, "labels": dict(s.labels), "value": s.value}
        for s in telemetry.registry.collect()
    ]
    return {"verbs": verbs, "samples": samples}


def render_stats(cluster: Any) -> str:
    """The full nfsstat-style report for a cluster with telemetry attached."""
    telemetry = _require_telemetry(cluster)
    registry = telemetry.registry
    sections = [
        _verb_section(telemetry),
        _mount_section(registry),
        _server_section(registry),
        _srq_section(registry),
        _mux_section(registry),
        _registration_section(registry),
        _pagecache_section(registry),
        _security_section(registry),
        _hca_section(registry),
        _fault_section(registry),
    ]
    return "\n\n".join(s for s in sections if s)
