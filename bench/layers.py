"""Per-layer attribution, measured from outside the program.

Three sources, all read from one traced round:

* **host time**: cProfile self time grouped by the package under
  ``src/repro`` that defines each function.  A builtin is charged to the
  layer of the code that called it (pstats keeps per-caller edges).
  Methods of the compiled engine (``repro.sim._cengine``) are ``sim``.
* **simulated time**: the span tracer's trees folded into self time
  (a span's duration minus the union of its children, clipped to it),
  summed per span family.
* **counters**: the telemetry registry, as ``stats_dict(cluster)``
  exports it, differenced across the measured phase.
"""

from __future__ import annotations

import os

#: host layers, named after the modules under ``src/repro`` they cover.
HOST_LAYERS = (
    "sim", "ib", "ib.mux", "ib.srq", "core", "core.regcache", "rpc",
    "rpc.xdr", "rpc.lanes", "nfs", "fs", "osmodel", "tcpip", "payload",
    "security", "experiments", "telemetry", "other",
)
# Longest first, so ``ib.mux`` wins over ``ib``.
_BY_LENGTH = sorted((layer for layer in HOST_LAYERS if layer != "other"),
                    key=len, reverse=True)

#: simulated span families, in call-path order.  An ``nfs.<VERB>`` op
#: span starts and ends with the ``rpc.call`` inside it, so the client's
#: own share of a call is one family, ``sim.rpc_call``.
SPAN_FAMILIES = (
    "sim.rpc_call", "sim.core_transport", "sim.ib_hca",
    "sim.ib_registration", "sim.rpc_queue", "sim.rpc_dispatch",
    "sim.nfs_server", "sim.fs", "sim.fs_raid",
)

#: registry counters; all but the peaks, the low-water mark and the QP
#: count are differenced across the measured phase.
COUNTERS = (
    "rpc.calls_sent", "rpc.credit_waits", "rpc.queue_peak",
    "rpc.queue_waits", "rpc.retransmits", "drc.replays",
    "ib.tpt_registrations_per_op", "ib.fmr_fallbacks",
    "ib.hca_rdma_read_bytes", "ib.hca_rdma_write_bytes", "ib.rnr_events",
    "ib.srq_exhaustions", "ib.srq_min_available", "ib.qps",
    "core.regcache_hit_rate", "fs.pagecache_hit_rate",
    "fs.pagecache_evictions", "fs.pagecache_writebacks",
)


# ------------------------------------------------------------ host time
def module_layer(filename: str, package_root: str) -> str:
    """The host layer of a source file (``other`` outside the package)."""
    prefix = package_root.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix) or not filename.endswith(".py"):
        return "other"
    dotted = filename[len(prefix):-3].replace(os.sep, ".")
    for layer in _BY_LENGTH:
        if dotted == layer or dotted.startswith(layer + "."):
            return layer
    return "other"


def _own_layer(func: tuple, package_root: str):
    """Layer of a pstats function key; None for a caller-charged builtin."""
    filename, _, name = func
    if filename == "~":
        return "sim" if "_cengine" in name else None
    return module_layer(filename, package_root)


def host_layers(stats: dict, package_root: str) -> dict:
    """``{layer: (self seconds, calls)}`` from a pstats ``stats`` dict.

    ``stats`` maps ``(file, line, name)`` to ``(primitive calls, calls,
    self time, cumulative time, callers)``; ``callers`` maps each
    caller to that edge's ``(calls, primitive calls, self time, cum)``.
    """
    totals = {layer: [0.0, 0] for layer in HOST_LAYERS}
    for func, (_, calls, self_s, _, callers) in stats.items():
        layer = _own_layer(func, package_root)
        if layer is not None:
            totals[layer][0] += self_s
            totals[layer][1] += calls
            continue
        if not callers:
            totals["other"][0] += self_s
            totals["other"][1] += calls
            continue
        for caller, (edge_calls, _, edge_self, _) in callers.items():
            owner = _own_layer(caller, package_root) or "other"
            totals[owner][0] += edge_self
            totals[owner][1] += edge_calls
    return {layer: (self_s, calls) for layer, (self_s, calls) in totals.items()}


# ------------------------------------------------------- simulated time
_FAMILY_BY_CAT = {
    "client": "sim.rpc_call",          # nfs.<VERB>
    "rpc": "sim.rpc_call",             # rpc.call, rpc.retransmit
    "transport": "sim.core_transport",  # rdma.*, rpc.receive, rpc.reply
    "hca": "sim.ib_hca",
    "reg": "sim.ib_registration",
    "server": "sim.nfs_server",        # nfsd.<VERB>
    "disk": "sim.fs",                  # tmpfs.*, blockfs.*
}


def span_family(name: str, cat: str) -> str:
    """Which family a span belongs to (raises on an unknown category)."""
    if name == "rpc.queue":
        return "sim.rpc_queue"
    if name == "rpc.dispatch":
        return "sim.rpc_dispatch"
    if name.startswith("raid."):
        return "sim.fs_raid"
    try:
        return _FAMILY_BY_CAT[cat]
    except KeyError:
        raise ValueError(f"span {name!r} has unknown category {cat!r}")


def fold_spans(spans, now: float) -> dict:
    """Total self time per span family, in simulated µs.

    A span's self time is its duration minus the union of its
    children's intervals, each clipped to the span.  Spans still open
    count as ending at ``now``.  Children outside ``spans`` are ignored.
    """
    children: dict = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    totals = dict.fromkeys(SPAN_FAMILIES, 0.0)
    for span in spans:
        start = span.start
        end = span.finish if span.finish is not None else now
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(
                (c.start, c.finish if c.finish is not None else now)
                for c in children.get(span.id, ())):
            lo = max(c_start, reach)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[span_family(span.name, span.cat)] += (end - start) - covered
    return totals


# ------------------------------------------------------------- counters
def _series(samples: list) -> dict:
    return {(s["name"], tuple(sorted(s["labels"].items()))): s["value"]
            for s in samples}


def counters(before: list, after: list, mounts: set, server_nodes: set,
             client_ops: int) -> dict:
    """The registry counters over the measured phase.

    ``before``/``after`` are ``stats_dict(cluster)["samples"]`` lists.
    ``rpc.calls_sent`` sums the per-mount series only: a muxed topology
    also reports every shared channel under the same ``mount`` label.
    """
    start, end = _series(before), _series(after)

    def rows(name):
        return [(dict(labels), value) for (n, labels), value in end.items()
                if n == name]

    def delta(name, keep=lambda labels: True):
        return sum(value - start.get(key, 0.0)
                   for key, value in end.items()
                   if key[0] == name and keep(dict(key[1])))

    def rate(hits, misses):
        h, m = delta(hits), delta(misses)
        return h / (h + m) if h + m else 0.0

    min_available = [value for _, value in rows("srq_min_available")]
    return {
        "rpc.calls_sent": delta("rpc_calls_sent",
                                lambda labels: labels["mount"] in mounts),
        "rpc.credit_waits": delta("rpc_credit_waits"),
        "rpc.queue_peak": max(value for _, value in rows("rpc_queue_peak")),
        "rpc.queue_waits": delta("rpc_queue_waits"),
        "rpc.retransmits": delta("rpc_retransmits"),
        "drc.replays": delta("drc_replays"),
        "ib.tpt_registrations_per_op":
            delta("tpt_registrations") / client_ops,
        "ib.fmr_fallbacks": delta("fmr_fallbacks"),
        "ib.hca_rdma_read_bytes": delta("hca_rdma_read_bytes"),
        "ib.hca_rdma_write_bytes": delta("hca_rdma_write_bytes"),
        "ib.rnr_events": delta("hca_rnr_events"),
        "ib.srq_exhaustions": delta("srq_exhaustions"),
        "ib.srq_min_available": min(min_available) if min_available else 0.0,
        "ib.qps": sum(value for labels, value in rows("hca_qps")
                      if labels["node"] in server_nodes),
        "core.regcache_hit_rate": rate("regcache_hits", "regcache_misses"),
        "fs.pagecache_hit_rate": rate("pagecache_hits", "pagecache_misses"),
        "fs.pagecache_evictions": delta("pagecache_evictions"),
        "fs.pagecache_writebacks": delta("pagecache_writebacks"),
    }
