"""The paper's evaluation (§5), declared once: one table, one entry per
experiment.

Each :class:`Experiment` entry holds what a table shows (title,
headers, the paper's reference claims) and how it is measured: a point
grid of ``(label, row keys, Point)`` triples plus a row builder, or —
for the two tables with no grid — a ``measure`` function.  Everything
else reads this table: ``repro run``/``list``/``report`` through
:data:`EXPERIMENTS`, and the per-point tools (``check``, ``health``,
``stats``, ``trace``, ``bench``) through :data:`FIGURES`.
:func:`repro.experiments.registry.run` runs an entry.

``scale`` trades fidelity for runtime: ``quick`` is sized for
CI/benchmarks, ``full`` for EXPERIMENTS.md regeneration.  Absolute
numbers come from the calibrated profiles (DESIGN.md §4); the *shape*
targets from the paper are embedded here so reports can show
paper-vs-measured side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.analysis.stats import format_table
from repro.experiments.sweep import Point

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
    "FIGURES",
    "figure_grid",
]


@dataclass
class ExperimentResult:
    """Structured output: headers + rows + the paper's reference claims."""

    experiment: str
    headers: list[str]
    rows: list[list]
    paper_reference: str
    #: total simulator events stepped across every point (bench metric).
    events: int = 0

    def table(self) -> str:
        return format_table(self.headers, self.rows)

    def __str__(self) -> str:  # pragma: no cover - presentation
        return (
            f"== {self.experiment} ==\n{self.table()}\n"
            f"paper: {self.paper_reference}\n"
        )


@dataclass(frozen=True)
class Experiment:
    """One table of the evaluation: what it shows and how it is measured."""

    name: str
    #: the ``repro list`` line.
    doc: str
    title: str
    headers: tuple[str, ...]
    paper_reference: str
    #: ``grid(scale, **opts)`` -> ``[(label, row keys, Point)]``.
    grid: Optional[Callable[..., list[tuple[str, tuple, Point]]]] = None
    #: ``row(keys, metrics)`` -> the table row of one point.
    row: Optional[Callable[[tuple, dict], list]] = None
    #: a table with no point grid: ``measure(scale)`` -> (rows, a note
    #: appended to the paper reference).
    measure: Optional[Callable[..., tuple[list, str]]] = None
    #: markdown the report prints after this table.
    recipe: str = ""


def figure_grid(name: str, scale: str = "quick") -> list[tuple[str, Point]]:
    """The labeled point grid behind a figure of :data:`FIGURES`.

    Lets per-point tooling (``check``, ``health``, ``stats``, ``trace``)
    re-run a figure's points, or exactly one of them, by label or index.
    """
    if name not in FIGURES:
        *head, last = FIGURES
        raise ValueError(
            f"no point grid for {name!r} (choose {', '.join(head)} or {last})")
    return [(label, point) for label, _, point in FIGURES[name].grid(scale)]


def _ops(scale: str, quick: int, full: int) -> int:
    return quick if scale == "quick" else full


def _threads(scale: str) -> tuple[int, ...]:
    return (1, 2, 4, 8) if scale == "quick" else (1, 2, 3, 4, 5, 6, 7, 8)


# ---------------------------------------------------------------- Table 1
def _primitive_rows(scale: str) -> tuple[list, str]:
    from repro.security import probe_primitive_properties

    rows = [
        [p.primitive,
         "X" if p.receive_buffer_exposed else "",
         "X" if p.receive_buffer_pre_posted else "",
         "X" if p.steering_tag else "",
         "X" if p.rendezvous else ""]
        for p in probe_primitive_properties()
    ]
    return rows, ""


# ---------------------------------------------------------------- Fig 5 / 6
def _solaris_iozone_grid(scale: str) -> list[tuple[str, tuple, Point]]:
    """The shared Fig 5/6 grid, keyed (series, threads)."""
    ops = _ops(scale, 40, 120)
    grid = []
    for record in (128 * 1024, 1 << 20):
        for design, label in (("rdma-rr", "RR"), ("rdma-rw", "RW")):
            series = f"{label}-{record // 1024}K"
            for threads in _threads(scale):
                grid.append((
                    f"{series}-t{threads}", (series, threads),
                    Point(kind="iozone",
                          cluster={"transport": design, "strategy": "dynamic",
                                   "profile": "solaris-sdr"},
                          params={"nthreads": threads, "record_bytes": record,
                                  "ops_per_thread": ops}),
                ))
    return grid


# ---------------------------------------------------------------- Fig 7 / 9
def _strategy_iozone_grid(scale: str, strategies, profile: str,
                          os_label: str) -> list[tuple[str, tuple, Point]]:
    """Registration strategies on one OS, keyed (series, threads)."""
    ops = _ops(scale, 40, 120)
    grid = []
    for strategy, label in strategies:
        for threads in _threads(scale):
            grid.append((
                f"RW-{label}-t{threads}", (f"RW-{label}-{os_label}", threads),
                Point(kind="iozone",
                      cluster={"transport": "rdma-rw", "strategy": strategy,
                               "profile": profile},
                      params={"nthreads": threads, "record_bytes": 128 * 1024,
                              "ops_per_thread": ops}),
            ))
    return grid


def _bandwidth_and_cpu_row(keys: tuple, r: dict) -> list:
    return [*keys, round(r["read_mb_s"], 1), round(r["write_mb_s"], 1),
            round(r["client_cpu_read"] * 100, 1)]


# ---------------------------------------------------------------- Fig 8
def _fig8_grid(scale: str) -> list[tuple[str, tuple, Point]]:
    """OLTP strategy grid, keyed (strategy label, readers)."""
    readers_list = (10, 50, 100) if scale == "quick" else (10, 25, 50, 100, 150, 200)
    ops = _ops(scale, 4, 8)
    grid = []
    for strategy, label in (("dynamic", "Register"), ("fmr", "FMR"),
                            ("cache", "Cache")):
        for readers in readers_list:
            grid.append((
                f"OLTP-{label}-r{readers}", (label, readers),
                Point(kind="oltp",
                      cluster={"transport": "rdma-rw", "strategy": strategy,
                               "profile": "solaris-sdr"},
                      params={"readers": readers,
                              "writers": max(2, readers // 5),
                              "log_writers": 1, "datafile_bytes": 16 << 20,
                              "ops_per_thread": ops}),
            ))
    return grid


# ---------------------------------------------------------------- Fig 10
#: Fig 10 scaling: the paper used 1 GB files against 4/8 GB of server
#: memory; we keep the cache:file ratios (4x and 8x) at 1/16 scale so
#: the LRU knee lands at the same client count.
FIG10_FILE_BYTES = 64 << 20
FIG10_CACHE_SMALL = 4 * FIG10_FILE_BYTES
FIG10_CACHE_BIG = 8 * FIG10_FILE_BYTES


def _fig10_grid(scale: str, cache_bytes: Optional[int] = None
                ) -> list[tuple[str, tuple, Point]]:
    """Multi-client transport grid, keyed (transport, cache label, clients).

    ``cache_bytes`` runs one server cache size instead of both.
    """
    clients_list = (1, 2, 3, 5, 8) if scale == "quick" else tuple(range(1, 9))
    caches = ([cache_bytes] if cache_bytes is not None
              else [FIG10_CACHE_SMALL, FIG10_CACHE_BIG])
    grid = []
    for cache in caches:
        cache_label = f"{cache / FIG10_FILE_BYTES:.0f}x-file-cache"
        for transport, label in (("rdma-rw", "RDMA"), ("tcp-ipoib", "IPoIB"),
                                 ("tcp-gige", "GigE")):
            strategy = "all-physical" if transport == "rdma-rw" else "dynamic"
            for nclients in clients_list:
                grid.append((
                    f"{label}-{cache_label}-c{nclients}",
                    (label, cache_label, nclients),
                    Point(kind="iozone",
                          cluster={"transport": transport, "strategy": strategy,
                                   "backend": "raid", "cache_bytes": cache,
                                   "nclients": nclients,
                                   "profile": "linux-ddr-raid"},
                          params={"nthreads": 1, "record_bytes": 1 << 20,
                                  "file_bytes": FIG10_FILE_BYTES,
                                  "ops_per_thread": None}),
                ))
    return grid


# ---------------------------------------------------------------- Fig 11
def _fig11_grid(scale: str) -> list[tuple[str, tuple, Point]]:
    """Client-scaling grid, keyed (series label, nclients).

    Three series at each client count: Read-Write RDMA with the shared
    receive pool (SRQ), the same design with classic per-connection
    receive rings, and IPoIB as the non-RDMA baseline.  Every server
    runs the same bounded dispatcher (8 workers, 64-deep run queue) so
    the only variable across the RDMA series is receive-buffer pooling.
    """
    ops = _ops(scale, 4, 8)
    clients_list = (1, 4, 16, 64) if scale == "quick" else (1, 8, 32, 64, 128, 256)
    series = (
        ("RDMA-SRQ", {"transport": "rdma-rw", "srq": True}),
        ("RDMA-conn", {"transport": "rdma-rw"}),
        ("IPoIB", {"transport": "tcp-ipoib"}),
    )
    grid = []
    for label, extra in series:
        for nclients in clients_list:
            grid.append((
                f"{label}-c{nclients}", (label, nclients),
                Point(kind="iozone",
                      cluster={"strategy": "dynamic", "profile": "solaris-sdr",
                               "nclients": nclients, "server_workers": 8,
                               "server_queue_depth": 64, **extra},
                      params={"nthreads": 1, "record_bytes": 64 * 1024,
                              "ops_per_thread": ops}),
            ))
    return grid


FIG11_RECIPE = """\
### Fig 11 recipe (extension: many-client scaling)

Not a paper figure: it projects the Fig 10 story past the 8-node
testbed to ask what the *server* needs to hold per client.  Three
series per client count — the Read-Write design with the shared
receive pool (`ClusterConfig(srq=True)`), the same design with the
seed's per-connection receive rings, and NFS/TCP on IPoIB — each on
the tmpfs backend (64 KB records, 1 thread/mount) behind the same
bounded dispatcher (8 workers, 64-deep run queue), so receive-buffer
pooling is the only variable between the RDMA series.  Regenerate one
point with telemetry: `python -m repro stats --figure fig11 --quick
--point 3` (the SRQ section shows pool occupancy and the low-water
mark).

Registered receive-buffer memory (1 KB inline buffers, credits = 32):

```
clients   per-connection rings       shared pool (SRQ)
          buffers    KB/client       buffers    KB/client
      1        32          32             64         64
      4       128          32             64         16
     16       512          32             64          4
     64      2048          32            128          2
    256      8192          32            256          1
```

Per-connection rings pin `credits x inline_threshold` per mount —
linear, 32 KB/client forever.  The pool sizes as
`max(64, 16*sqrt(n), n)` entries *total*; client credit grants are
clamped to `entries // (demand * nclients)` so the sum of grants never
exceeds the pool and no receive can arrive to an empty SRQ (RNR-free
by construction, asserted in tests/test_srq.py).
"""


# ---------------------------------------------------------------- Fig 12
#: The fig12 mitigation ladder: each step adds one defense layer on top
#: of the previous (lease values in µs, quota in bytes).
FIG12_MITIGATIONS = (
    ("none", {}),
    ("leases", {"lease_timeout_us": 5_000.0}),
    ("hardened", {"lease_timeout_us": 5_000.0,
                  "exposure_quota_bytes": 512 * 1024,
                  "quarantine": True}),
    ("hardened+aes", {"lease_timeout_us": 5_000.0,
                      "exposure_quota_bytes": 512 * 1024,
                      "quarantine": True, "aes_payload": True}),
)


def _fig12_grid(scale: str) -> list[tuple[str, tuple, Point]]:
    """Attack/mitigation grid, keyed (mitigation, design label).

    Each point runs the full §4.1 adversary cast (DONE withholder,
    informed stag guesser, stale-chunk replayer, garbage flooder) as
    long-lived malicious mounts mixed with two legitimate mounts, and
    reports what the attackers achieved next to what the victims paid.
    """
    duration = 30_000.0 if scale == "quick" else 120_000.0
    grid = []
    for mitigation, knobs in FIG12_MITIGATIONS:
        for transport, label in (("rdma-rr", "RR"), ("rdma-rw", "RW")):
            grid.append((
                f"{mitigation}-{label}", (mitigation, label),
                Point(kind="attack",
                      cluster={"transport": transport, "strategy": "dynamic",
                               "profile": "solaris-sdr", "nclients": 2,
                               **knobs},
                      params={"duration_us": duration}),
            ))
    return grid


# ---------------------------------------------------------------- Fig 13
def _fig13_grid(scale: str) -> list[tuple[str, tuple, Point]]:
    """Mount-scaling grid, keyed (series label, mounts).

    Three deployments at each mount count, all on four client hosts
    with small (8-deep) per-connection credit windows so connection
    cost — not bandwidth — is the variable:

    * ``per-conn`` — the paper's architecture: every mount dials its
      own RC QP with private receive rings;
    * ``muxed`` — one server, but mounts share ``ceil(sqrt(lanes))``
      QPs per host (:class:`~repro.ib.mux.QpMux`) riding the server's
      shared receive pool;
    * ``muxed+sharded`` — the same mux with mounts redirected across
      four server shards.
    """
    ops = _ops(scale, 2, 4)
    mounts_list = ((1, 10, 100, 1000) if scale == "quick"
                   else (1, 10, 100, 1000, 10000))
    series = (
        ("per-conn", {}),
        ("muxed", {"mux": True, "srq": True}),
        ("muxed+sharded", {"servers": 4, "mux": True, "srq": True}),
    )
    grid = []
    for label, extra in series:
        for mounts in mounts_list:
            grid.append((
                f"{label}-m{mounts}", (label, mounts),
                Point(kind="iozone",
                      cluster={"transport": "rdma-rw", "strategy": "dynamic",
                               "profile": "solaris-sdr", "nclients": mounts,
                               "server_workers": 8, "server_queue_depth": 64,
                               "client_hosts": 4, "credits": 8, **extra},
                      params={"nthreads": 1, "record_bytes": 64 * 1024,
                              "ops_per_thread": ops}),
            ))
    return grid


# ---------------------------------------------------------------- security
def _security_grid(scale: str) -> list[tuple[str, tuple, Point]]:
    """§4.1 exposure grid, keyed (design,)."""
    return [
        (transport, (transport,),
         Point(kind="security",
               cluster={"transport": transport},
               params={"nthreads": 4, "ops_per_thread": 20}))
        for transport in ("rdma-rr", "rdma-rw")
    ]


# ---------------------------------------------------------------- chaos
def _chaos_rows(scale: str) -> tuple[list, str]:
    from repro.experiments.chaos import run_chaos_soak

    out = run_chaos_soak(scale)
    status = "completed" if out.completed else "DID NOT COMPLETE"
    return out.summary.rows, (
        f"; soak {status}: {out.verified_files} files verified, "
        f"{out.lost_writes} lost writes, "
        f"{out.duplicate_executions} duplicate executions"
    )


CHAOS_RECIPE = """\
### Chaos recipe

The soak builds a 4-client `rdma-rw` cluster on the RAID backend with
`reply_timeout_us=150_000` (above its fault-free WRITE tail, so a
timeout means an injected fault) and arms `FaultPlan.chaos(seed,
duration_us, nclients=4, loss_rate=0.01, qp_kills=3, disk_faults=2)`:
a schedule of QP kills and transient disk errors landing in the middle
80% of the window plus continuous ~1% message loss.  A `FaultPlan` is a frozen
value object — tuples of `MessageLoss(rate, start_us, end_us, node)`,
`DelaySpike(rate, mean_delay_us, ...)`, `QpKill(at_us, client_index)`,
`DiskFault(at_us, count, disk_index)`, `ServerStall(at_us,
duration_us)` and `ServerCrash(at_us, restart_us)` — so a schedule is
printable, diffable and hashable.

Invariants asserted (benchmarks/test_chaos_soak.py):

* the Postmark-style workload completes with **zero** manual repair —
  every recovery is the transport's own redial-and-resend machinery;
* every non-idempotent procedure (CREATE/REMOVE/RENAME) executed
  exactly once per (xid, proc) despite resends across reconnects;
* every acknowledged stable WRITE read back intact;
* the schedule actually bit: >=3 QP kills fired, messages dropped,
  >=2 disk errors hit.

Reproduction: every stochastic draw derives from two integers — the
cluster seed and the plan seed (both default 2007).  Re-running
`repro.experiments.chaos.run_chaos_soak(scale, seed)` replays the
identical run, fault for fault.
"""


# ---------------------------------------------------------------- the table
#: The evaluation's point-grid figures, in paper order.
FIGURES: dict[str, Experiment] = {e.name: e for e in (
    Experiment(
        name="fig5",
        doc="Fig 5: IOzone READ bandwidth, Solaris, Read-Read vs Read-Write.",
        title="Fig 5: IOzone Read Bandwidth on Solaris (RR vs RW)",
        headers=("series", "threads", "read MB/s"),
        paper_reference=(
            "RR saturates ~375 MB/s, RW ~400 MB/s; RW leads by ~47% at 1 "
            "thread/128K shrinking to ~5% at 8 threads; record size barely "
            "matters"
        ),
        grid=_solaris_iozone_grid,
        row=lambda keys, r: [*keys, round(r["read_mb_s"], 1)],
    ),
    Experiment(
        name="fig6",
        doc="Fig 6: IOzone WRITE bandwidth + client CPU, Solaris, RR vs RW.",
        title="Fig 6: IOzone Write Bandwidth on Solaris + client CPU",
        headers=("series", "threads", "write MB/s", "client CPU % (read)"),
        paper_reference=(
            "write paths nearly identical (both RDMA-Read based, bounded by "
            "read serialization); client CPU: RR 4%->24%, RW flat 2%->5%"
        ),
        grid=_solaris_iozone_grid,
        row=lambda keys, r: [*keys, round(r["write_mb_s"], 1),
                             round(r["client_cpu_read"] * 100, 1)],
    ),
    Experiment(
        name="fig7",
        doc="Fig 7: registration strategies on OpenSolaris (read + write).",
        title="Fig 7: IOzone bandwidth by registration strategy (Solaris)",
        headers=("series", "threads", "read MB/s", "write MB/s",
                 "client CPU %"),
        paper_reference=(
            "read: Register ~350, FMR ~400, Cache ~730 MB/s; write: FMR "
            "modest, Cache ~515 MB/s (bounded by RDMA Read serialization)"
        ),
        grid=lambda scale: _strategy_iozone_grid(
            scale,
            (("dynamic", "Register"), ("fmr", "FMR"), ("cache", "Cache")),
            "solaris-sdr", "Solaris"),
        row=_bandwidth_and_cpu_row,
    ),
    Experiment(
        name="fig8",
        doc="Fig 8: FileBench OLTP ops/s and CPU/op by strategy.",
        title="Fig 8: FileBench OLTP performance by strategy",
        headers=("strategy", "readers", "ops/s", "client CPU us/op"),
        paper_reference=(
            "registration cache improves throughput up to ~50% over dynamic "
            "registration; FMR comparable to dynamic; CPU/op slightly higher "
            "for cache"
        ),
        grid=_fig8_grid,
        row=lambda keys, r: [*keys, round(r["ops_per_s"]),
                             round(r["client_cpu_us_per_op"], 1)],
    ),
    Experiment(
        name="fig9",
        doc="Fig 9: registration strategies on Linux (read + write).",
        title="Fig 9: IOzone bandwidth by registration strategy (Linux)",
        headers=("series", "threads", "read MB/s", "write MB/s",
                 "client CPU %"),
        paper_reference=(
            "read: Register < FMR < All-Physical (~900 MB/s peak); write: "
            "All-Physical degrades below FMR (no scatter/gather -> more read "
            "chunks -> IRD/ORD limit)"
        ),
        grid=lambda scale: _strategy_iozone_grid(
            scale,
            (("dynamic", "Register"), ("fmr", "FMR"),
             ("all-physical", "All-Physical")),
            "linux-sdr", "Linux"),
        row=_bandwidth_and_cpu_row,
    ),
    Experiment(
        name="fig10",
        doc="Fig 10: multi-client IOzone READ over RDMA vs IPoIB vs GigE.",
        title="Fig 10: Multi-client IOzone Read (RDMA vs IPoIB vs GigE)",
        headers=("transport", "server cache", "clients",
                 "aggregate read MB/s"),
        paper_reference=(
            "4GB: RDMA peaks 883 MB/s at 3 clients then falls toward spindle "
            "bandwidth; IPoIB ~326; GigE ~107 falling. 8GB: RDMA >900 MB/s "
            "through 7 clients; IPoIB ~360"
        ),
        grid=_fig10_grid,
        row=lambda keys, r: [*keys, round(r["read_mb_s"], 1)],
    ),
    Experiment(
        name="fig11",
        doc="Fig 11: many-client scaling — SRQ vs per-connection receive "
            "pools.",
        title="Fig 11: Client scaling (SRQ vs per-connection pools vs IPoIB)",
        headers=("series", "clients", "aggregate read MB/s", "read p99 us",
                 "server CPU %", "recv KB/client"),
        paper_reference=(
            "projection beyond the paper's 8-client testbed: aggregate "
            "bandwidth holds as clients grow while SRQ keeps registered "
            "receive memory sublinear (per-connection rings grow linearly); "
            "IPoIB saturates far below the RDMA series"
        ),
        grid=_fig11_grid,
        row=lambda keys, r: [
            *keys, round(r["read_mb_s"], 1), round(r["read_p99_us"], 1),
            round(r["server_cpu_read"] * 100, 1),
            round(r["recv_registered_bytes"] / keys[1] / 1024, 1)],
        recipe=FIG11_RECIPE,
    ),
    Experiment(
        name="fig12",
        doc="Fig 12: adversary campaign outcomes across the mitigation "
            "ladder.",
        title="Fig 12: Adversary campaign vs mitigation ladder (RR/RW)",
        headers=("mitigation", "design", "legit MB/s", "legit p99 us",
                 "pinned peak KB", "pinned end KB", "guess hits",
                 "replay hits", "malformed", "leased KB", "evicted KB",
                 "quarantined", "refused", "server CPU %"),
        paper_reference=(
            "RR without mitigation: withheld DONEs pin server buffers "
            "without bound and an informed stag guesser can hit; leases "
            "bound the pinned bytes, quota+quarantine evict the attackers, "
            "AES adds integrity at measurable CPU cost. RW is flat across "
            "the ladder — no server stags exist to attack (§4.2)"
        ),
        grid=_fig12_grid,
        row=lambda keys, r: [
            *keys, round(r["legit_read_mb_s"], 1), round(r["legit_p99_us"], 1),
            r["pinned_peak_bytes"] // 1024, r["pinned_final_bytes"] // 1024,
            r["guess_hits"], r["replay_hits"], r["malformed_wrs"],
            r["lease_reclaimed_bytes"] // 1024,
            r["quota_evicted_bytes"] // 1024,
            r["quarantined"], r["redials_refused"],
            round(r["server_cpu"] * 100, 1)],
    ),
    Experiment(
        name="fig13",
        doc="Fig 13: mount scaling — per-connection QPs vs mux vs "
            "mux+shards.",
        title="Fig 13: Mount scaling (per-conn vs QP mux vs mux+shards)",
        headers=("series", "mounts", "aggregate read MB/s", "read p99 us",
                 "total QPs", "recv registered KB"),
        paper_reference=(
            "projection beyond the paper: per-connection QP count and "
            "registered receive memory grow linearly with mounts while the "
            "muxed deployments stay O(sqrt(N)); sharding holds p99 flat "
            "where a single muxed server saturates; aggregate bandwidth "
            "matches per-connection at low mount counts"
        ),
        grid=_fig13_grid,
        row=lambda keys, r: [
            *keys, round(r["read_mb_s"], 1), round(r["read_p99_us"], 1),
            r["qp_total"], round(r["recv_registered_bytes"] / 1024, 1)],
    ),
)}

#: Every experiment ``repro run`` knows, in ``repro list`` order.
EXPERIMENTS: dict[str, Experiment] = {e.name: e for e in (
    Experiment(
        name="table1",
        doc="Table 1: communication-primitive properties, probed live.",
        title="Table 1: Communication Primitive Properties",
        headers=("primitive", "recv buffer exposed", "recv pre-posted",
                 "steering tag", "rendezvous"),
        paper_reference=(
            "channel: only pre-posted; memory: exposed + steering tag + "
            "rendezvous (Table 1)"
        ),
        measure=_primitive_rows,
    ),
    *FIGURES.values(),
    Experiment(
        name="security",
        doc="§4.1 exposure comparison: attack surface of RR vs RW under "
            "load.",
        title="Security audit (§4.1): server attack surface under IOzone",
        headers=("design", "server stags exposed (ever)", "exposed now",
                 "pending DONE", "protection faults"),
        paper_reference=(
            "Read-Read exposes a server window per bulk reply and depends on "
            "client DONEs; Read-Write exposes zero server stags, ever"
        ),
        grid=_security_grid,
        row=lambda keys, r: [
            *keys, r["stags_exposed_ever"], r["exposed_regions_now"],
            r["pending_done_ops"], r["protection_faults"]],
    ),
    Experiment(
        name="chaos",
        doc="Chaos soak: recovery counters from a faulted multi-client run.",
        title="Chaos soak: recovery summary",
        headers=("where", "counter", "events"),
        paper_reference=(
            "robustness extension: exactly-once resend semantics and "
            "self-healing mounts (not measured in the paper)"
        ),
        measure=_chaos_rows,
        recipe=CHAOS_RECIPE,
    ),
)}
