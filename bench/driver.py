"""Closed-loop load driver for the repository benchmark.

Every workload is a deployment, built through ``repro.api.connect``,
plus a load shape that mirrors one of the repository's workload
drivers op for op:

* :class:`IozoneLoad` follows ``repro.workloads.run_iozone``.  Every
  thread owns a file and writes it sequentially.  All files are then
  COMMITted, and every thread reads its file back.  The phases are
  barriered, and RDMA mounts use direct I/O from a fresh arena buffer
  per thread and phase.
* :class:`OltpLoad` follows ``repro.workloads.run_oltp``: random readers
  and writers on one primed datafile, plus stable log appenders.

The benchmark draws every input from the seed; the program only
receives the generated ops.  The seed sets each iozone thread's file
length, the think time a thread spends between two of its ops, the
OLTP sizes and offsets, and which reads get their bytes checked.  With
``extra_records=0`` and ``think_us=0`` an iozone load issues exactly
``run_iozone``'s ops in the same order, and ``test_bench.py`` checks
that the simulated bandwidths match bit for bit.

Every byte written is ``PATTERN`` tiled from a 4 KB-aligned offset.
That includes the OLTP datafile's priming stride.  So byte ``p`` of any
data file reads ``p % 256``, and a read's expected content is known
without consulting the program.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Union

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.analysis import LINUX_DDR_RAID, SOLARIS_SDR  # noqa: E402
from repro.api import (  # noqa: E402
    ClusterConfig,
    Deployment,
    NfsStatusError,
    TopologyConfig,
    TransportError,
    connect,
)
from repro.payload import Payload  # noqa: E402
from repro.security import audit_server_exposure  # noqa: E402
from repro.sim import AllOf  # noqa: E402

PATTERN = bytes(range(256))
#: one read in this many (seeded) has its bytes compared to the pattern.
CHECK_ONE_IN = 64
#: simulated µs run after the measured phase, so in-flight completions
#: (deregistrations, RDMA_DONEs, server-side counters) settle before
#: the exposure audit and the registry are read.
DRAIN_US = 100_000.0


@dataclass(frozen=True)
class IozoneLoad:
    """``run_iozone`` with ``direct_io=True`` and unstable writes."""

    threads: int            # per mount
    record_bytes: int
    records: int            # per thread and phase (the file length)
    #: the seed adds 0..extra_records records, each to a random thread.
    extra_records: int = 0
    think_us: float = 0.0   # mean of the exponential pause between ops


@dataclass(frozen=True)
class OltpLoad:
    """``run_oltp``'s FileBench OLTP personality."""

    readers: int
    writers: int
    log_writers: int
    ops_per_thread: int
    mean_io_bytes: int = 128 * 1024
    datafile_bytes: int = 64 << 20
    log_append_bytes: int = 16 * 1024


Config = Union[ClusterConfig, TopologyConfig]


@dataclass(frozen=True)
class Workload:
    name: str
    #: deployment factory; the argument switches telemetry on.
    config: Callable[[bool], Config]
    load: Union[IozoneLoad, OltpLoad]


def _mux_shard_1k(telemetry: bool) -> TopologyConfig:
    """fig13's ``muxed+sharded`` point at 1000 mounts."""
    return TopologyConfig(
        servers=4, mux=True, client_hosts=4, credits=8,
        cluster=ClusterConfig.rdma_rw(
            strategy="dynamic", profile=SOLARIS_SDR, nclients=1000,
            server_workers=8, server_queue_depth=64, srq=True,
            telemetry=telemetry))


#: The workloads, in run order.  BENCHMARK.json says why each exists.
WORKLOADS = {w.name: w for w in (
    Workload(
        "rw-iozone",
        lambda telemetry: ClusterConfig.rdma_rw(
            strategy="dynamic", profile=SOLARIS_SDR, telemetry=telemetry),
        IozoneLoad(threads=8, record_bytes=128 * 1024, records=128,
                   extra_records=16, think_us=20.0)),
    Workload(
        "rr-iozone",
        lambda telemetry: ClusterConfig.rdma_rr(
            strategy="dynamic", profile=SOLARIS_SDR, telemetry=telemetry),
        IozoneLoad(threads=8, record_bytes=128 * 1024, records=128,
                   extra_records=16, think_us=20.0)),
    Workload(
        "oltp-regcache",
        lambda telemetry: ClusterConfig.rdma_rw(
            strategy="cache", profile=SOLARIS_SDR, telemetry=telemetry),
        OltpLoad(readers=100, writers=20, log_writers=1, ops_per_thread=50)),
    Workload(
        "tcp-raid-thrash",
        # 8 files of about 130 MB through a 576 MB page cache.  The
        # working set is 1.8x the cache, so sequential re-reads always
        # miss, yet more than half the writes land before the cache
        # fills: the median write is not pinned to the disk-throttled
        # steady state.
        lambda telemetry: ClusterConfig.tcp(
            "ipoib", strategy="dynamic", backend="raid", nclients=8,
            cache_bytes=576 << 20, profile=LINUX_DDR_RAID,
            telemetry=telemetry),
        IozoneLoad(threads=1, record_bytes=1 << 20, records=130,
                   extra_records=8, think_us=20.0)),
    Workload(
        "mux-shard-1k",
        _mux_shard_1k,
        IozoneLoad(threads=1, record_bytes=64 * 1024, records=2,
                   extra_records=16, think_us=20.0)),
)}


@dataclass
class Prepared:
    """A built deployment with its files created (the set-up phase)."""

    workload: Workload
    deployment: Deployment
    #: iozone: ``[(mount, fh), ...]`` per thread; oltp: ``(data, log)``.
    files: object


@dataclass
class Outcome:
    """What one measured phase did, in simulated time."""

    latencies: dict = field(default_factory=lambda: {"read": [], "write": []})
    nbytes: dict = field(default_factory=lambda: {"read": 0, "write": 0})
    first_issue: dict = field(default_factory=dict)
    last_reply: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)
    checked: int = 0
    client_busy_us: float = 0.0
    server_busy_us: float = 0.0
    events: int = 0

    @property
    def completed(self) -> int:
        return len(self.latencies["read"]) + len(self.latencies["write"])

    def mb_s(self, kind: str) -> float:
        """Bytes over the span from the first issue to the last reply."""
        span = self.last_reply[kind] - self.first_issue[kind]
        return self.nbytes[kind] / span

    def sim_metrics(self) -> dict:
        """The simulated end-to-end metrics (deterministic per seed)."""
        out = {}
        for kind in ("read", "write"):
            p50, p99 = np.percentile(self.latencies[kind], [50, 99])
            out[f"sim_{kind}_mb_s"] = self.mb_s(kind)
            out[f"sim_{kind}_p50_us"] = float(p50)
            out[f"sim_{kind}_p99_us"] = float(p99)
        out["sim_server_cpu_us_per_op"] = self.server_busy_us / self.completed
        out["sim_client_cpu_us_per_op"] = self.client_busy_us / self.completed
        return out


def expected_bytes(offset: int, count: int) -> bytes:
    """What ``count`` bytes at ``offset`` of any data file must read."""
    start = offset % len(PATTERN)
    reps = (start + count) // len(PATTERN) + 1
    return (PATTERN * reps)[start:start + count]


class _Tally:
    """Times and checks each op of one measured phase.

    ``on_op`` (host side, between sim events) runs after every op; it
    must not touch the simulation.
    """

    def __init__(self, sim, outcome: Outcome, on_op=None):
        self.sim = sim
        self.outcome = outcome
        self.on_op = on_op or (lambda: None)

    def op(self, kind: str, nbytes: int, call):
        """Run one NFS call; returns its result, or None if it failed."""
        out = self.outcome
        issued = self.sim.now
        out.first_issue.setdefault(kind, issued)
        out.attempted += 1
        try:
            result = yield from call
        except (NfsStatusError, TransportError) as exc:
            out.failures.append(f"{kind}: {exc!r}")
            return None
        finally:
            self.on_op()
        out.latencies[kind].append(self.sim.now - issued)
        out.last_reply[kind] = self.sim.now
        out.nbytes[kind] += nbytes
        return result

    def read(self, nfs, fh, offset: int, count: int, buf, check: bool):
        result = yield from self.op(
            "read", count, nfs.read(fh, offset, count, read_buffer=buf))
        if result is None:
            return
        data = result[0]
        if len(data) != count:
            self.outcome.failures.append(
                f"read: short read {len(data)} != {count} at {offset}")
        elif check:
            self.outcome.checked += 1
            if bytes(data) != expected_bytes(offset, count):
                self.outcome.failures.append(
                    f"read: content mismatch at offset {offset}")


def _rng(seed: int, *parts) -> random.Random:
    """An input stream of its own for each thread and purpose."""
    return random.Random("/".join(map(str, (seed, *parts))))


def server_nodes(cluster) -> list:
    return getattr(cluster, "server_nodes", None) or [cluster.server_node]


def setup(workload: Workload, telemetry: bool = False) -> Prepared:
    """Build the deployment and create (and prime) its files."""
    dep = connect(workload.config(telemetry))
    load = workload.load
    if isinstance(load, IozoneLoad):
        def create_all():
            handles = []
            for m, mount in enumerate(dep.mounts):
                for t in range(load.threads):
                    fh, _ = yield from mount.nfs.create(
                        mount.nfs.root, f"iozone.m{m}.t{t}")
                    handles.append((mount, fh))
            return handles
    else:
        def create_all():
            nfs = dep.mounts[0].nfs
            data_fh, _ = yield from nfs.create(nfs.root, "oltp.datafile")
            stride = 1 << 20
            block = Payload.tile(PATTERN, stride)
            for pos in range(0, load.datafile_bytes, stride):
                yield from nfs.write(data_fh, pos, block)
            log_fh, _ = yield from nfs.create(nfs.root, "oltp.log")
            return data_fh, log_fh
    return Prepared(workload, dep, dep.run(create_all()))


def run(prepared: Prepared, seed: int, on_op=None) -> Outcome:
    """The measured phase: drive the load to completion.

    ``on_op``, if given, is called on the host after every op.
    """
    dep = prepared.deployment
    cluster = dep.cluster
    outcome = Outcome()
    clients = cluster.client_nodes
    servers = server_nodes(cluster)
    client0 = sum(n.cpu.busy_us_total for n in clients)
    server0 = sum(n.cpu.busy_us_total for n in servers)
    events0 = dep.sim.steps
    tally = _Tally(dep.sim, outcome, on_op)
    if isinstance(prepared.workload.load, IozoneLoad):
        _run_iozone(prepared, seed, tally)
    else:
        _run_oltp(prepared, seed, tally)
    outcome.client_busy_us = sum(n.cpu.busy_us_total for n in clients) - client0
    outcome.server_busy_us = sum(n.cpu.busy_us_total for n in servers) - server0
    outcome.events = dep.sim.steps - events0
    return outcome


def _run_iozone(prepared: Prepared, seed: int, tally: _Tally) -> None:
    dep = prepared.deployment
    sim = dep.sim
    load = prepared.workload.load
    name = prepared.workload.name
    rec = load.record_bytes
    payload = Payload.tile(PATTERN, rec)
    rdma = dep.config.is_rdma
    lengths = _rng(seed, name, "records")
    records = [load.records] * len(prepared.files)
    for _ in range(lengths.randint(0, load.extra_records)):
        records[lengths.randrange(len(records))] += 1

    def io_thread(index: int, mount, fh, phase: str):
        nfs = mount.nfs
        think = _rng(seed, name, phase, index)
        check = _rng(seed, name, "check", index)
        buf = mount.node.arena.alloc(rec) if rdma else None
        for i in range(records[index]):
            if i and load.think_us:
                yield sim.timeout(think.expovariate(1.0 / load.think_us))
            offset = i * rec
            if phase == "write":
                if buf is not None:
                    buf.fill(payload)
                yield from tally.op("write", rec, nfs.write(
                    fh, offset, payload, write_buffer=buf))
            else:
                yield from tally.read(nfs, fh, offset, rec, buf,
                                      check.randrange(CHECK_ONE_IN) == 0)

    def phase(label: str):
        procs = [sim.process(io_thread(i, mount, fh, label),
                             name=f"iozone.{label}")
                 for i, (mount, fh) in enumerate(prepared.files)]
        yield AllOf(sim, procs)

    def sync_all():
        for mount, fh in prepared.files:
            yield from mount.nfs.commit(fh)

    dep.run(phase("write"))
    dep.run(sync_all())
    dep.run(phase("read"))


def _io_size(rng: random.Random, mean: int) -> int:
    """``run_oltp``'s size law, capped at the reader's 4x-mean buffer."""
    size = int(rng.expovariate(1.0 / (mean * 0.35)) + mean * 0.65)
    return min(4 * mean, max(4096, (size // 4096) * 4096))


def _run_oltp(prepared: Prepared, seed: int, tally: _Tally) -> None:
    dep = prepared.deployment
    sim = dep.sim
    load = prepared.workload.load
    name = prepared.workload.name
    mount = dep.mounts[0]
    nfs = mount.nfs
    data_fh, log_fh = prepared.files
    max_off = load.datafile_bytes

    def offset_for(rng: random.Random, size: int) -> int:
        return rng.randrange(max(1, (max_off - size) // 4096)) * 4096

    def reader(tid: int):
        rng = _rng(seed, name, "r", tid)
        check = _rng(seed, name, "check", tid)
        buf = (mount.node.arena.alloc(load.mean_io_bytes * 4)
               if dep.config.is_rdma else None)
        for _ in range(load.ops_per_thread):
            size = _io_size(rng, load.mean_io_bytes)
            yield from tally.read(nfs, data_fh, offset_for(rng, size), size,
                                  buf, check.randrange(CHECK_ONE_IN) == 0)

    def writer(tid: int):
        rng = _rng(seed, name, "w", tid)
        for _ in range(load.ops_per_thread):
            size = _io_size(rng, load.mean_io_bytes)
            yield from tally.op("write", size, nfs.write(
                data_fh, offset_for(rng, size), Payload.tile(PATTERN, size)))

    def log_writer(tid: int):
        record = Payload.zeros(load.log_append_bytes)
        for i in range(load.ops_per_thread):
            yield from tally.op("write", load.log_append_bytes, nfs.write(
                log_fh, i * load.log_append_bytes, record, stable=True))

    procs = (
        [sim.process(reader(i), name=f"oltp.r{i}") for i in range(load.readers)]
        + [sim.process(writer(i), name=f"oltp.w{i}")
           for i in range(load.writers)]
        + [sim.process(log_writer(i), name=f"oltp.l{i}")
           for i in range(load.log_writers)]
    )

    def barrier():
        yield AllOf(sim, procs)

    dep.run(barrier())


def finish(prepared: Prepared) -> dict:
    """Drain in-flight work, then audit what the server exposed."""
    dep = prepared.deployment
    cluster = dep.cluster
    dep.sim.run(until=dep.sim.now + DRAIN_US)
    audit = audit_server_exposure(server_nodes(cluster),
                                  cluster.server_transports)
    return {
        "stags_exposed": audit["stags_exposed_ever"],
        "server_registered_kb": cluster.server_recv_buffer_bytes() / 1024,
    }
