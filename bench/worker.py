"""One workload in one fresh process: the measurement behind ``run.py``.

    python3 bench/worker.py --workload NAME --seed S --seconds T --trace 0|1

``run.py`` starts this with ``REPRO_SIM_CORE=c``, so a broken build of
the compiled core fails the import; the worker also refuses to run on
any other core.  It prints one JSON object (the full result) as its last
line of standard output.

Untraced, it repeats rounds until ``--seconds`` have passed (at least
``MIN_ROUNDS``).  A round builds the deployment and its files (set-up),
then drives the load (the measured phase).  Every round gets the same
inputs, so every round must report the same simulated metrics.  Host
times are medians over rounds, in reference seconds (see
``SpeedGauge``).  The first round is a warm-up and is left out of
them.  More set-ups are run until there are at least ``MIN_SETUPS``
warm samples.

With ``--trace 1`` it then runs one more round with telemetry on, under
cProfile, and reports the per-layer metrics.  That round's simulated
metrics must equal the untraced ones, because telemetry is timing-inert.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import json
import pstats
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import driver  # first: puts the checkout's src/ on sys.path
import layers
import repro
from repro.sim import engine
from repro.telemetry.nfsstat import stats_dict

#: the first round is a warm-up; at least this many more are measured.
MIN_ROUNDS = 4
MIN_SETUPS = 5
#: cheap set-ups are sampled until this much set-up time is covered.
SETUP_SAMPLE_S = 0.5
MAX_SETUPS = 50


class Probe:
    """A fixed pure-python event loop, timed to gauge the host's speed.

    It does what the simulator does (generators, a heap of slotted
    events) over a 64K-node arena walked in a random cycle, so it pays
    for cache misses the way the simulator's object graph does.  It runs
    none of the program's code.
    """

    class _Node:
        __slots__ = ("next", "visits")

        def __init__(self, nxt: int):
            self.next = nxt
            self.visits = 0

    def __init__(self, nodes: int = 1 << 16):
        order = list(range(nodes))
        random.Random(nodes).shuffle(order)
        self.nodes = [None] * nodes
        for here, there in zip(order, order[1:] + order[:1]):
            self.nodes[here] = self._Node(there)

    def __call__(self, steps: int) -> None:
        nodes = self.nodes

        class Event:
            __slots__ = ("when", "seq", "gen")

            def __init__(self, when, seq, gen):
                self.when, self.seq, self.gen = when, seq, gen

            def __lt__(self, other):
                return (self.when, self.seq) < (other.when, other.seq)

        def process(cursor):
            while True:
                node = nodes[cursor]
                node.visits += 1
                cursor = node.next
                yield cursor % 97 + 1

        queue = [Event(0, i, process(i * 1021 % len(nodes)))
                 for i in range(64)]
        heapq.heapify(queue)
        for seq in range(64, 64 + steps):
            event = heapq.heappop(queue)
            heapq.heappush(queue, Event(event.when + next(event.gen), seq,
                                        event.gen))


class SpeedGauge:
    """Samples the host's speed, to report host times in reference seconds.

    On a host whose cores are shared with other tenants, core speed can
    swing by 1.8x within seconds.  On a 2-core shared VM, one run saw a
    fixed ``rr-iozone`` round take from 1.1 to 1.7 s.  The gauge times a
    :class:`Probe`, which slows down with the host but not with the
    program.  It samples before and after a timed region and, through
    the driver's ``on_op`` hook, every ``interval_s`` inside it.
    :meth:`reference` scales a raw host time by the probe's time on the
    host the bounds were measured on, over its mean time across the
    samples.  Probe time spent inside a timed region is taken out of it
    by the caller, using ``spent``.
    """

    STEPS = 1000
    REFERENCE_S = 0.002

    def __init__(self, probe: Probe, interval_s: float = 0.05):
        self.probe = probe
        self.interval_s = interval_s
        self.spent = 0.0
        self.samples = 0
        self._last = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        self.probe(self.STEPS)
        self._last = time.perf_counter()
        self.spent += self._last - start
        self.samples += 1

    def tick(self) -> None:
        if time.perf_counter() - self._last >= self.interval_s:
            self.sample()

    def reference(self, raw_s: float) -> float:
        return raw_s * self.REFERENCE_S * self.samples / self.spent


def measure(workload, seed: int, seconds: float, probe: Probe) -> dict:
    setups, walls, raw_walls, probes, sims, finals = [], [], [], [], [], []
    attempted = checked = events = 0
    failures: list = []
    start = time.perf_counter()
    while len(walls) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        gc.collect()
        gauge = SpeedGauge(probe)
        gauge.sample()
        t0 = time.perf_counter()
        prepared = driver.setup(workload)
        t1 = time.perf_counter()
        spent = gauge.spent
        outcome = driver.run(prepared, seed, on_op=gauge.tick)
        t2 = time.perf_counter()
        run_s = t2 - t1 - (gauge.spent - spent)
        finals.append(driver.finish(prepared))
        del prepared
        gauge.sample()
        setups.append(gauge.reference(t1 - t0))
        walls.append(gauge.reference(run_s))
        raw_walls.append(run_s)
        probes.append(gauge.spent / gauge.samples)
        sims.append(outcome.sim_metrics())
        attempted += outcome.attempted
        checked += outcome.checked
        failures += outcome.failures
        events = outcome.events
    warm = setups[1:]
    gauge = SpeedGauge(probe)
    extra = []
    while len(warm) + len(extra) < MIN_SETUPS or (
            sum(warm) + sum(extra) < SETUP_SAMPLE_S
            and len(warm) + len(extra) < MAX_SETUPS):
        gc.collect()
        gauge.sample()
        t0 = time.perf_counter()
        driver.setup(workload)
        extra.append(time.perf_counter() - t0)
    if extra:
        gauge.sample()
        warm += [gauge.reference(s) for s in extra]
    return {
        "rounds": len(walls),
        "wall_s_rounds": walls,
        "raw_wall_s_rounds": raw_walls,
        "probe_s_rounds": probes,
        "setup_s_samples": warm,
        "wall_s": statistics.median(walls[1:]),
        "setup_s": statistics.median(warm),
        "sim": sims[0],
        "sim_identical": all(s == sims[0] for s in sims)
                         and all(f == finals[0] for f in finals),
        "final": finals[0],
        "samples": {kind: len(outcome.latencies[kind])
                    for kind in ("read", "write")},
        "events": events,
        "attempted": attempted,
        "checked": checked,
        "failures": failures,
    }


def traced(workload, seed: int, probe: Probe) -> dict:
    """One round with telemetry on, profiled; returns the raw layers."""
    gc.collect()
    gauge = SpeedGauge(probe)
    gauge.sample()
    profile = cProfile.Profile()
    t0 = time.perf_counter()
    profile.enable()
    prepared = driver.setup(workload, telemetry=True)
    profile.disable()
    setup_s = time.perf_counter() - t0

    cluster = prepared.deployment.cluster
    tracer = cluster.telemetry.tracer
    samples_before = stats_dict(cluster)["samples"]
    first_span = len(tracer.spans)

    t1 = time.perf_counter()
    profile.enable()
    outcome = driver.run(prepared, seed)
    profile.disable()
    wall_s = time.perf_counter() - t1

    spans = tracer.spans[first_span:]
    profile.enable()
    final = driver.finish(prepared)
    profile.disable()
    gauge.sample()
    samples_after = stats_dict(cluster)["samples"]
    client_ops = sum(1 for s in spans if s.cat == "client")
    families = layers.fold_spans(spans, cluster.sim.now)
    root = str(Path(repro.__file__).resolve().parent)
    return {
        "setup_s": gauge.reference(setup_s),
        "wall_s": gauge.reference(wall_s),
        "sim": outcome.sim_metrics(),
        "final": final,
        "host": layers.host_layers(pstats.Stats(profile).stats, root),
        "families": {f: t / client_ops for f, t in families.items()},
        "counters": layers.counters(
            samples_before, samples_after,
            mounts={m.nfs.name for m in prepared.deployment.mounts},
            server_nodes={n.name for n in driver.server_nodes(cluster)},
            client_ops=client_ops),
        "failures": outcome.failures,
        "attempted": outcome.attempted,
    }


def end_to_end(m: dict) -> dict:
    return {
        "wall_s": m["wall_s"],
        "setup_s": m["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **m["sim"],
    }


def per_layer(m: dict, t: dict) -> dict:
    out = {}
    for layer, (self_s, calls) in t["host"].items():
        out[f"host.{layer}.self_s"] = self_s
        out[f"host.{layer}.calls"] = calls
    out["host.trace_overhead_x"] = ((t["setup_s"] + t["wall_s"])
                                    / (m["setup_s"] + m["wall_s"]))
    out["sim.events"] = m["events"]
    out["sim.events_per_s"] = m["events"] / m["wall_s"]
    out.update(t["families"])
    out.update(t["counters"])
    out["sim.stags_exposed"] = m["final"]["stags_exposed"]
    out["sim.server_registered_kb"] = m["final"]["server_registered_kb"]
    return out


def violations(workload, m: dict, t) -> list:
    """Every correctness failure of the run, as readable lines."""
    found = [f"failed op: {f}" for f in m["failures"][:10]]
    if len(m["failures"]) > 10:
        found.append(f"... {len(m['failures']) - 10} more failed ops")
    if not m["sim_identical"]:
        found.append("rounds with the same inputs reported different "
                     "simulated metrics")
    if m["checked"] == 0:
        found.append("no read had its content checked")
    config = workload.config(False)
    transport = getattr(config, "cluster", config).transport
    if transport == "rdma-rw" and m["final"]["stags_exposed"]:
        found.append("Read-Write exposed server steering tags")
    if t is not None:
        found += [f"failed op (traced): {f}" for f in t["failures"][:10]]
        if t["sim"] != m["sim"]:
            found.append("telemetry changed the simulated metrics: "
                         f"{t['sim']} != {m['sim']}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if engine.ACTIVE_CORE != "c":
        print("worker: the compiled sim core did not load", file=sys.stderr)
        return 2
    workload = driver.WORKLOADS[args.workload]
    probe = Probe()
    m = measure(workload, args.seed, args.seconds, probe)
    t = traced(workload, args.seed, probe) if args.trace else None
    metrics = per_layer(m, t) if t is not None else end_to_end(m)
    found = violations(workload, m, t)
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": not found,
        "violations": found,
        "attempted": m["attempted"] + (t["attempted"] if t else 0),
        "failed": len(m["failures"]) + (len(t["failures"]) if t else 0),
        "metrics": metrics,
        "detail": {key: m[key] for key in (
            "rounds", "wall_s_rounds", "raw_wall_s_rounds", "probe_s_rounds",
            "setup_s_samples", "samples", "checked", "sim", "final")},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
