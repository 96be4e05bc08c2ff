"""``Resource.hold``, the timed claim, under both simulation cores.

The pure-python core's ``Resource.hold`` is a generator; the compiled
core's is a C iterator.  Each case below runs in a fresh subprocess per
core (``REPRO_SIM_CORE`` selects the core at import; set in this test's
own environment, it narrows the run to that core) and reports JSON:

* a contended schedule (two-core CPU with priorities, a wire with a
  partner resource and chunk delays, same-instant ties) traced by time,
  order, meter area and busy total, once through ``hold`` and once
  through the request/timeout/release pattern written out by hand;
* a throw while waiting (queued, and granted but not yet resumed),
  while waiting for the partner, and while holding;
* ``close`` before start, while holding and while queued;
* zero and negative delays, and an empty chunk list;
* garbage: a run of holds frees everything by reference counting, and
  a simulation dropped with holds still pending is collected whole.
"""

import functools

import pytest

from tests._cores import CORES, _cengine_available, run_json

SNIPPET = """
import gc, json
from repro.sim import (Counter, Interrupt, Resource, SimulationError,
                       Simulator, UtilizationMeter)
from repro.sim.engine import ACTIVE_CORE

assert ACTIVE_CORE == {core!r}, ACTIVE_CORE
#: every simulator stays referenced until the garbage check has run:
#: its ``active_process`` points back at it, a cycle the model keeps
KEEP = []


def by_hand(res, delay, priority=0, meters=(), partner=None, busy=None):
    # The pattern hold replaces, written out as model code had it.
    sim = res.sim
    for d in (delay if isinstance(delay, (list, tuple)) else (delay,)):
        req = res.request(priority)
        yield req
        if partner is not None:
            preq = partner.request(priority)
            yield preq
        for meter in meters:
            meter.acquire()
        try:
            yield sim.timeout(d)
        finally:
            for meter in meters:
                meter.release()
            if partner is not None:
                partner.release(preq)
            res.release(req)
        if busy is not None:
            busy.add(d)


def contended(claim):
    sim = Simulator()
    KEEP.append(sim)
    cores = Resource(sim, 2, "cores")
    tx, rx = Resource(sim, 1, "tx"), Resource(sim, 1, "rx")
    cpu = UtilizationMeter(sim, 2.0, "cpu")
    txm, rxm = UtilizationMeter(sim, 1.0, "tx"), UtilizationMeter(sim, 1.0, "rx")
    busy = Counter("busy")
    trace = []

    def worker(i):
        yield sim.timeout(0.0 if i % 3 else 1.5)      # same-instant ties
        trace.append([sim.now, "start", i])
        yield from claim(cores, 1.25 + (i % 4) * 0.5, -(i % 2), (cpu,), None, busy)
        trace.append([sim.now, "cpu", i, busy.value])
        yield from claim(tx, [0.75, 0.75, 0.3][: 1 + i % 3], 0, (txm, rxm), rx)
        trace.append([sim.now, "wire", i])

    def receiver(i):                                  # contends for rx alone
        yield sim.timeout(0.5 * i)
        yield from claim(rx, 1.0, 0, (rxm,))
        trace.append([sim.now, "rx", i])

    for i in range(9):
        sim.process(worker(i))
    for i in range(3):
        sim.process(receiver(i))
    sim.run()
    return {{"trace": trace, "steps": sim.steps, "now": sim.now,
                 "areas": [cpu.busy_time(), txm.busy_time(), rxm.busy_time()],
                 "busy": [busy.value, busy.events]}}


def throws():
    sim = Simulator()
    KEEP.append(sim)
    res, partner = Resource(sim, 1, "res"), Resource(sim, 1, "partner")
    meter, busy = UtilizationMeter(sim, 1.0, "m"), Counter("busy")
    log = []

    def holder(r, d):
        yield from r.hold(d)

    def victim(name, *args):
        try:
            yield from res.hold(*args)
            log.append([sim.now, name, "finished"])
        except Interrupt as exc:
            log.append([sim.now, name, exc.cause, res.count,
                        partner.count, meter._level, busy.value])

    def claimant(name, r, at):
        yield sim.timeout(at - sim.now)
        yield from r.hold(1.0)
        log.append([sim.now, name, "granted+held"])

    def interrupt(proc, at, extra_step=False):
        yield sim.timeout(at - sim.now)
        if extra_step:          # land after a same-instant grant
            yield sim.timeout(0.0)
        proc.interrupt(proc.name)

    # 1. queued behind a 10 us holder, interrupted at 2: its claim is
    #    withdrawn, so a claimant arriving at 3 gets the unit at 10.
    sim.process(holder(res, 10.0))
    v = sim.process(victim("queued", 5.0), name="queued")
    sim.process(claimant("after-queued", res, 3.0))
    sim.process(interrupt(v, 2.0))
    sim.run()
    # 2. granted when the holder lets go at 21, interrupted before it
    #    resumed: the grant goes back, to the claimant queued since 14.
    sim.process(holder(res, 10.0))
    v = sim.process(victim("granted", 5.0), name="granted")
    sim.process(claimant("after-granted", res, sim.now + 3.0))
    sim.process(interrupt(v, sim.now + 10.0, extra_step=True))
    sim.run()
    # 3. unit held, waiting for the partner: both claims go back.
    sim.process(holder(partner, 10.0))
    v = sim.process(victim("partner", 5.0, 0, (meter,), partner, busy),
                    name="partner")
    sim.process(claimant("res-after-partner", res, sim.now + 3.0))
    sim.process(claimant("partner-after-partner", partner, sim.now + 3.0))
    sim.process(interrupt(v, sim.now + 2.0))
    sim.run()
    # 4. holding: meters, partner and unit go back; busy is not charged.
    v = sim.process(victim("holding", 5.0, 0, (meter,), partner, busy),
                    name="holding")
    sim.process(claimant("res-after-holding", res, sim.now + 1.0))
    sim.process(interrupt(v, sim.now + 2.0))
    sim.run()
    return {{"log": log, "end": [res.count, partner.count, meter._level,
                                busy.value, sim.now, sim.steps]}}


def closes():
    sim = Simulator()
    KEEP.append(sim)
    res = Resource(sim, 1, "res")
    meter, busy = UtilizationMeter(sim, 1.0, "m"), Counter("busy")
    out = []

    def proc():
        h = res.hold(4.0, 0, (meter,), None, busy)
        yield h.send(None)                  # the request, granted
        h.send(res)                         # meters acquired, timer made
        out.append(["holding", res.count, meter._level])
        h.close()
        out.append(["closed", res.count, meter._level, busy.value])
        try:
            h.send(None)
        except StopIteration:
            out.append("exhausted")
        unstarted = res.hold(1.0)
        unstarted.close()
        out.append(["unstarted", list(unstarted), res.count])
        blocker = res.request()
        yield blocker
        queued = res.hold(1.0)
        req = queued.send(None)
        out.append(["queued", req.triggered, res.queue_length])
        queued.close()
        out.append(["cancelled", req.triggered, req.ok])
        res.release(blocker)
        out.append(["released", res.count])

    sim.process(proc())
    sim.run()
    out.append([sim.now, sim.steps])
    return out


def delays():
    sim = Simulator()
    res = Resource(sim, 1, "res")
    meter, busy = UtilizationMeter(sim, 1.0, "m"), Counter("busy")
    out = []

    def proc():
        yield from res.hold(0.0, 0, (meter,), None, busy)
        out.append(["zero", sim.now, sim.steps, busy.value, busy.events])
        try:
            yield from res.hold(-1.0, 0, (meter,), None, busy)
        except SimulationError as exc:
            out.append(["negative", str(exc)])
        out.append(["after", res.count, meter._level, busy.events])
        yield from res.hold([], 0, (meter,), None, busy)
        out.append(["empty", sim.steps, res.count, res.queue_length])

    sim.process(proc())
    sim.run()
    return out


def holds_alive():
    return sum(1 for o in gc.get_objects()
               if type(o).__name__ == "Hold"
               or (type(o).__name__ == "generator" and o.__name__ == "hold"))


def garbage():
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    contended(lambda r, *a: r.hold(*a))
    throws()
    closes()
    gc.collect()
    refcount_only = sorted(type(o).__qualname__ for o in gc.garbage)
    gc.set_debug(0)
    gc.garbage.clear()
    KEEP.clear()

    def pending():
        sim = Simulator()
        res, partner = Resource(sim, 1, "res"), Resource(sim, 1, "partner")
        meter, busy = UtilizationMeter(sim, 1.0, "m"), Counter("busy")

        def user():
            yield from res.hold([2.0, 3.0], 0, (meter,), partner, busy)

        for _ in range(4):
            sim.process(user())
        sim.run(until=3.0)                  # one holding, three queued
        return holds_alive()

    alive = pending()
    gc.collect()
    gc.enable()
    return {{"refcount_only": refcount_only, "pending": alive,
             "after_drop": holds_alive()}}


by_hold = contended(lambda r, *a: r.hold(*a))
written_out = contended(by_hand)
print(json.dumps({{"hold": by_hold, "by_hand": written_out,
                  "throws": throws(), "closes": closes(),
                  "delays": delays(), "garbage": garbage()}}))
"""


@functools.lru_cache(maxsize=None)
def report(core: str) -> dict:
    return run_json(core, SNIPPET.format(core=core))


@pytest.mark.parametrize("core", CORES)
def test_contended_schedule_matches_hand_written_pattern(core):
    got = report(core)
    assert got["hold"] == got["by_hand"]
    assert len(got["hold"]["trace"]) == 9 * 3 + 3
    assert got["hold"]["busy"][1] == 9


@pytest.mark.parametrize("core", CORES)
def test_throw_withdraws_or_releases_the_claim(core):
    got = report(core)["throws"]
    log = {entry[1]: entry for entry in got["log"]}
    # [now, name, cause, res.count, partner.count, meter level, busy];
    # a claimant's entry is stamped when its 1 us hold ends.
    assert log["queued"] == [2.0, "queued", "queued", 1, 0, 0.0, 0.0]
    assert log["after-queued"][0] == 11.0      # granted at 10, not 15
    # the returned grant went straight to the claimant queued behind
    assert log["granted"] == [21.0, "granted", "granted", 1, 0, 0.0, 0.0]
    assert log["after-granted"][0] == 22.0
    # unit back at once, partner still the holder's until 32
    assert log["partner"] == [24.0, "partner", "partner", 0, 1, 0.0, 0.0]
    assert log["res-after-partner"][0] == 26.0
    assert log["partner-after-partner"][0] == 33.0
    # everything back, busy not charged; the queued claimant is granted
    assert log["holding"] == [35.0, "holding", "holding", 1, 0, 0.0, 0.0]
    assert log["res-after-holding"][0] == 36.0
    assert "finished" not in {entry[2] for entry in got["log"]}
    assert got["end"][:4] == [0, 0, 0.0, 0.0]


@pytest.mark.parametrize("core", CORES)
def test_close_releases_what_the_wait_holds(core):
    got = report(core)["closes"]
    assert got[:7] == [
        ["holding", 1, 1.0],
        ["closed", 0, 0.0, 0.0],
        "exhausted",
        ["unstarted", [], 0],
        ["queued", False, 1],
        ["cancelled", True, False],
        ["released", 0],
    ]


@pytest.mark.parametrize("core", CORES)
def test_zero_negative_and_empty_delays(core):
    zero, negative, after, empty = report(core)["delays"]
    assert zero[:2] == ["zero", 0.0]
    assert zero[3:] == [0.0, 1]                # a full cycle, charged 0
    assert negative == ["negative", "negative timeout delay -1.0"]
    assert after == ["after", 0, 0.0, 1]       # released, not charged
    assert empty == ["empty", zero[2] + 1, 0, 0]


@pytest.mark.parametrize("core", CORES)
def test_holds_leave_no_cyclic_garbage(core):
    got = report(core)["garbage"]
    assert got["refcount_only"] == []
    assert got["pending"] == 4
    assert got["after_drop"] == 0


@pytest.mark.skipif(len(CORES) < 2 or not _cengine_available(),
                    reason="needs both simulation cores")
def test_cores_agree():
    assert report("python") == report("c")
