"""Scheduler-equivalence property tests.

The contract both simulator cores must honour: events fire in
``(when, scheduling order)`` — exactly the order a single global heap
keyed by ``(when, push_seq)`` would produce.  The python core is that
heap; the compiled core splits it into a same-instant FIFO (nowq) plus
a heap for later instants.  We drive each core against a tiny reference
heap model through hypothesis-generated schedules with dense
same-instant ties, mid-drain rescheduling and ``run(until=...)``
boundary cases.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.sim import _pyengine  # noqa: E402


def _cores():
    """(name, module) pairs for every core importable here."""
    cores = [("python", _pyengine)]
    try:
        from repro.sim import engine

        if engine.ACTIVE_CORE == "c":
            cores.append(("c", engine._cengine))
        else:
            from repro.sim._build import load_cengine

            cengine = load_cengine()
            if cengine is not None:
                cores.append(("c", cengine))
    except ImportError:
        pass
    return cores


CORES = _cores()

# Dense 0.0 weighting: the workload's same-instant bursts are the case
# the compiled core's nowq is tuned for, so ties must dominate the search.
DELAYS = st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 3.0])

#: each op is (delay, child_delay-or-None): the event fires `delay`
#: from t=0 and, mid-drain, schedules a child `child_delay` later.
OPS = st.lists(st.tuples(DELAYS, st.one_of(st.none(), DELAYS)), max_size=30)

UNTIL = st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 7.0]))


def reference_order(ops, until):
    """Oracle: one global heap keyed by (when, push_seq)."""
    import heapq

    heap, seq = [], 0
    for i, (delay, child_delay) in enumerate(ops):
        heapq.heappush(heap, (delay, seq, i, child_delay))
        seq += 1

    def drain(limit):
        nonlocal seq
        out = []
        while heap and (limit is None or heap[0][0] <= limit):
            when, _s, ident, child_delay = heapq.heappop(heap)
            out.append(ident)
            if child_delay is not None:
                heapq.heappush(heap, (when + child_delay, seq,
                                      ("child", ident), None))
                seq += 1
        return out

    first = drain(until) if until is not None else []
    return first, drain(None)


def simulator_order(core, ops, until):
    """The same schedule driven through a real Simulator core."""
    sim = core.Simulator()
    fired = []

    def spawn(ident, delay, child_delay):
        ev = core.Event(sim)

        def on_fire(_ev, ident=ident, child_delay=child_delay):
            fired.append(ident)
            if child_delay is not None:
                spawn(("child", ident), child_delay, None)

        ev.callbacks.append(on_fire)
        ev.succeed(None, delay)

    for i, (delay, child_delay) in enumerate(ops):
        spawn(i, delay, child_delay)

    if until is not None:
        sim.run(until=until)
        first = list(fired)
        fired.clear()
        sim.run()
        return first, fired
    sim.run()
    return [], fired


@pytest.mark.parametrize("corename,core", CORES, ids=[n for n, _ in CORES])
@settings(deadline=None, max_examples=150)
@given(ops=OPS, until=UNTIL)
def test_dequeue_order_matches_reference_heap(corename, core, ops, until):
    ref_first, ref_rest = reference_order(ops, until)
    sim_first, sim_rest = simulator_order(core, ops, until)
    assert sim_first == ref_first, f"{corename}: run(until={until}) prefix diverged"
    assert sim_rest == ref_rest, f"{corename}: drain order diverged"


@pytest.mark.parametrize("corename,core", CORES, ids=[n for n, _ in CORES])
def test_same_instant_fifo_ties(corename, core):
    """100 events at one instant fire in exact scheduling order."""
    sim = core.Simulator()
    fired = []
    for i in range(100):
        ev = core.Event(sim)
        ev.callbacks.append(lambda _e, i=i: fired.append(i))
        ev.succeed(None, 5.0)
    sim.run()
    assert fired == list(range(100))


@pytest.mark.parametrize("corename,core", CORES, ids=[n for n, _ in CORES])
def test_run_until_fires_events_at_boundary(corename, core):
    """run(until=t) fires events scheduled exactly at t, not beyond."""
    sim = core.Simulator()
    fired = []
    for delay in (1.0, 2.0, 2.0, 3.0):
        ev = core.Event(sim)
        ev.callbacks.append(lambda _e, d=delay: fired.append(d))
        ev.succeed(None, delay)
    sim.run(until=2.0)
    assert fired == [1.0, 2.0, 2.0]
    assert sim.now == 2.0
    sim.run()
    assert fired == [1.0, 2.0, 2.0, 3.0]


def test_both_cores_available_under_forced_c():
    """When REPRO_SIM_CORE=c the parametrized grid must include both legs."""
    import os

    if os.environ.get("REPRO_SIM_CORE", "").strip().lower() == "c":
        assert [n for n, _ in CORES] == ["python", "c"]
