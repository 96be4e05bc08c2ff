"""Unit tests for the discrete-event kernel (events, processes, conditions)."""

import gc

import pytest

from repro.sim import _pyengine
from repro.sim._build import load_cengine
from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)


def test_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(5.0)
        log.append(sim.now)
        yield sim.timeout(2.5)
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [5.0, 7.5]


def test_timeout_carries_value():
    sim = Simulator()
    seen = []

    def proc():
        value = yield sim.timeout(1.0, value="payload")
        seen.append(value)

    sim.process(proc())
    sim.run()
    assert seen == ["payload"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        got.append((yield ev))

    def firer():
        yield sim.timeout(3.0)
        ev.succeed(42)

    sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert got == [42]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(waiter())
    ev.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_event_failure_propagates_to_run():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("unhandled"))
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_defused_failure_does_not_crash_run():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("handled elsewhere")).defused()
    sim.run()  # must not raise


def test_process_return_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return "done"

    p = sim.process(proc())
    result = sim.run_until_complete(p)
    assert result == "done"


def test_process_waits_on_subprocess():
    sim = Simulator()

    def child():
        yield sim.timeout(4.0)
        return 7

    def parent():
        value = yield sim.process(child())
        return value + 1

    assert sim.run_until_complete(sim.process(parent())) == 8
    assert sim.now == 4.0


def test_process_exception_propagates():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise KeyError("oops")

    p = sim.process(bad())
    with pytest.raises(KeyError):
        sim.run_until_complete(p)


def test_process_yield_non_event_is_error():
    sim = Simulator()

    def bad():
        yield 42

    p = sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run_until_complete(p)


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Process(sim, lambda: None)  # type: ignore[arg-type]


def test_yield_already_processed_event_resumes_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    sim.run()  # process the event with no waiters
    got = []

    def late_waiter():
        got.append((yield ev))
        got.append(sim.now)

    sim.process(late_waiter())
    sim.run()
    assert got == ["early", 0.0]


def test_interrupt_thrown_into_process():
    sim = Simulator()
    observed = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt as irq:
            observed.append((sim.now, irq.cause))

    p = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(10.0)
        p.interrupt(cause="wakeup")

    sim.process(interrupter())
    sim.run()
    assert observed == [(10.0, "wakeup")]


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    p = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_all_of_waits_for_every_event():
    sim = Simulator()
    done_at = []

    def proc():
        t1 = sim.timeout(3.0, value="a")
        t2 = sim.timeout(7.0, value="b")
        result = yield AllOf(sim, [t1, t2])
        done_at.append(sim.now)
        assert set(result.values()) == {"a", "b"}

    sim.process(proc())
    sim.run()
    assert done_at == [7.0]


def test_any_of_fires_on_first():
    sim = Simulator()
    done_at = []

    def proc():
        t1 = sim.timeout(3.0, value="fast")
        t2 = sim.timeout(7.0, value="slow")
        result = yield AnyOf(sim, [t1, t2])
        done_at.append(sim.now)
        assert "fast" in result.values()

    sim.process(proc())
    sim.run()
    assert done_at == [3.0]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    fired = []

    def proc():
        yield AllOf(sim, [])
        fired.append(sim.now)

    sim.process(proc())
    sim.run()
    assert fired == [0.0]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def make(tag):
        def proc():
            yield sim.timeout(5.0)
            order.append(tag)
        return proc

    for tag in range(10):
        sim.process(make(tag)())
    sim.run()
    assert order == list(range(10))


def test_run_until_time_stops_clock():
    sim = Simulator()

    def proc():
        while True:
            yield sim.timeout(10.0)

    sim.process(proc())
    sim.run(until=35.0)
    assert sim.now == 35.0
    assert sim.queue_size > 0


def test_run_until_past_rejected():
    sim = Simulator()
    sim.process(iter_timeout(sim, 10.0))
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=5.0)


def iter_timeout(sim, delay):
    yield sim.timeout(delay)


def test_run_until_complete_detects_deadlock():
    sim = Simulator()
    ev = sim.event()  # never fires

    def stuck():
        yield ev

    p = sim.process(stuck())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(p)


def test_determinism_two_identical_runs():
    def build_and_run():
        sim = Simulator()
        trace = []

        def worker(wid, delays):
            for d in delays:
                yield sim.timeout(d)
                trace.append((round(sim.now, 6), wid))

        for wid in range(5):
            sim.process(worker(wid, [1.0 + wid * 0.1] * 20))
        sim.run()
        return trace

    assert build_and_run() == build_and_run()


# ------------------------------------------------- process lifetime, both cores
#
# A finished process must be freed by reference counting alone, on every
# exit path: the engine may leave no reference cycle behind (a compiled
# process caches a resume callback that points back at it until it ends).
# The scenarios run against each core's classes directly, in this
# process.  Their generators never hold the failing process in a
# local: a frame that handles a failure while holding the failed process
# makes a cycle of its own (process -> exception -> traceback -> frame),
# whatever the engine does.

_CENGINE = load_cengine()
LIFETIME_CORES = [
    pytest.param(_pyengine, id="python"),
    pytest.param(_CENGINE, id="c", marks=pytest.mark.skipif(
        _CENGINE is None, reason="compiled sim core unavailable")),
]


def _returns(sim):
    yield sim.timeout(1.0)
    return 7


def _raises(sim):
    yield sim.timeout(1.0)
    raise KeyError("boom")


def _waits_on(box):
    try:
        yield box.pop()  # the box, not this frame, held the child
    except KeyError as exc:
        return f"caught {exc!r}"


def _sleeps(sim):
    try:
        yield sim.timeout(100.0)
    except _pyengine.Interrupt as irq:
        return irq.cause


def _yields_int():
    yield 42


def _yields_again(sim):
    try:
        yield 42
    except _pyengine.SimulationError:
        yield sim.timeout(1.0)  # the process must end anyway
    return "unreachable"


def _yields_foreign(other):
    yield other.event()


def _run(sim):
    """``sim.run()``; the name of what it raised, or None."""
    try:
        sim.run()
    except Exception as exc:
        return type(exc).__name__
    return None


def _start(core, sim, scenario):
    """Spawn ``scenario``; returns (process to inspect, other processes)."""
    if scenario == "returns":
        return sim.process(_returns(sim)), []
    if scenario == "raises-with-waiter":
        child = sim.process(_raises(sim))
        return child, [sim.process(_waits_on([child]))]
    if scenario == "raises-without-waiter":
        return sim.process(_raises(sim)), []
    if scenario == "interrupted":
        return sim.process(_sleeps(sim)), []
    if scenario == "yields-non-event":
        return sim.process(_yields_int()), []
    if scenario == "catches-complaint-and-yields-again":
        return sim.process(_yields_again(sim)), []
    if scenario == "yields-foreign-event":
        return sim.process(_yields_foreign(core.Simulator())), []
    raise AssertionError(scenario)


LIFETIME_SCENARIOS = [
    "returns", "raises-with-waiter", "raises-without-waiter", "interrupted",
    "yields-non-event", "catches-complaint-and-yields-again",
    "yields-foreign-event",
]


def _finish(core, scenario):
    """Run ``scenario`` to its end; (observed outcome, cyclic garbage left)."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        sim = core.Simulator()
        proc, others = _start(core, sim, scenario)
        if scenario == "interrupted":
            sim.run(until=5.0)
            proc.interrupt("stop")
        raised = _run(sim)
        outcome = {
            "raised": raised,
            "now": sim.now,
            "is_alive": proc.is_alive,
            "ok": proc.ok,
            "value": repr(proc.value),
            "others": [(p.is_alive, p.ok, p.value) for p in others],
        }
        # The simulator still holds the last process it resumed.
        sim.active_process = None
        del proc, others
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = [type(o).__name__ for o in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()
        if was_enabled:
            gc.enable()
    return outcome, garbage


@pytest.mark.parametrize("scenario", LIFETIME_SCENARIOS)
@pytest.mark.parametrize("core", LIFETIME_CORES)
def test_finished_process_leaves_no_cyclic_garbage(core, scenario):
    outcome, garbage = _finish(core, scenario)
    assert not outcome["is_alive"]
    assert garbage == []


@pytest.mark.skipif(_CENGINE is None, reason="compiled sim core unavailable")
@pytest.mark.parametrize("scenario", LIFETIME_SCENARIOS)
def test_process_exit_paths_read_the_same_under_both_cores(scenario):
    outcome, _ = _finish(_pyengine, scenario)
    assert _finish(_CENGINE, scenario)[0] == outcome


def test_process_exit_path_outcomes():
    expect = {
        "returns": (None, True, "7"),
        "raises-with-waiter": (None, False, "KeyError('boom')"),
        "raises-without-waiter": ("KeyError", False, "KeyError('boom')"),
        "interrupted": (None, True, "'stop'"),
        "yields-non-event": (
            "SimulationError", False,
            "SimulationError(\"process '_yields_int' yielded int, expected Event\")"),
        "catches-complaint-and-yields-again": (
            "SimulationError", False,
            "SimulationError(\"process '_yields_again' yielded int, expected Event\")"),
        "yields-foreign-event": (
            "SimulationError", False,
            "SimulationError('yielded event belongs to a different Simulator')"),
    }
    for scenario, (raised, ok, value) in expect.items():
        outcome, _ = _finish(_pyengine, scenario)
        assert (outcome["raised"], outcome["ok"], outcome["value"]) == (raised, ok, value), scenario
    outcome, _ = _finish(_pyengine, "raises-with-waiter")
    assert outcome["others"] == [(False, True, "caught KeyError('boom')")]


@pytest.mark.skipif(_CENGINE is None, reason="compiled sim core unavailable")
def test_compiled_process_drops_resume_callback_when_finished():
    sim = _CENGINE.Simulator()
    proc = sim.process(_returns(sim))
    assert callable(proc._resume)
    sim.run()
    assert proc._resume is None


@pytest.mark.skipif(_CENGINE is None, reason="compiled sim core unavailable")
def test_compiled_stale_resume_callback_cannot_revive_finished_process():
    sim, other = _CENGINE.Simulator(), _CENGINE.Simulator()

    def gen():
        yield other.event()  # fails the process; the generator stays suspended
        yield sim.event()

    proc = sim.process(gen())
    resume = proc._resume  # taken while the process still caches it
    assert _run(sim) == "SimulationError"
    fired = sim.event()
    fired.succeed()
    sim.run()
    with pytest.raises(SimulationError, match="finished process resumed"):
        resume(fired)


def test_non_generator_process_still_rejected_by_both_cores():
    class SendOnly:
        def send(self, value):
            return None

    cores = [_pyengine] + ([_CENGINE] if _CENGINE is not None else [])
    for core in cores:
        sim = core.Simulator()
        for bad in (lambda: None, SendOnly(), [1, 2]):
            with pytest.raises(SimulationError, match="requires a generator"):
                core.Process(sim, bad)
