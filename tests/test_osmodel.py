"""Unit tests for the OS model: CPU, interrupts, slab, thread pool."""

import pytest

from repro.osmodel import (
    CPU,
    CPUConfig,
    InterruptController,
    KernelThreadPool,
    SlabAllocator,
    SlabCache,
    TaskFailure,
)
from repro.sim import Simulator


# ---------------------------------------------------------------- CPU
def test_cpu_consume_advances_time_and_counts():
    sim = Simulator()
    cpu = CPU(sim, CPUConfig(cores=1))

    def proc():
        yield from cpu.consume(10.0)

    sim.run_until_complete(sim.process(proc()))
    assert sim.now == 10.0
    assert cpu.busy_us_total == 10.0


def test_cpu_cores_contend():
    sim = Simulator()
    cpu = CPU(sim, CPUConfig(cores=2))
    ends = []

    def proc():
        yield from cpu.consume(10.0)
        ends.append(sim.now)

    for _ in range(4):
        sim.process(proc())
    sim.run()
    # 4 jobs of 10us on 2 cores => finish at 10 and 20.
    assert ends == [10.0, 10.0, 20.0, 20.0]


def test_cpu_utilization_metering():
    sim = Simulator()
    cpu = CPU(sim, CPUConfig(cores=2))

    def proc():
        yield from cpu.consume(10.0)

    sim.process(proc())
    sim.run(until=20.0)
    # one core busy for 10us out of 2 cores * 20us => 25%
    assert cpu.utilization() == pytest.approx(0.25)


def test_cpu_copy_cost_scales_with_bytes():
    cfg = CPUConfig(cores=1, memcpy_mb_s=1000.0)
    assert cfg.copy_cost_us(1_000_000) == pytest.approx(1000.0)  # 1MB at 1GB/s = 1000us
    sim = Simulator()
    cpu = CPU(sim, cfg)

    def proc():
        yield from cpu.copy(500_000)

    sim.run_until_complete(sim.process(proc()))
    assert sim.now == pytest.approx(500.0)


def test_cpu_zero_demand_is_free():
    sim = Simulator()
    cpu = CPU(sim, CPUConfig(cores=1))

    def proc():
        yield from cpu.consume(0.0)
        yield sim.timeout(1.0)

    sim.run_until_complete(sim.process(proc()))
    assert cpu.busy_us_total == 0.0


def test_cpu_negative_demand_rejected():
    sim = Simulator()
    cpu = CPU(sim, CPUConfig(cores=1))
    with pytest.raises(ValueError):
        list(cpu.consume(-1.0))


# ---------------------------------------------------------------- interrupts
def test_interrupt_charges_cpu():
    sim = Simulator()
    cpu = CPU(sim, CPUConfig(cores=1))
    irq = InterruptController(sim, cpu, cost_us=4.0)

    def proc():
        yield from irq.raise_irq()

    sim.run_until_complete(sim.process(proc()))
    assert cpu.busy_us_total == pytest.approx(4.0)
    assert irq.delivered.events == 1


def test_interrupt_runs_handler():
    sim = Simulator()
    cpu = CPU(sim, CPUConfig(cores=1))
    irq = InterruptController(sim, cpu, cost_us=1.0)
    ran = []

    def handler():
        yield sim.timeout(2.0)
        ran.append(sim.now)

    def proc():
        yield from irq.raise_irq(handler)

    sim.run_until_complete(sim.process(proc()))
    assert ran == [3.0]


# ---------------------------------------------------------------- slab
def test_slab_cache_reuses_objects():
    cache = SlabCache(4096)
    a = cache.alloc()
    cache.free(a)
    b = cache.alloc()
    assert b is a
    assert cache.hits.events == 1
    assert cache.misses.events == 1


def test_slab_object_preserves_registration_across_reuse():
    cache = SlabCache(4096)
    obj = cache.alloc()
    obj.registration = "live-mr-handle"
    cache.free(obj)
    again = cache.alloc()
    assert again.registration == "live-mr-handle"


def test_slab_size_class_rounding():
    alloc = SlabAllocator()
    obj = alloc.alloc(5000)
    assert obj.size_class == 8192
    assert len(obj.buffer) == 8192


def test_slab_double_free_rejected():
    cache = SlabCache(64)
    obj = cache.alloc()
    cache.free(obj)
    with pytest.raises(ValueError):
        cache.free(obj)


def test_slab_wrong_class_free_rejected():
    c1, c2 = SlabCache(64), SlabCache(128)
    obj = c1.alloc()
    c1.free(obj)
    fresh = c1.alloc()
    with pytest.raises(ValueError):
        c2.free(fresh)


def test_slab_allocator_reclaims_over_budget():
    class FakeReg:
        def __init__(self):
            self.invalidated = False

        def invalidate(self):
            self.invalidated = True

    alloc = SlabAllocator(budget_bytes=3 * 4096)
    objs = [alloc.alloc(4096) for _ in range(4)]
    regs = [FakeReg() for _ in objs]
    for obj, reg in zip(objs, regs):
        obj.registration = reg
    for obj in objs:
        alloc.free(obj)
    assert alloc.footprint_bytes() <= 3 * 4096
    assert any(r.invalidated for r in regs)


def test_slab_footprint_accounting():
    alloc = SlabAllocator()
    alloc.alloc(4096)
    alloc.alloc(4096)
    alloc.alloc(100)
    assert alloc.footprint_bytes() == 2 * 4096 + 128


# ---------------------------------------------------------------- threads
def test_thread_pool_processes_tasks():
    sim = Simulator()
    done = []

    def handler(worker, task):
        yield sim.timeout(10.0)
        done.append((worker, task, sim.now))

    pool = KernelThreadPool(sim, nthreads=2, handler=handler)
    for t in range(4):
        pool.submit(t)
    sim.run(until=100.0)
    assert pool.completed.events == 4
    # 4 tasks, 2 threads, 10us each => last finishes at 20us.
    assert max(at for _, _, at in done) == 20.0


def test_thread_pool_single_thread_serializes():
    sim = Simulator()
    finish = []

    def handler(worker, task):
        yield sim.timeout(5.0)
        finish.append(sim.now)

    pool = KernelThreadPool(sim, nthreads=1, handler=handler)
    for t in range(3):
        pool.submit(t)
    sim.run(until=100.0)
    assert finish == [5.0, 10.0, 15.0]


def test_thread_pool_task_failure_counted():
    sim = Simulator()

    def handler(worker, task):
        yield sim.timeout(1.0)
        if task == "bad":
            raise TaskFailure()

    pool = KernelThreadPool(sim, nthreads=1, handler=handler)
    pool.submit("ok")
    pool.submit("bad")
    pool.submit("ok2")
    sim.run(until=100.0)
    assert pool.completed.events == 2
    assert pool.failed.events == 1


def test_thread_pool_stop_drains():
    sim = Simulator()

    def handler(worker, task):
        yield sim.timeout(1.0)

    pool = KernelThreadPool(sim, nthreads=2, handler=handler)
    for t in range(3):
        pool.submit(t)
    pool.stop()
    sim.run(until=100.0)
    assert pool.completed.events == 3
    with pytest.raises(RuntimeError):
        pool.submit("late")


def test_thread_pool_requires_threads():
    sim = Simulator()
    with pytest.raises(ValueError):
        KernelThreadPool(sim, nthreads=0, handler=lambda w, t: iter(()))
