"""Discrete-event simulation kernel.

A small, deterministic, generator-based DES in the style of SimPy,
purpose-built for the NFS/RDMA reproduction.  Simulated time is a float
in **microseconds**.  Processes are Python generators that ``yield``
:class:`~repro.sim.engine.Event` objects; the engine resumes them when
the event fires.

Public surface::

    sim = Simulator()
    proc = sim.process(my_generator())
    sim.run(until=1e6)

Resources (:mod:`repro.sim.resources`) provide contention primitives:
``Resource`` (counted semaphore with FIFO/priority queueing), ``Store``
(item queue) and ``Container`` (continuous level);
``SegmentPipeline`` (:mod:`repro.sim.pipeline`) carries a segmented
message through sender CPU, wire and receiver CPU.  ``repro.sim.trace``
provides time-weighted utilization and counter instrumentation used by
the analysis layer to compute CPU utilization and bandwidth.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.pipeline import SegmentPipeline
from repro.sim.resources import Container, Resource, Store
from repro.sim.rng import DeterministicRNG
from repro.sim.trace import Counter, UtilizationMeter

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "Counter",
    "DeterministicRNG",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "SegmentPipeline",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "UtilizationMeter",
]
