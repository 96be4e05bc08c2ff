"""Correctness tooling: runtime sanitizer, race detector, static analyzer.

Three layers, all surfaced through ``python -m repro check``:

* :class:`Sanitizer` (:mod:`repro.check.sanitizer`) — an ASAN/MSAN-style
  runtime checker hooked into the HCA/TPT/FMR/SRQ/credit/DRC layers.
  Attached by building a cluster with ``ClusterConfig(sanitizer=True)``;
  when off, ``sim.sanitizer`` is ``None`` and every hook site costs one
  attribute load (the same contract as telemetry).  Violations raise
  typed :class:`repro.errors.SanitizerError` subclasses.
* :class:`PerturbedSimulator` (:mod:`repro.check.races`) — a seeded
  schedule-perturbation engine that shuffles same-timestamp tie-break
  order; bit-identical figure tables under perturbation prove no result
  depends on incidental event ordering.  :func:`nondeterminism_guard`
  additionally traps wall-clock reads and global-RNG draws at runtime.
* :func:`analyze` (:mod:`repro.check.static`) — the interprocedural
  contract analyzer: the intraprocedural purity rules
  (:mod:`repro.check.static.rules.purity`) plus zero-cost-off guard
  dominance, cross-function purity escapes, process/generator
  discipline, wire-format symmetry and exception-boundary checks.
  Surfaced as ``python -m repro check --static``.

The heavyweight figure-grid driver lives in :mod:`repro.check.runner`
and is imported lazily by the CLI (it pulls in the experiment stack).
"""

from __future__ import annotations

from repro.check.races import PerturbedSimulator, nondeterminism_guard
from repro.check.sanitizer import Sanitizer, Violation
from repro.check.static.rules import Finding

__all__ = [
    "Finding",
    "PerturbedSimulator",
    "Sanitizer",
    "Violation",
    "nondeterminism_guard",
]
