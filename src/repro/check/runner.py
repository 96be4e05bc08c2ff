"""Figure-grid driver behind ``python -m repro check``.

For each figure it runs the quick point grid three ways and requires the
metric dicts to be **bit-identical** across all of them:

* baseline — the plain deterministic engine, sanitizer off;
* sanitized — same grid with ``sanitizer=True``: every RDMA access,
  stag epoch, advertised chunk, SRQ slot, credit counter and DRC entry
  is checked on the fly, and teardown asserts nothing leaked.  Because
  the sanitizer only *reads* sim state, any drift from baseline is a
  bug in the sanitizer itself;
* perturbed — same grid under :class:`~repro.check.races.PerturbedSimulator`
  with each requested seed: same-timestamp ties break in seeded-random
  order, so any result that depends on incidental event ordering shows
  up as a table diff.

The static contract analyzer (:mod:`repro.check.static`) runs first —
purity, zero-cost-off guards, interprocedural purity escapes, process/
generator discipline, wire-format symmetry and exception boundaries are
all cheap AST passes that catch problems the dynamic passes would only
hit probabilistically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.check.static import analyze
from repro.check.static.rules import Finding

__all__ = ["CheckReport", "FigureCheck", "run_check"]


@dataclass
class FigureCheck:
    """Outcome of the three-way sweep for one figure."""

    figure: str
    points: int
    #: labels whose sanitized metrics differed from baseline.
    sanitizer_diffs: list[str] = field(default_factory=list)
    #: (seed, label) pairs whose perturbed metrics differed from baseline.
    perturb_diffs: list[tuple[int, str]] = field(default_factory=list)
    #: error text if a sweep raised (sanitizer violation, leak, crash).
    error: Optional[str] = None

    @property
    def passed(self) -> bool:
        return not (self.sanitizer_diffs or self.perturb_diffs or self.error)


@dataclass
class CheckReport:
    """Everything ``python -m repro check`` found."""

    lint_findings: list[Finding] = field(default_factory=list)
    figures: list[FigureCheck] = field(default_factory=list)
    lint_ran: bool = False

    @property
    def passed(self) -> bool:
        return not self.lint_findings and all(f.passed for f in self.figures)

    def summary(self) -> str:
        lines = []
        if self.lint_findings:
            lines.append(f"lint: {len(self.lint_findings)} finding(s)")
            lines.extend(f"  {f}" for f in self.lint_findings)
        else:
            lines.append("lint: clean" if self.lint_ran else "lint: skipped")
        for check in self.figures:
            if check.passed:
                lines.append(
                    f"{check.figure}: OK ({check.points} points, sanitized + "
                    f"perturbed bit-identical)"
                )
                continue
            lines.append(f"{check.figure}: FAILED")
            if check.error:
                lines.append(f"  error: {check.error}")
            for label in check.sanitizer_diffs:
                lines.append(f"  sanitized run diverged at point {label}")
            for seed, label in check.perturb_diffs:
                lines.append(
                    f"  perturb-seed {seed} diverged at point {label}")
        lines.append("check: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _repro_src_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def _variant(points, **overrides):
    from repro.experiments.sweep import Point

    return [Point(kind=p.kind, cluster={**p.cluster, **overrides},
                  params=p.params)
            for p in points]


def _diff_labels(labels, baseline, variant) -> list[str]:
    return [label for label, a, b in zip(labels, baseline, variant) if a != b]


def _check_figure(figure: str, scale: str, jobs: int,
                  perturb_seeds: Sequence[int]) -> FigureCheck:
    from repro.experiments.figures import figure_grid
    from repro.experiments.sweep import sweep

    grid = figure_grid(figure, scale)
    labels = [label for label, _ in grid]
    points = [p for _, p in grid]
    check = FigureCheck(figure=figure, points=len(points))
    try:
        baseline = sweep(points, jobs)
        sanitized = sweep(_variant(points, sanitizer=True), jobs)
        check.sanitizer_diffs = _diff_labels(labels, baseline, sanitized)
        for seed in perturb_seeds:
            perturbed = sweep(_variant(points, perturb_seed=seed), jobs)
            check.perturb_diffs.extend(
                (seed, label)
                for label in _diff_labels(labels, baseline, perturbed))
    except Exception as exc:  # sanitizer violation, leak, or crash
        check.error = f"{type(exc).__name__}: {exc}"
    return check


def run_check(figures: Optional[Sequence[str]] = None,
              perturb_seeds: Sequence[int] = (1, 2, 3),
              scale: str = "quick", jobs: int = 1,
              lint: bool = True,
              progress=None) -> CheckReport:
    """Run the full correctness suite; see the module docstring.

    ``figures=None`` covers every grid in
    :data:`~repro.experiments.figures.FIGURES` (the adversary-campaign
    grid included: attack traffic — NAK storms, quarantine evictions,
    lease reclaims — must be as schedule-deterministic as the benign
    figures); ``progress`` is an optional ``print``-like callable for
    live status.
    """
    from repro.experiments.figures import FIGURES

    report = CheckReport()
    if lint:
        if progress:
            progress("static: src/repro ...")
        report.lint_findings = analyze(root=_repro_src_root()).findings
        report.lint_ran = True
    for figure in (figures or FIGURES):
        if progress:
            progress(f"{figure}: baseline + sanitized + "
                     f"{len(tuple(perturb_seeds))} perturbed sweep(s) ...")
        report.figures.append(
            _check_figure(figure, scale, jobs, tuple(perturb_seeds)))
    return report
