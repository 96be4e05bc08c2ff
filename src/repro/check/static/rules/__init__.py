"""Rule-pack registry for the static contract analyzer.

A :class:`RulePack` owns one or more named rules and a ``run`` callable
taking the loaded :class:`~repro.check.static.frontend.Program` and
returning **raw** findings (pre-suppression; the analyzer core applies
``# lint-sim: allow[rule]`` lines uniformly).  Packs must be cheap,
deterministic, and import nothing from the checked code.

To add a rule pack:

1. write ``rules/<name>.py`` exporting ``PACK = RulePack(...)``;
2. append it to :data:`RULE_PACKS` below;
3. add good/bad fixture tests in ``tests/test_check_static.py``;
4. document the contract it guards in DESIGN.md §16.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.check.static.frontend import Program

__all__ = ["RULE_PACKS", "Finding", "RulePack"]


@dataclass(frozen=True)
class Finding:
    """One analyzer violation."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class RulePack:
    """One pluggable analysis pass."""

    name: str
    #: rule names this pack can emit (suppression + --rule selection keys).
    rules: tuple[str, ...]
    #: docstring-grade one-liner for --help / DESIGN.md.
    doc: str
    run: Callable[[Program], list[Finding]]


def _packs() -> tuple[RulePack, ...]:
    # Imported lazily so a syntax error in one pack names itself.
    from repro.check.static.rules import (
        boundary,
        interproc,
        procgen,
        purity,
        wire,
        zerocost,
    )

    return (purity.PACK, zerocost.PACK, interproc.PACK,
            procgen.PACK, wire.PACK, boundary.PACK)


RULE_PACKS: tuple[RulePack, ...] = _packs()
