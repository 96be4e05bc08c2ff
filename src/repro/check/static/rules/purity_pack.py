"""Pack ``purity`` — the four intraprocedural sim-purity rules.

The detection logic lives in :mod:`repro.check.purity`; this pack runs
it over every module the front end loaded.  Suppressions are applied by
the analyzer core, as for every pack.
"""

from __future__ import annotations

from repro.check.purity import RULES, raw_findings
from repro.check.static.frontend import Program
from repro.check.static.rules import Finding, RulePack


def run(program: Program) -> list[Finding]:
    findings: list[Finding] = []
    for module in program.modules:
        findings.extend(raw_findings(module.tree, module.path))
    return findings


PACK = RulePack(
    name="purity",
    rules=tuple(RULES),
    doc="wallclock / global-random / set-iteration / mutable-default "
        "direct uses (intraprocedural)",
    run=run,
)
