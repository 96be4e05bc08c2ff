"""Pack ``interproc`` — rule ``purity-escape``.

The intraprocedural purity rules flag a wall-clock read or global-RNG
draw *where it is written*.  What they cannot see is laundering through
a helper: a host-side utility with a legitimate
``# lint-sim: allow[wallclock]`` (bench timing, report stamps) that sim
code later starts calling — the direct finding stays suppressed at the
definition site and the nondeterminism walks into the schedule unseen.

This pack computes per-function *effect summaries* — the set of purity
effects a function performs directly (suppressed or not: a suppression
justifies the effect at its own site, never for new callers) — and
propagates them over the front end's call graph to a fixpoint.  A call
site inside a sim-scope module whose (transitively resolved) callee
carries any effect is a ``purity-escape`` finding, with the call chain
spelled out in the message.

Direct effect sources are the purity pack's wallclock/global-random/
set-iteration detectors plus an ``entropy`` class for ``os.urandom``,
``uuid.uuid1/4`` and ``secrets.*`` (process-unique values that no
intraprocedural rule previously covered).
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.check.static.frontend import FunctionInfo, Program, dotted
from repro.check.static.rules import Finding, RulePack
from repro.check.static.rules.purity import raw_findings

RULE = "purity-escape"

#: effects that poison callers (mutable-default is a definition-site
#: property, not a runtime effect, so it does not propagate).
PROPAGATED = ("wallclock", "global-random", "set-iteration", "entropy")

#: module prefixes whose call sites must stay effect-free: everything
#: that runs inside the simulated schedule.
SIM_PREFIXES = (
    "repro.core.", "repro.ib.", "repro.rpc.", "repro.nfs.", "repro.fs.",
    "repro.sim.", "repro.osmodel.", "repro.tcpip.", "repro.faults.",
    "repro.workloads.", "repro.security.",
)

_ENTROPY_CALLS = {
    "os.urandom": "os.urandom()",
    "uuid.uuid1": "uuid.uuid1()",
    "uuid.uuid4": "uuid.uuid4()",
}


def _in_sim_scope(module_name: str) -> bool:
    return module_name.startswith(SIM_PREFIXES)


def _function_span(info: FunctionInfo) -> tuple[int, int]:
    return info.node.lineno, getattr(info.node, "end_lineno", info.node.lineno)


def _direct_effects(program: Program) -> dict[str, dict[str, str]]:
    """qualname -> {effect rule -> detail} for directly-performed effects."""
    effects: dict[str, dict[str, str]] = {}

    # Purity detector findings, attributed to the innermost enclosing
    # function by line span.
    per_module: dict[str, list[Finding]] = {}
    for module in program.modules:
        per_module[module.name] = [
            f for f in raw_findings(module.tree, module.path)
            if f.rule in PROPAGATED
        ]
    for info in program.functions.values():
        lo, hi = _function_span(info)
        owned: dict[str, str] = {}
        for finding in per_module.get(info.module.name, ()):
            if lo <= finding.line <= hi:
                owned.setdefault(finding.rule,
                                 f"{finding.rule} at line {finding.line}")
        # entropy sources the purity pack does not model
        for site in info.calls:
            name = dotted(site.node.func)
            if name is None:
                continue
            tail = ".".join(name.split(".")[-2:])
            if tail in _ENTROPY_CALLS:
                owned.setdefault("entropy", _ENTROPY_CALLS[tail])
            elif name.split(".")[0] == "secrets" and "." in name:
                owned.setdefault("entropy", f"{name}()")
        if owned:
            effects[info.qualname] = owned
    return effects


def _propagate(program: Program, direct: dict[str, dict[str, str]]
               ) -> dict[str, dict[str, tuple[str, str]]]:
    """Fixpoint: qualname -> {effect -> (via qualname, detail)}.

    ``via`` is the immediate callee through which the effect arrives
    (or the function itself for direct effects), giving findings a
    one-hop-at-a-time chain that is stable under iteration order.
    """
    summary: dict[str, dict[str, tuple[str, str]]] = {
        fn: {rule: (fn, detail) for rule, detail in owned.items()}
        for fn, owned in direct.items()
    }
    changed = True
    while changed:
        changed = False
        for info in program.functions.values():
            mine = summary.setdefault(info.qualname, {})
            for site in info.calls:
                if site.callee is None or site.callee == info.qualname:
                    continue
                for rule, (_via, detail) in summary.get(site.callee,
                                                        {}).items():
                    if rule not in mine:
                        mine[rule] = (site.callee, detail)
                        changed = True
    return {fn: eff for fn, eff in summary.items() if eff}


def _chain(summary: dict[str, dict[str, tuple[str, str]]],
           start: str, rule: str, limit: int = 6) -> list[str]:
    chain = [start]
    current = start
    for _ in range(limit):
        via, _detail = summary[current][rule]
        if via == current:
            break
        chain.append(via)
        current = via
    return chain


def run(program: Program) -> list[Finding]:
    direct = _direct_effects(program)
    summary = _propagate(program, direct)
    findings: list[Finding] = []
    for info in program.functions.values():
        if not _in_sim_scope(info.module.name):
            continue
        for site in info.calls:
            callee: Optional[str] = site.callee
            if callee is None or callee == info.qualname:
                continue
            for rule, (_via, detail) in sorted(summary.get(callee,
                                                           {}).items()):
                chain = _chain(summary, callee, rule)
                path = " -> ".join(chain)
                findings.append(Finding(
                    info.module.path, site.node.lineno, RULE,
                    f"call to {callee} reaches {rule} ({detail}) "
                    f"via {path}; sim code must not launder impurity "
                    f"through helpers"))
    return findings


PACK = RulePack(
    name="interproc",
    rules=(RULE,),
    doc="wallclock/global-RNG/set-iteration/entropy effects reached "
        "through helper calls from sim-scope code",
    run=run,
)
