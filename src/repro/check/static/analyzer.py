"""Analyzer core: run rule packs, apply suppressions, audit them.

``analyze`` loads (or accepts) a :class:`Program`, runs the selected
rule packs, drops findings whose line carries a matching
``# lint-sim: allow[rule]`` comment (``allow[*]`` matches every rule),
and — on full runs — emits an ``unused-suppression`` finding for every
allow comment that suppressed nothing, so stale waivers cannot
accumulate as the code under them gets fixed.

``analyze_source`` wraps a single in-memory module for fixture tests:
the good/bad source pairs in ``tests/test_check_static.py`` go through
exactly the production path, minus the filesystem walk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.check.static.frontend import Program, load_program, load_source
from repro.check.static.rules import RULE_PACKS, Finding

__all__ = ["StaticReport", "analyze", "analyze_source", "rule_names"]

AUDIT_RULE = "unused-suppression"


def rule_names() -> tuple[str, ...]:
    """Every selectable rule name, pack order, audit rule last."""
    names: list[str] = []
    for pack in RULE_PACKS:
        names.extend(pack.rules)
    names.append(AUDIT_RULE)
    return tuple(names)


@dataclass
class StaticReport:
    """Outcome of one analyzer run."""

    findings: list[Finding]
    #: findings silenced by allow comments (kept for the audit + -v).
    suppressed: list[Finding] = field(default_factory=list)
    modules_scanned: int = 0
    rules_run: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.findings

    def render_text(self) -> str:
        lines = [str(f) for f in self.findings]
        lines.append(
            f"{len(self.findings)} finding(s) "
            f"({len(self.suppressed)} suppressed) across "
            f"{self.modules_scanned} module(s), "
            f"rules: {', '.join(self.rules_run)}")
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps({
            "ok": self.ok,
            "modules_scanned": self.modules_scanned,
            "rules_run": list(self.rules_run),
            "findings": [
                {"path": f.path, "line": f.line, "rule": f.rule,
                 "message": f.message}
                for f in self.findings
            ],
            "suppressed": len(self.suppressed),
        }, indent=2)


def _selected_packs(rules: Optional[Sequence[str]]):
    if not rules:
        return list(RULE_PACKS), None
    wanted = set(rules)
    known = set(rule_names()) | {p.name for p in RULE_PACKS}
    unknown = wanted - known
    if unknown:
        raise ValueError(
            f"unknown rule(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(rule_names())}")
    packs = [p for p in RULE_PACKS
             if wanted & (set(p.rules) | {p.name})]
    return packs, wanted


def _apply_suppressions(program: Program, raw: list[Finding]
                        ) -> tuple[list[Finding], list[Finding],
                                   dict[tuple[str, int], set[str]]]:
    """Split raw findings into (kept, suppressed); also return the
    set of rules each allow comment actually suppressed, keyed by
    (path, line), for the unused-suppression audit."""
    by_path = {m.path: m for m in program.modules}
    used: dict[tuple[str, int], set[str]] = {}
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in raw:
        module = by_path.get(finding.path)
        allowed = (module.suppressions.get(finding.line, set())
                   if module is not None else set())
        if finding.rule in allowed or "*" in allowed:
            suppressed.append(finding)
            used.setdefault((finding.path, finding.line), set()).add(
                finding.rule if finding.rule in allowed else "*")
        else:
            kept.append(finding)
    return kept, suppressed, used


def _audit_suppressions(program: Program,
                        used: dict[tuple[str, int], set[str]],
                        selected: Optional[set[str]]) -> list[Finding]:
    """Stale allow comments.  With ``--rule`` the audit only covers the
    selected rules (an allow for an unselected rule is untestable this
    run); ``allow[*]`` is audited only on full runs for the same
    reason."""
    findings: list[Finding] = []
    for module in program.modules:
        for line, rules in sorted(module.suppressions.items()):
            fired = used.get((module.path, line), set())
            for rule in sorted(rules):
                if rule in fired:
                    continue
                if rule == "*":
                    if selected is not None:
                        continue
                elif selected is not None and rule not in selected:
                    continue
                findings.append(Finding(
                    module.path, line, AUDIT_RULE,
                    f"allow[{rule}] suppresses nothing on this line; "
                    f"remove the stale comment or fix its rule name"))
    return findings


def analyze(program: Optional[Program] = None,
            root: Union[str, Path, None] = None,
            rules: Optional[Sequence[str]] = None) -> StaticReport:
    """Run the analyzer over ``program`` (or load one from ``root``,
    default: the installed ``repro`` package)."""
    if program is None:
        program = load_program(root)
    packs, selected = _selected_packs(rules)
    raw: list[Finding] = []
    for pack in packs:
        pack_findings = pack.run(program)
        if selected is not None and not (set(pack.rules) <= selected
                                         or pack.name in selected):
            pack_findings = [f for f in pack_findings
                             if f.rule in selected]
        raw.extend(pack_findings)
    kept, suppressed, used = _apply_suppressions(program, raw)
    if rules is None or AUDIT_RULE in set(rules):
        kept.extend(_audit_suppressions(program, used, selected))
    kept.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    ran: list[str] = []
    for pack in packs:
        ran.extend(r for r in pack.rules
                   if selected is None or r in selected
                   or set(pack.rules) <= selected or pack.name in selected)
    if rules is None or AUDIT_RULE in set(rules):
        ran.append(AUDIT_RULE)
    return StaticReport(findings=kept, suppressed=suppressed,
                        modules_scanned=len(program.modules),
                        rules_run=tuple(dict.fromkeys(ran)))


def analyze_source(source: str, path: str = "<fixture>",
                   name: str = "repro.rpc.fixture",
                   rules: Optional[Sequence[str]] = None) -> StaticReport:
    """Analyze a single in-memory module (fixture-test entry point).

    ``name`` controls which scoped rules see the module: the default
    ``repro.rpc.fixture`` lands in the hot-path/transport/sim scopes so
    every pack is exercised; pass e.g. ``repro.core.header`` to hit the
    wire-module list.
    """
    module = load_source(source, path=path, name=name)
    return analyze(program=Program([module]), rules=rules)
