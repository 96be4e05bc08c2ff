"""Pack ``procgen`` — simulation process/generator discipline.

Three rules over the engine's process model (DESIGN.md §13):

``process-yield``
    A *process generator* — one handed to ``sim.process(...)`` /
    ``Process(...)``, or reached from one via ``yield from`` — may only
    yield Event-producing expressions.  ``yield 5``, ``yield None`` or
    yielding a literal container is a guaranteed
    ``SimulationError: yielded X, expected Event`` at runtime; the rule
    moves that crash to lint time.  (Plain data iterators are *not*
    process generators and stay free to yield anything.)

``callback-yield``
    Functions registered as event callbacks (``ev.callbacks.append(f)``)
    are invoked synchronously by the scheduler with the event as the
    sole argument; a *generator* function registered there silently
    builds a generator object and never runs.  Flag any callback
    registration whose resolved target is a generator function.

``double-trigger``
    ``Event.succeed()``/``fail()`` raise ``SimulationError`` on an
    already-triggered event.  Two static shapes are flagged: a second
    trigger of the same receiver in the same straight-line block, and a
    trigger inside a loop whose receiver is loop-invariant (bound
    outside the loop, never reassigned inside, no ``.triggered`` guard
    in the loop body).
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.check.static.frontend import FunctionInfo, Program, dotted
from repro.check.static.rules import Finding, RulePack

RULES = ("process-yield", "callback-yield", "double-trigger")

#: yield operands that can never produce an Event.
_NON_EVENT_YIELDS = (ast.Constant, ast.List, ast.Tuple, ast.Dict, ast.Set,
                     ast.ListComp, ast.SetComp, ast.DictComp, ast.JoinedStr,
                     ast.BinOp, ast.BoolOp, ast.Compare, ast.UnaryOp)


# -- process-generator discovery -----------------------------------------
def _process_seeds(program: Program) -> set[str]:
    """Generator functions whose calls are passed to ``sim.process()``
    or a ``Process(...)`` constructor anywhere in the program."""
    seeds: set[str] = set()
    for info in program.functions.values():
        for site in info.calls:
            func = site.node.func
            is_spawn = (isinstance(func, ast.Attribute)
                        and func.attr == "process")
            if not is_spawn:
                name = dotted(func)
                is_spawn = name is not None and name.split(".")[-1] == "Process"
            if not is_spawn or not site.node.args:
                continue
            for arg in site.node.args:
                if not isinstance(arg, ast.Call):
                    continue
                target = program.bind_callable(info, arg.func)
                if target is not None and program.functions[target].is_generator:
                    seeds.add(target)
    return seeds


def _process_generators(program: Program) -> set[str]:
    """Seeds plus everything reached from them via ``yield from``."""
    members = _process_seeds(program)
    queue = list(members)
    while queue:
        current = program.functions.get(queue.pop())
        if current is None:
            continue
        for site in current.calls:
            if not site.in_yield_from or site.callee is None:
                continue
            callee = program.functions.get(site.callee)
            if callee is not None and callee.is_generator \
                    and site.callee not in members:
                members.add(site.callee)
                queue.append(site.callee)
    return members


def _check_yields(info: FunctionInfo, findings: list[Finding]) -> None:
    for node in info.yields:
        if isinstance(node, ast.YieldFrom):
            continue
        value = node.value
        if value is None or isinstance(value, _NON_EVENT_YIELDS):
            shown = ("bare yield" if value is None
                     else f"yield of {type(value).__name__}")
            findings.append(Finding(
                info.module.path, node.lineno, "process-yield",
                f"{shown} in process generator {info.name}(); process "
                f"generators may only yield Event/Timeout-producing "
                f"expressions"))


# -- callback-yield -------------------------------------------------------
def _check_callbacks(program: Program, info: FunctionInfo,
                     findings: list[Finding]) -> None:
    for site in info.calls:
        func = site.node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "append"):
            continue
        owner = func.value
        if not (isinstance(owner, ast.Attribute)
                and owner.attr == "callbacks"):
            continue
        for arg in site.node.args:
            target: Optional[str] = None
            if isinstance(arg, (ast.Name, ast.Attribute)):
                target = program.bind_callable(info, arg)
            if target is None:
                continue
            callee = program.functions.get(target)
            if callee is not None and callee.is_generator:
                findings.append(Finding(
                    info.module.path, site.node.lineno, "callback-yield",
                    f"generator function {callee.name}() registered as an "
                    f"event callback; callbacks run synchronously and must "
                    f"not yield"))


# -- double-trigger -------------------------------------------------------
def _trigger_receiver(node: ast.AST) -> Optional[str]:
    """Dotted receiver of an ``X.succeed()``/``X.fail()`` call."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("succeed", "fail")):
        return dotted(node.func.value)
    return None


def _stmt_triggers(stmt: ast.stmt) -> list[tuple[str, int]]:
    """Receivers triggered directly by this simple statement."""
    out = []
    for node in ast.walk(stmt):
        receiver = _trigger_receiver(node)
        if receiver is not None:
            out.append((receiver, node.lineno))
    return out


def _assigns(stmt: ast.stmt) -> set[str]:
    return {n.id for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def _has_triggered_guard(body: list[ast.stmt], receiver: str) -> bool:
    base = receiver.split(".")[0]
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute) and node.attr == "triggered":
                guard_of = dotted(node.value)
                if guard_of is not None and (
                        guard_of == receiver
                        or guard_of.split(".")[0] == base):
                    return True
    return False


_COMPOUND = (ast.If, ast.For, ast.While, ast.Try, ast.With, ast.Match)


def _check_block(path: str, stmts: list[ast.stmt],
                 findings: list[Finding]) -> None:
    fired: dict[str, int] = {}
    for stmt in stmts:
        if isinstance(stmt, _COMPOUND):
            # control flow between triggers: previous triggers may be
            # conditional on this one's path — stop the straight-line
            # tracking and recurse into the nested blocks.
            fired.clear()
            _check_compound(path, stmt, findings)
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        assigned = _assigns(stmt)
        for name in list(fired):
            if name.split(".")[0] in assigned:
                del fired[name]
        for receiver, lineno in _stmt_triggers(stmt):
            first = fired.get(receiver)
            if first is not None:
                findings.append(Finding(
                    path, lineno, "double-trigger",
                    f"{receiver}.succeed()/fail() already triggered at "
                    f"line {first} in the same block; triggering an "
                    f"already-triggered Event raises SimulationError"))
            else:
                fired[receiver] = lineno


def _check_compound(path: str, stmt: ast.stmt,
                    findings: list[Finding]) -> None:
    if isinstance(stmt, (ast.For, ast.While)):
        assigned = set()
        for inner in stmt.body:
            assigned |= _assigns(inner)
        if isinstance(stmt, ast.For):
            for node in ast.walk(stmt.target):
                if isinstance(node, ast.Name):
                    assigned.add(node.id)
        for inner in stmt.body:
            for receiver, lineno in _stmt_triggers(inner):
                base = receiver.split(".")[0]
                if base == "self" or base in assigned:
                    continue
                if _has_triggered_guard(stmt.body, receiver):
                    continue
                findings.append(Finding(
                    path, lineno, "double-trigger",
                    f"loop-invariant {receiver} triggered inside a loop "
                    f"with no .triggered guard; the second iteration "
                    f"raises SimulationError"))
    for body in (getattr(stmt, "body", []), getattr(stmt, "orelse", []),
                 getattr(stmt, "finalbody", [])):
        if body and not isinstance(stmt, (ast.For, ast.While)):
            _check_block(path, body, findings)
        elif body:
            for inner in body:
                if isinstance(inner, _COMPOUND):
                    _check_compound(path, inner, findings)
    for handler in getattr(stmt, "handlers", []):
        _check_block(path, handler.body, findings)


def run(program: Program) -> list[Finding]:
    findings: list[Finding] = []
    members = _process_generators(program)
    for qualname in sorted(members):
        _check_yields(program.functions[qualname], findings)
    for info in program.functions.values():
        _check_callbacks(program, info, findings)
        _check_block(info.module.path, list(info.node.body), findings)
    return findings


PACK = RulePack(
    name="procgen",
    rules=RULES,
    doc="process generators yield Events only; callbacks must not "
        "yield; no double succeed/fail on one Event",
    run=run,
)
