"""Pack ``zerocost`` — rule ``zero-cost-off``.

The observability contract (DESIGN.md §9/§11): when telemetry and the
sanitizer are off, ``sim.telemetry`` / ``sim.sanitizer`` are ``None``
and every hot-path touchpoint costs exactly one attribute load plus an
``is None`` test.  That only holds if every touchpoint actually *has*
the test: an unguarded ``sim.telemetry.tracer.begin(...)`` either
crashes with the knob off or — worse — quietly forces the knob on.

This rule checks, in the hot-path packages (``repro.rpc``, ``repro.ib``,
``repro.nfs``, ``repro.core``, ``repro.fs``), that every *use* (attribute
access or call) of a sentinel value is dominated by a ``None`` guard:

* sentinel sources: any dotted chain ending ``.telemetry`` or
  ``.sanitizer``, locals assigned from one (``san = self.sim.sanitizer``),
  the derived ``<sentinel>.tracer`` handle, and ``x if c else None``
  conditionals over those;
* accepted guards: ``if x is not None: ...``, early-exit ``if x is
  None: return/raise/continue``, truthiness tests, ``and``/``or``
  short-circuit accumulation, conditional expressions, ``assert x is
  not None``.

The walker is a dominance *approximation*: guards established inside a
branch do not leak past it unless the other branch terminates, and any
reassignment invalidates the guard.  False positives are suppressible
with ``# lint-sim: allow[zero-cost-off]`` plus a justification.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.check.static.frontend import FunctionInfo, Program, dotted
from repro.check.static.rules import Finding, RulePack

RULE = "zero-cost-off"

#: attribute tails that mark a maybe-None hot-path sentinel.
SENTINEL_ATTRS = frozenset({"telemetry", "sanitizer"})
#: attributes of a sentinel that are themselves maybe-None handles.
DERIVED_ATTRS = frozenset({"tracer"})

#: module prefixes whose touchpoints must stay zero-cost when off.
HOT_PREFIXES = ("repro.rpc.", "repro.ib.", "repro.nfs.", "repro.core.",
                "repro.fs.")


def _is_hot(module_name: str) -> bool:
    return module_name.startswith(HOT_PREFIXES)


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


class _FunctionWalker:
    """Guard-dominance walk over one function body."""

    def __init__(self, path: str, findings: list[Finding]):
        self.path = path
        self.findings = findings
        #: local names currently bound to a maybe-None sentinel.
        self.tracked: set[str] = set()

    # -- sentinel identification ----------------------------------------
    def _key(self, node: ast.expr) -> Optional[str]:
        """Sentinel key for an expression, or None if not a sentinel."""
        if isinstance(node, ast.Name) and node.id in self.tracked:
            return node.id
        if isinstance(node, ast.Attribute):
            if node.attr in SENTINEL_ATTRS:
                name = dotted(node)
                if name is not None and "." in name:
                    return name
            # telemetry.tracer is itself maybe-None and guardable:
            # "if telemetry.tracer is None: return" must dominate uses.
            if node.attr in DERIVED_ATTRS and self._key(node.value) is not None:
                return dotted(node)
        return None

    def _origin(self, node: ast.expr, guarded: set[str]) -> bool:
        """Is ``node`` a maybe-None sentinel-producing expression?"""
        if self._key(node) is not None:
            return True
        if (isinstance(node, ast.Attribute) and node.attr in DERIVED_ATTRS
                and self._key(node.value) is not None):
            return True
        if isinstance(node, ast.IfExp) and _is_none(node.orelse):
            return self._origin(node.body, guarded)
        return False

    # -- guard extraction -------------------------------------------------
    def _if_true(self, test: ast.expr) -> set[str]:
        """Sentinel keys proven non-None when ``test`` is truthy."""
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            key = self._key(test.left)
            if key is not None and _is_none(test.comparators[0]):
                return {key} if isinstance(test.ops[0], ast.IsNot) else set()
            return set()
        key = self._key(test)
        if key is not None:
            return {key}
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return self._if_false(test.operand)
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            out: set[str] = set()
            for value in test.values:
                out |= self._if_true(value)
            return out
        return set()

    def _if_false(self, test: ast.expr) -> set[str]:
        """Sentinel keys proven non-None when ``test`` is falsy."""
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            key = self._key(test.left)
            if key is not None and _is_none(test.comparators[0]):
                return {key} if isinstance(test.ops[0], ast.Is) else set()
            return set()
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return self._if_true(test.operand)
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
            out: set[str] = set()
            for value in test.values:
                out |= self._if_false(value)
            return out
        return set()

    # -- expression scan ---------------------------------------------------
    def _flag(self, node: ast.AST, key: str) -> None:
        self.findings.append(Finding(
            self.path, getattr(node, "lineno", 0), RULE,
            f"{key} used without a dominating 'is None' guard; hot-path "
            f"telemetry/sanitizer touchpoints must be zero-cost when off"))

    def scan(self, node: Optional[ast.expr], guarded: set[str]) -> None:
        if node is None:
            return
        if isinstance(node, ast.BoolOp):
            acc = set(guarded)
            for value in node.values:
                self.scan(value, acc)
                acc |= (self._if_true(value)
                        if isinstance(node.op, ast.And)
                        else self._if_false(value))
            return
        if isinstance(node, ast.IfExp):
            self.scan(node.test, guarded)
            self.scan(node.body, guarded | self._if_true(node.test))
            self.scan(node.orelse, guarded | self._if_false(node.test))
            return
        if isinstance(node, ast.Attribute):
            key = self._key(node.value)
            if key is not None and key not in guarded:
                self._flag(node, key)
            self.scan(node.value, guarded)
            return
        if isinstance(node, ast.Call):
            key = self._key(node.func)
            if key is not None and key not in guarded:
                self._flag(node, key)
            for child in ast.iter_child_nodes(node):
                self.scan(child, guarded)  # type: ignore[arg-type]
            return
        if isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # separate scope
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.scan(child, guarded)
            elif isinstance(child, (ast.comprehension, ast.keyword,
                                    ast.Starred)):
                for sub in ast.iter_child_nodes(child):
                    if isinstance(sub, ast.expr):
                        self.scan(sub, guarded)

    # -- statement walk ----------------------------------------------------
    def _assigned_names(self, stmts: list[ast.stmt]) -> set[str]:
        out: set[str] = set()
        for stmt in stmts:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(
                        node.ctx, ast.Store):
                    out.add(node.id)
        return out

    def _handle_assign(self, targets: list[ast.expr], value: Optional[ast.expr],
                       guarded: set[str]) -> None:
        if value is not None:
            self.scan(value, guarded)
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if value is not None and self._origin(value, guarded):
            src_key = self._key(value)
            alias_guarded = src_key is not None and src_key in guarded
            for name in names:
                self.tracked.add(name)
                guarded.discard(name)
                if alias_guarded:
                    guarded.add(name)
        else:
            for name in names:
                self.tracked.discard(name)
                guarded.discard(name)

    def walk(self, stmts: list[ast.stmt], guarded: set[str]) -> bool:
        """Process a block; returns True if every path terminates."""
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                self._handle_assign(stmt.targets, stmt.value, guarded)
            elif isinstance(stmt, ast.AnnAssign):
                self._handle_assign([stmt.target], stmt.value, guarded)
            elif isinstance(stmt, ast.AugAssign):
                self.scan(stmt.value, guarded)
            elif isinstance(stmt, ast.Expr):
                self.scan(stmt.value, guarded)
            elif isinstance(stmt, ast.Return):
                self.scan(stmt.value, guarded)
                return True
            elif isinstance(stmt, ast.Raise):
                self.scan(stmt.exc, guarded)
                return True
            elif isinstance(stmt, (ast.Continue, ast.Break)):
                return True
            elif isinstance(stmt, ast.Assert):
                self.scan(stmt.test, guarded)
                guarded |= self._if_true(stmt.test)
            elif isinstance(stmt, ast.If):
                self.scan(stmt.test, guarded)
                true_g = self._if_true(stmt.test)
                false_g = self._if_false(stmt.test)
                touched = self._assigned_names(stmt.body + stmt.orelse)
                body_term = self.walk(stmt.body, guarded | true_g)
                else_term = (self.walk(stmt.orelse, guarded | false_g)
                             if stmt.orelse else False)
                guarded -= touched
                if body_term and else_term:
                    return True
                if body_term:
                    guarded |= false_g - touched
                elif else_term:
                    guarded |= true_g - touched
            elif isinstance(stmt, ast.While):
                self.scan(stmt.test, guarded)
                touched = self._assigned_names(stmt.body)
                self.walk(stmt.body,
                          (guarded | self._if_true(stmt.test)) - touched)
                guarded -= touched
                self.walk(stmt.orelse, set(guarded))
            elif isinstance(stmt, ast.For):
                self.scan(stmt.iter, guarded)
                touched = self._assigned_names(stmt.body) | \
                    self._assigned_names([stmt])
                self.walk(stmt.body, guarded - touched)
                guarded -= touched
                self.walk(stmt.orelse, set(guarded))
            elif isinstance(stmt, ast.Try):
                touched = self._assigned_names([stmt])
                self.walk(stmt.body, set(guarded))
                for handler in stmt.handlers:
                    self.walk(handler.body, guarded - touched)
                self.walk(stmt.orelse, set(guarded))
                self.walk(stmt.finalbody, guarded - touched)
                guarded -= touched
            elif isinstance(stmt, ast.With):
                for item in stmt.items:
                    self.scan(item.context_expr, guarded)
                if self.walk(stmt.body, guarded):
                    return True
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                continue  # separate scope, walked via its own FunctionInfo
            elif isinstance(stmt, ast.Delete):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.tracked.discard(target.id)
                        guarded.discard(target.id)
        return False


def _check_function(info: FunctionInfo, findings: list[Finding]) -> None:
    walker = _FunctionWalker(info.module.path, findings)
    walker.walk(list(info.node.body), set())


def run(program: Program) -> list[Finding]:
    findings: list[Finding] = []
    for module in program.modules:
        if not _is_hot(module.name):
            continue
        for info in program.functions_in(module):
            _check_function(info, findings)
    return findings


PACK = RulePack(
    name="zerocost",
    rules=(RULE,),
    doc="telemetry/sanitizer touchpoints in hot-path modules must be "
        "dominated by an 'is None' guard (zero-cost when off)",
    run=run,
)
