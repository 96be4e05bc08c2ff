"""Pack ``purity`` — the four intraprocedural sim-purity rules of
``python -m repro check --static``.

The simulator's determinism contract (bit-identical golden tables) is
easy to break with perfectly ordinary Python.  This pass flags the four
patterns that have historically done it, at parse time, with no imports
of the checked code:

``wallclock``
    Calls to ``time.time()``/``monotonic()``/``perf_counter()`` (and
    ``_ns`` variants) or ``datetime``/``date`` ``now()/utcnow()/today()``.
    Wall-clock reads inside sim logic make results machine-dependent.

``global-random``
    Calls to module-level ``random.*`` / ``numpy.random.*`` functions,
    which draw from hidden process-global state shared across the whole
    interpreter.  Seeded instances — ``random.Random(seed)``,
    ``np.random.default_rng(seed)`` — are the allowed idiom.

``set-iteration``
    ``for``/comprehension/``list()``/``tuple()``/``iter()``/``*``-unpack
    over a name assigned or annotated as a ``set`` (including values of
    ``dict[..., set]`` attributes).  Sets of identity-hashed objects
    iterate in id() order, which varies run-to-run; ``sorted(...)`` (or
    a dict-as-ordered-set) is the deterministic idiom.  Membership
    tests and ``len()`` are fine and not flagged.

``mutable-default``
    ``def f(x, acc=[])`` / ``={}`` / ``=set()``-style defaults: shared
    mutable state across calls, the classic aliasing bug.

Suppression: append ``# lint-sim: allow[rule]`` (comma-separated rules,
or ``allow[*]``) to the offending line.  Suppressions are per-line and
per-rule so every exception is visible and greppable; the analyzer core
applies them, as for every pack.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.check.static.frontend import Program
from repro.check.static.rules import Finding, RulePack

__all__ = ["PACK", "RULES", "raw_findings"]

RULES = ("wallclock", "global-random", "set-iteration", "mutable-default")

_WALLCLOCK_TIME_FNS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "clock",
})
_WALLCLOCK_DATE_FNS = frozenset({"now", "utcnow", "today"})
_DATE_BASES = frozenset({"datetime", "date"})

_GLOBAL_RANDOM_FNS = frozenset({
    "random", "uniform", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "gauss", "expovariate", "betavariate",
    "triangular", "getrandbits", "seed", "normalvariate",
    "vonmisesvariate", "paretovariate", "weibullvariate", "lognormvariate",
    "rand", "randn", "permutation", "normal", "standard_normal",
})
#: calls under random./np.random. that are explicitly fine (seeded
#: constructors, not draws from global state).
_RANDOM_ALLOWED = frozenset({"Random", "SystemRandom", "default_rng", "Generator"})

_ITER_WRAPPERS = frozenset({"list", "tuple", "iter", "enumerate", "max", "min"})


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


#: key for a tracked set-typed binding: ("name", x) or ("attr", x) for self.x.
_SetKey = tuple[str, str]


def _target_key(node: ast.AST) -> Optional[_SetKey]:
    if isinstance(node, ast.Name):
        return ("name", node.id)
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self"):
        return ("attr", node.attr)
    return None


def _annotation_is_set(node: Optional[ast.expr]) -> bool:
    """``set`` / ``set[...]`` / ``Set[...]`` annotations."""
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split("[")[0].strip() in ("set", "Set")
    name = _dotted(node)
    return name is not None and name.split(".")[-1] in ("set", "Set")


def _annotation_is_dict_of_set(node: Optional[ast.expr]) -> bool:
    """``dict[K, set]`` / ``dict[K, set[...]]`` annotations."""
    if not isinstance(node, ast.Subscript):
        return False
    base = _dotted(node.value)
    if base is None or base.split(".")[-1] not in ("dict", "Dict"):
        return False
    if isinstance(node.slice, ast.Tuple) and len(node.slice.elts) == 2:
        return _annotation_is_set(node.slice.elts[1])
    return False


def _value_is_set(node: Optional[ast.expr]) -> bool:
    if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        return name in ("set", "frozenset")
    return False


class _SetCollector(ast.NodeVisitor):
    """First pass: names bound or annotated as sets (or dicts of sets)."""

    def __init__(self) -> None:
        self.sets: set[_SetKey] = set()
        self.dicts_of_sets: set[_SetKey] = set()

    def visit_Assign(self, node: ast.Assign) -> None:
        if _value_is_set(node.value):
            for target in node.targets:
                key = _target_key(target)
                if key is not None:
                    self.sets.add(key)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        key = _target_key(node.target)
        if key is not None:
            if _annotation_is_set(node.annotation) or _value_is_set(node.value):
                self.sets.add(key)
            elif _annotation_is_dict_of_set(node.annotation):
                self.dicts_of_sets.add(key)
        self.generic_visit(node)


class _PurityVisitor(ast.NodeVisitor):
    """Second pass: flag the four rule violations."""

    def __init__(self, path: str, sets: set[_SetKey],
                 dicts_of_sets: set[_SetKey]) -> None:
        self.path = path
        self.sets = sets
        self.dicts_of_sets = dicts_of_sets
        self.findings: list[Finding] = []

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(self.path, getattr(node, "lineno", 0), rule, message))

    # -- wallclock + global-random (both are Call patterns) ---------------
    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        if name is not None:
            parts = name.split(".")
            if len(parts) >= 2:
                base, fn = parts[-2], parts[-1]
                if base == "time" and fn in _WALLCLOCK_TIME_FNS:
                    self._flag(node, "wallclock",
                               f"wall-clock read {name}() in sim code; "
                               f"use sim.now")
                elif base in _DATE_BASES and fn in _WALLCLOCK_DATE_FNS:
                    self._flag(node, "wallclock",
                               f"wall-clock read {name}() in sim code; "
                               f"use sim.now")
                elif (base == "random" and parts[-3:-2] != ["Random"]
                      and fn in _GLOBAL_RANDOM_FNS
                      and fn not in _RANDOM_ALLOWED):
                    self._flag(node, "global-random",
                               f"module-level RNG {name}() draws hidden "
                               f"global state; use a seeded random.Random / "
                               f"DeterministicRNG instance")
        # list(X) / tuple(X) / iter(X) over a set-typed name.
        if (isinstance(node.func, ast.Name)
                and node.func.id in _ITER_WRAPPERS and len(node.args) == 1):
            self._check_iteration(node.args[0], node)
        self.generic_visit(node)

    # -- set iteration ----------------------------------------------------
    def _is_set_expr(self, node: ast.expr) -> bool:
        if _value_is_set(node):  # {..} / set(..) literal iterated in place
            return True
        key = _target_key(node)
        if key is not None and key in self.sets:
            return True
        if isinstance(node, ast.Subscript):
            base_key = _target_key(node.value)
            if base_key is not None and base_key in self.dicts_of_sets:
                return True
        return False

    def _check_iteration(self, iterable: ast.expr, site: ast.AST) -> None:
        if self._is_set_expr(iterable):
            self._flag(site, "set-iteration",
                       "iteration over a set: order is id()-dependent for "
                       "identity-hashed members; iterate sorted(...) or use "
                       "a dict-as-ordered-set")

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for comp in node.generators:
            self._check_iteration(comp.iter, node)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_Starred(self, node: ast.Starred) -> None:
        self._check_iteration(node.value, node)
        self.generic_visit(node)

    # -- mutable defaults --------------------------------------------------
    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            bad = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if isinstance(default, ast.Call):
                name = _dotted(default.func)
                bad = name in ("list", "dict", "set", "bytearray",
                               "collections.deque", "deque")
            if bad:
                self._flag(default, "mutable-default",
                           f"mutable default argument in {node.name}(); "
                           f"use None and create inside")
        self.generic_visit(node)

    visit_FunctionDef = _check_defaults
    visit_AsyncFunctionDef = _check_defaults


def raw_findings(tree: ast.Module, path: str = "<string>") -> list[Finding]:
    """All four intraprocedural rules over one parsed module, *before*
    suppression (also the direct effect sources of the ``interproc``
    pack)."""
    collector = _SetCollector()
    collector.visit(tree)
    visitor = _PurityVisitor(path, collector.sets, collector.dicts_of_sets)
    visitor.visit(tree)
    return visitor.findings


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
