"""Pack ``boundary`` — rule ``exception-boundary``.

The sanitizer contract (DESIGN.md §11): ``SanitizerError`` is
deliberately *not* a ``ProtectionError`` subclass, so an invariant
violation escapes the modeled fault-recovery machinery instead of being
absorbed as just another injected fault.  That design only works if the
transport/fault-recovery code doesn't catch it by accident.

In the transport-scope modules this rule flags ``except`` clauses that
would swallow a sanitizer violation or the whole ``ReproError`` tree:

* a bare ``except:`` or ``except BaseException`` / ``except Exception``
  with no bare ``raise`` in the handler body;
* an explicit ``except ReproError`` or ``except SanitizerError``
  (alone or inside a tuple) with no bare ``raise``.

A handler that re-raises (a bare ``raise`` statement anywhere in its
body outside nested defs) passes: it observes the exception but lets it
propagate.  Handlers for narrower, modeled exception types
(``ProtectionError``, ``TransportError``, ``OSError``, ...) are the
normal fault-handling path and are never flagged.
"""

from __future__ import annotations

import ast

from repro.check.static.frontend import Module, Program, dotted
from repro.check.static.rules import Finding, RulePack

RULE = "exception-boundary"

#: module prefixes forming the transport / fault-recovery boundary.
TRANSPORT_PREFIXES = ("repro.rpc.", "repro.ib.", "repro.nfs.",
                      "repro.core.", "repro.faults.", "repro.tcpip.")

#: exception names that (would) swallow sanitizer violations.
_BROAD = {"Exception", "BaseException"}
_FORBIDDEN = {"ReproError", "SanitizerError"}


def _in_scope(module_name: str) -> bool:
    return module_name.startswith(TRANSPORT_PREFIXES)


def _caught_names(handler: ast.ExceptHandler) -> list[str]:
    """Terminal names of the caught exception type(s)."""
    if handler.type is None:
        return ["<bare>"]
    nodes = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    names = []
    for node in nodes:
        name = dotted(node)
        if name is not None:
            names.append(name.split(".")[-1])
    return names


def _reraises(handler: ast.ExceptHandler) -> bool:
    """True when the handler body contains a bare ``raise`` (outside
    nested defs) — the exception is observed but still propagates."""
    stack: list[ast.AST] = list(handler.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Raise) and node.exc is None:
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _check_module(module: Module, findings: list[Finding]) -> None:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        names = _caught_names(node)
        if _reraises(node):
            continue
        offending = [n for n in names if n in _FORBIDDEN]
        broad = [n for n in names if n in _BROAD or n == "<bare>"]
        if offending:
            shown = "/".join(offending)
            findings.append(Finding(
                module.path, node.lineno, RULE,
                f"'except {shown}' in transport code swallows sanitizer "
                f"violations; catch the specific modeled exception "
                f"(e.g. ProtectionError/TransportError) or re-raise"))
        elif broad:
            shown = "bare except" if broad[0] == "<bare>" \
                else f"'except {broad[0]}'"
            findings.append(Finding(
                module.path, node.lineno, RULE,
                f"{shown} without re-raise in transport code would "
                f"swallow SanitizerError/ReproError; narrow the type "
                f"or add a bare 'raise'"))


def run(program: Program) -> list[Finding]:
    findings: list[Finding] = []
    for module in program.modules:
        if _in_scope(module.name):
            _check_module(module, findings)
    return findings


PACK = RulePack(
    name="boundary",
    rules=(RULE,),
    doc="except clauses in transport/fault-recovery code must not "
        "swallow SanitizerError or the ReproError tree",
    run=run,
)
