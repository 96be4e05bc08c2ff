"""Pack ``wire`` — rule ``wire-symmetry``.

Encode/decode pairing for the wire codecs.  The golden-table contract
"v1 framing byte-for-byte when no lane is set" (and its v2 sibling for
the mux lane words, DESIGN.md §15) lives entirely in hand-paired
``encode``/``decode`` bodies: a field written but never read, read in a
different order, or guarded by mismatched conditionals silently skews
every simulated wire size.

For every codec pair in the wire modules — classes defining both
``encode`` and ``decode``, plus module-level ``encode_X``/``decode_X``
function pairs — the rule abstracts each body into an ordered token
sequence:

* primitive ops on the encoder/decoder handle (``u32``, ``u64``,
  ``opaque``, ``string``, ``boolean``; ``raw`` pairs with
  ``remainder``), including chained calls (``enc.u32(0).opaque(b"")``);
* ``pack:<LAYOUT>`` for a fused fixed-layout run, ``enc.pack(_L, ...)``
  on one side and ``dec.unpack(_L)`` on the other: both must name the
  same layout.  ``_L`` must be a module-level ``struct.Struct`` literal
  of big-endian ``I``/``i``/``Q``/``q`` words, ``pack`` must pass as
  many values as it has fields, and a tuple target of ``unpack`` must
  bind as many names;
* any other op on the handle counts as a field under its own name
  (``?op``), so a codec the rule does not understand never reads as
  empty and skipped;
* ``array(...)`` / ``optional(...)`` combinators, recursing into their
  lambda (or named-function) item codecs;
* ``nested`` for a sub-codec invocation (``self.chunks.encode(enc)`` /
  ``ChunkList.decode(dec)`` / ``_encode_segment(e, ...)``);
* ``opt[...]`` groups for tokens under an ``if`` (version/flag-gated
  fields — both sides must gate the same token run at the same spot);
* ``many[...]`` groups for tokens inside a loop.

The two sequences must match element-for-element; the finding names the
first divergence from both sides.  Tokens appearing in an ``if`` *test*
(``if dec.u32() != CALL: raise``) count as unconditional — the read
happens on every path.
"""

from __future__ import annotations

import ast
import re
from typing import Optional, Union

from repro.check.static.frontend import FunctionInfo, Module, Program, dotted
from repro.check.static.rules import Finding, RulePack

RULE = "wire-symmetry"

#: modules containing hand-paired wire codecs.  rpc.lanes carries the
#: v2 lane-framing bookkeeping (the lane words themselves are encoded
#: by core.header's version-2 arm, which this list covers).
WIRE_MODULES = (
    "repro.core.header",
    "repro.core.chunks",
    "repro.rpc.msg",
    "repro.rpc.lanes",
    "repro.nfs.fh",
    "repro.nfs.protocol",
)

#: primitive token spellings, normalized encode <-> decode.
_PRIMITIVES = {
    "u32": "u32", "u64": "u64", "i32": "i32", "i64": "i64",
    "opaque": "opaque", "string": "string", "boolean": "boolean",
    "raw": "raw", "remainder": "raw",
}
_COMBINATORS = {"array", "optional"}
#: fused fixed-layout ops; both spell their token ``pack:<LAYOUT>``.
_FUSED = {"pack", "unpack"}
#: handle methods that write or read no field (plus any ``peek*``,
#: which looks ahead without consuming).
_NON_FIELD = {"take", "done"}

#: an XDR layout: big-endian, 4- and 8-byte integer words only.
_LAYOUT_FORMAT = re.compile(r"[>!](?:\d*[IiQq])+")
_LAYOUT_FIELD = re.compile(r"(\d*)[IiQq]")

Token = Union[str, tuple]  # "u32" | ("opt"|"many"|"array"|"optional", [...]) | "nested"


def _module_layouts(module: Module) -> dict[str, Optional[int]]:
    """Module-level ``NAME = struct.Struct("fmt")`` literals: name ->
    field count, or None when ``fmt`` is not an XDR layout."""
    layouts: dict[str, Optional[int]] = {}
    for stmt in module.tree.body:
        if not (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call)):
            continue
        call = stmt.value
        if (dotted(call.func) or "").split(".")[-1] != "Struct":
            continue
        fmt = (call.args[0].value if len(call.args) == 1
               and isinstance(call.args[0], ast.Constant) else None)
        count = None
        if isinstance(fmt, str) and _LAYOUT_FORMAT.fullmatch(fmt):
            count = sum(int(n or 1) for n in _LAYOUT_FIELD.findall(fmt))
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                layouts[target.id] = count
    return layouts


def _fmt(tokens: list[Token]) -> str:
    parts = []
    for token in tokens:
        if isinstance(token, tuple):
            parts.append(f"{token[0]}[{_fmt(token[1])}]")
        else:
            parts.append(token)
    return " ".join(parts)


class _TokenExtractor:
    """Ordered codec-op tokens for one encode/decode body."""

    def __init__(self, handles: set[str], layouts: dict[str, Optional[int]],
                 problems: list[tuple[int, str]]):
        #: names bound to the encoder/decoder (parameter or local).
        self.handles = set(handles)
        #: the module's ``struct.Struct`` layouts (see _module_layouts).
        self.layouts = layouts
        #: (line, message) for layout and arity errors, shared across
        #: nested extractors.
        self.problems = problems

    def _is_handle(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id in self.handles

    def _handle_passed(self, call: ast.Call) -> bool:
        return any(self._is_handle(a) for a in call.args) or any(
            self._is_handle(k.value) for k in call.keywords)

    def _unchain(self, call: ast.Call) -> list[ast.Call]:
        """``enc.u32(0).opaque(b"")`` -> [u32 call, opaque call]."""
        chain: list[ast.Call] = []
        node: ast.expr = call
        while (isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)):
            chain.append(node)
            node = node.func.value
        if self._is_handle(node):
            return list(reversed(chain))
        return []

    def _layout(self, call: ast.Call, op: str) -> tuple[str, Optional[int]]:
        """The layout named by a pack/unpack call and its field count
        (None, with a problem recorded, when it cannot be checked)."""
        name = dotted(call.args[0]) if call.args else None
        if name is None:
            self.problems.append(
                (call.lineno, f"{op}() needs a layout name as its first argument"))
            return "?", None
        if name not in self.layouts:
            self.problems.append(
                (call.lineno, f"{op}({name}): {name} is not a module-level "
                              f"struct.Struct literal"))
            return name, None
        fields = self.layouts[name]
        if fields is None:
            self.problems.append(
                (call.lineno, f"{op}({name}): {name} is not an XDR layout "
                              f"(big-endian I/i/Q/q words only)"))
        return name, fields

    def _fused(self, call: ast.Call, op: str) -> str:
        name, fields = self._layout(call, op)
        if op == "pack" and fields is not None:
            values = call.args[1:]
            if call.keywords or any(isinstance(v, ast.Starred) for v in values):
                self.problems.append(
                    (call.lineno, f"pack({name}, ...): pass each value "
                                  f"positionally so its arity can be checked"))
            elif len(values) != fields:
                self.problems.append(
                    (call.lineno, f"pack({name}, ...) passes {len(values)} "
                                  f"value(s), {name} has {fields} field(s)"))
        return f"{op}:{name}"

    def _check_unpack_targets(self, stmt: ast.Assign) -> None:
        """``a, b = dec.unpack(_L)`` must bind one name per field."""
        call, target = stmt.value, stmt.targets[0]
        if not (len(stmt.targets) == 1 and isinstance(target, ast.Tuple)
                and isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "unpack"
                and self._is_handle(call.func.value)):
            return
        names = target.elts
        if any(isinstance(n, ast.Starred) for n in names):
            return
        layout = dotted(call.args[0]) if call.args else None
        fields = self.layouts.get(layout) if layout is not None else None
        if fields is not None and len(names) != fields:
            self.problems.append(
                (stmt.lineno, f"unpack({layout}) binds {len(names)} name(s), "
                              f"{layout} has {fields} field(s)"))

    def _lambda_tokens(self, fn: ast.expr) -> list[Token]:
        """Tokens of an item-codec argument (lambda or function ref)."""
        if isinstance(fn, ast.Lambda):
            inner = _TokenExtractor({a.arg for a in fn.args.args},
                                    self.layouts, self.problems)
            return inner.expr_tokens(fn.body)
        if isinstance(fn, (ast.Name, ast.Attribute)):
            return ["nested"]
        return []

    def expr_tokens(self, node: Optional[ast.expr]) -> list[Token]:
        if node is None:
            return []
        out: list[Token] = []
        if isinstance(node, ast.Call):
            chain = self._unchain(node)
            if chain:
                for link in chain:
                    assert isinstance(link.func, ast.Attribute)
                    op = link.func.attr
                    # arguments evaluate before the op applies
                    for arg in link.args:
                        out.extend(self.expr_tokens(arg))
                    for kw in link.keywords:
                        out.extend(self.expr_tokens(kw.value))
                    if op in _PRIMITIVES:
                        out.append(_PRIMITIVES[op])
                    elif op in _COMBINATORS:
                        inner: list[Token] = []
                        for arg in link.args:
                            inner = self._lambda_tokens(arg) or inner
                        out.append((op, inner))
                    elif op in _FUSED:
                        out.append(self._fused(link, op))
                    elif not (op in _NON_FIELD or op.startswith("peek")):
                        out.append(f"?{op}")
                return out
            # a call that receives the handle is a nested sub-codec
            tokens: list[Token] = []
            for child in list(node.args) + [k.value for k in node.keywords]:
                tokens.extend(self.expr_tokens(child))
            if self._handle_passed(node):
                return tokens + ["nested"]
            return tokens
        if isinstance(node, (ast.Lambda, ast.FunctionDef)):
            return []
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out.extend(self.expr_tokens(child))
            elif isinstance(child, ast.keyword):
                out.extend(self.expr_tokens(child.value))
            elif isinstance(child, ast.comprehension):
                # [X(s) for s in dec.array(...)] — the codec op lives
                # in the comprehension's iterator.
                out.extend(self.expr_tokens(child.iter))
                for test in child.ifs:
                    out.extend(self.expr_tokens(test))
        return out

    def _grouped(self, tokens: list[Token], kind: str) -> list[Token]:
        return [(kind, tokens)] if tokens else []

    def block_tokens(self, stmts: list[ast.stmt]) -> list[Token]:
        out: list[Token] = []
        for stmt in stmts:
            if isinstance(stmt, (ast.Expr, ast.Return)):
                out.extend(self.expr_tokens(stmt.value))
            elif isinstance(stmt, ast.Assign):
                self._check_unpack_targets(stmt)
                out.extend(self.expr_tokens(stmt.value))
            elif isinstance(stmt, ast.AnnAssign):
                out.extend(self.expr_tokens(stmt.value))
            elif isinstance(stmt, ast.AugAssign):
                out.extend(self.expr_tokens(stmt.value))
            elif isinstance(stmt, ast.If):
                out.extend(self.expr_tokens(stmt.test))
                body = self.block_tokens(stmt.body)
                orelse = self.block_tokens(stmt.orelse)
                if body and orelse:
                    # both arms read/write: either arm runs, so the
                    # group is conditional with two shapes — encode it
                    # as opt[body] opt[orelse] for positional matching.
                    out.extend(self._grouped(body, "opt"))
                    out.extend(self._grouped(orelse, "opt"))
                else:
                    out.extend(self._grouped(body or orelse, "opt"))
            elif isinstance(stmt, (ast.For, ast.While)):
                inner = self.block_tokens(stmt.body)
                if isinstance(stmt, ast.For):
                    out.extend(self.expr_tokens(stmt.iter))
                else:
                    out.extend(self.expr_tokens(stmt.test))
                out.extend(self._grouped(inner, "many"))
            elif isinstance(stmt, ast.Try):
                out.extend(self.block_tokens(stmt.body))
                out.extend(self.block_tokens(stmt.orelse))
                out.extend(self.block_tokens(stmt.finalbody))
            elif isinstance(stmt, ast.With):
                for item in stmt.items:
                    out.extend(self.expr_tokens(item.context_expr))
                out.extend(self.block_tokens(stmt.body))
            elif isinstance(stmt, ast.Raise):
                continue  # error path, not a field
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                continue
        return out


def _codec_handles(info: FunctionInfo) -> set[str]:
    """Names bound to the encoder/decoder inside one codec body:
    parameters annotated/named enc/dec/e/d plus locals assigned from an
    ``Xdr{Encoder,Decoder}(...)`` constructor."""
    handles = {a.arg for a in info.node.args.args
               if a.arg in ("enc", "dec", "e", "d", "encoder", "decoder")}
    for stmt in info.node.body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
            name = dotted(stmt.value.func) or ""
            if name.split(".")[-1] in ("XdrEncoder", "XdrDecoder"):
                handles.update(t.id for t in stmt.targets
                               if isinstance(t, ast.Name))
    return handles


def _tokens_for(info: FunctionInfo, layouts: dict[str, Optional[int]],
                problems: list[tuple[int, str]]) -> list[Token]:
    extractor = _TokenExtractor(_codec_handles(info), layouts, problems)
    return extractor.block_tokens(list(info.node.body))


def _kind(token: Token) -> str:
    """Comparable kind of a token: ``unpack:L`` pairs with ``pack:L``."""
    if isinstance(token, tuple):
        return token[0]
    return token[2:] if token.startswith("unpack:") else token


def _match(enc: list[Token], dec: list[Token]) -> Optional[str]:
    """None when symmetric, else a first-divergence description."""
    for index, (a, b) in enumerate(zip(enc, dec)):
        a_kind = _kind(a)
        b_kind = _kind(b)
        group_kinds = {"opt", "many", "array", "optional"}
        if a_kind in group_kinds and b_kind in group_kinds:
            if a_kind != b_kind and {a_kind, b_kind} != {"opt", "opt"}:
                # array/optional must pair exactly; opt pairs with opt.
                if {a_kind, b_kind} - {"opt"} and a_kind != b_kind:
                    return (f"field {index}: encode has {a_kind}[...] but "
                            f"decode has {b_kind}[...]")
            inner = _match(a[1] if isinstance(a, tuple) else [],
                           b[1] if isinstance(b, tuple) else [])
            if inner is not None:
                return inner
            continue
        if a_kind != b_kind:
            return (f"field {index}: encode writes '{_fmt([a])}' but decode "
                    f"reads '{_fmt([b])}'")
    if len(enc) != len(dec):
        if len(enc) > len(dec):
            extra = _fmt(enc[len(dec):])
            return (f"encode writes {len(enc)} field(s), decode reads "
                    f"{len(dec)}: '{extra}' written but never read")
        extra = _fmt(dec[len(enc):])
        return (f"decode reads {len(dec)} field(s), encode writes "
                f"{len(enc)}: '{extra}' read but never written")
    return None


def _pairs(program: Program, module: Module
           ) -> list[tuple[str, FunctionInfo, FunctionInfo]]:
    pairs = []
    for cls in program.classes.values():
        if cls.module is not module:
            continue
        enc = cls.methods.get("encode")
        dec = cls.methods.get("decode")
        if enc is not None and dec is not None:
            pairs.append((cls.qualname, enc, dec))
    for info in program.functions.values():
        if info.module is not module or info.cls is not None:
            continue
        if info.name.startswith(("encode_", "_encode_")):
            suffix = info.name.replace("encode", "decode", 1)
            partner = program.functions.get(f"{module.name}.{suffix}")
            if partner is not None:
                pairs.append((info.qualname, info, partner))
    return pairs


def run(program: Program) -> list[Finding]:
    findings: list[Finding] = []
    for name in WIRE_MODULES:
        module = program.module(name)
        if module is None:
            continue
        layouts = _module_layouts(module)
        problems: list[tuple[int, str]] = []
        for pair_name, enc, dec in _pairs(program, module):
            enc_tokens = _tokens_for(enc, layouts, problems)
            dec_tokens = _tokens_for(dec, layouts, problems)
            if not enc_tokens and not dec_tokens:
                continue
            divergence = _match(enc_tokens, dec_tokens)
            if divergence is not None:
                findings.append(Finding(
                    module.path, enc.line, RULE,
                    f"{pair_name}: encode/decode field sequences diverge "
                    f"— {divergence} (encode: {_fmt(enc_tokens)}; decode: "
                    f"{_fmt(dec_tokens)})"))
        for line, message in sorted(set(problems)):
            findings.append(Finding(module.path, line, RULE, message))
    return findings


PACK = RulePack(
    name="wire",
    rules=(RULE,),
    doc="encode/decode field pairing for the wire codecs (v1 header, "
        "v2 lane words, ONC RPC, NFS types)",
    run=run,
)
