"""``repro lint`` — AST-based checker for the project's own invariants.

The toolchain rests on invariants that generic linters cannot know about:
the content-addressed program store is only correct if every semantic
compiler knob reaches :meth:`cache_signature`, the differential harness is
only meaningful if compilation is bit-deterministic, and the CLI/docs
environment tables are only truthful if every ``REPRO_*`` read goes through
the :mod:`repro.envvars` registry.  The 700+-case differential suite
catches violations *after* they ship a wrong artifact; these rules catch
the bug class at review time.

Rules
-----
RPL001
    Every ``__init__`` parameter of a class defining ``cache_signature()``
    must appear (as a string key) in the signature dict — directly, via
    ``_signature_extras``, via an ancestor's signature, or by being
    forwarded to a wrapped compiler when the signature delegates.  A
    genuinely non-semantic parameter carries
    ``# repro-lint: nonsemantic(<reason>)`` on its line.
RPL002
    Every field of a ``@dataclass`` that defines ``to_dict`` must appear in
    both ``to_dict`` and ``from_dict`` (as a string constant), so stored
    payloads round-trip losslessly.  Fields deliberately excluded from the
    codec (or serialized under a different wire name) carry
    ``# repro-lint: noncodec(<reason>)``.
RPL003
    Modules reachable from compile output or cache keys must be
    deterministic: no ``hash()``/``id()`` (``PYTHONHASHSEED``/address
    dependent), no iteration over set constructors or unsorted directory
    listings, no wall-clock reads (monotonic ``time.perf_counter`` /
    ``time.monotonic`` are allowed — they only feed timing statistics), and
    no unseeded RNG construction (including ``default_rng(seed)`` where
    ``seed`` is an ``= None`` parameter of the enclosing function).
    Intentional exceptions carry ``# repro-lint: determinism-ok(<reason>)``.
    The observability scope (:data:`WALLCLOCK_EXEMPT_SCOPE`, i.e.
    ``repro/obs/``) is exempt from the *wall-clock* check only — it records
    timestamps by design and never feeds cache keys — while every other
    determinism check still applies there.
RPL004
    Any ``os.environ``/``os.getenv`` access naming a ``REPRO_*`` variable
    not declared in :data:`repro.envvars.ENV_VARS` is an error (outside
    ``envvars.py`` itself and ``service/testing.py``).  The registry feeds
    every ``--help`` epilog and the docs' environment tables, so a
    bypassing read is a knob the operator cannot discover.
RPL005
    Inside ``with <...lock...>():`` blocks of :mod:`repro.service`, no
    network traffic (urllib/sockets/remote tiers) and no compile calls —
    the server's bookkeeping locks are held for microseconds by design, and
    a network round trip under one would serialize every request.  A lock
    whose documented *purpose* is serializing compilation (the compile
    server holds one cold compile at a time) carries
    ``# repro-lint: serialized-compile(<reason>)`` on the call line.

Waivers are scoped to a single line and *must* carry a reason:
``# repro-lint: <tag>(<reason>)``.  A malformed waiver (unknown tag, empty
reason, bad syntax) is itself reported as RPL000.

Run ``python -m repro lint [paths...]`` (defaults to the installed
``repro`` package) or import :func:`lint_paths`.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import re
import sys
import tokenize
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = ["Finding", "RULES", "lint_paths", "main"]

#: Rule identifiers and one-line summaries (RPL000 is the meta-rule for
#: malformed waiver comments and unparseable files).
RULES: Dict[str, str] = {
    "RPL000": "malformed repro-lint waiver or unparseable file",
    "RPL001": "cache-signature completeness (__init__ knob missing from cache_signature)",
    "RPL002": "codec round-trip completeness (dataclass field missing from to_dict/from_dict)",
    "RPL003": "determinism in modules reachable from compile output or cache keys",
    "RPL004": "REPRO_* environment access outside the repro.envvars registry",
    "RPL005": "network/compile call while a service lock is held",
}

#: Waiver tag -> the rule it suppresses.
WAIVER_TAGS: Dict[str, str] = {
    "nonsemantic": "RPL001",
    "noncodec": "RPL002",
    "determinism-ok": "RPL003",
    "serialized-compile": "RPL005",
}

#: Paths (relative to the ``repro`` package root) whose contents reach
#: compiled programs or cache keys; RPL003 applies only here.  Files that do
#: not live under a ``repro`` package (e.g. test fixtures) are always in
#: scope.
DETERMINISM_SCOPE: Tuple[str, ...] = (
    "program.py",
    "graph.py",
    "core/",
    "circuits/",
    "devices/",
    "noise/",
    "baselines/",
    "workloads/",
    "service/cache_key.py",
    "obs/",
)

#: Sub-scopes of :data:`DETERMINISM_SCOPE` where *wall-clock* reads are
#: allowed: the observability layer records timestamps and durations by
#: design, and nothing in it may feed cache keys or compile output (a
#: separate invariant pinned by the differential trace tests).  All other
#: RPL003 checks (hash order, set iteration, unseeded RNG) still apply
#: here — a scoped whitelist, not a per-line waiver.
WALLCLOCK_EXEMPT_SCOPE: Tuple[str, ...] = ("obs/",)

#: Files allowed to touch ``REPRO_*`` environment variables directly: the
#: registry itself and the test-pinning helper that scrubs the environment.
ENV_RULE_EXEMPT: Tuple[str, ...] = ("envvars.py", "service/testing.py")

_ENV_NAME = re.compile(r"^REPRO_[A-Z0-9_]+$")
_WAIVER = re.compile(r"#\s*repro-lint:\s*(?P<tag>[a-z0-9-]+)\s*\((?P<reason>[^()]*)\)")
_WAIVER_PREFIX = re.compile(r"#\s*repro-lint\b")

_MONOTONIC_CLOCKS = {"perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns"}
_WALLCLOCK_TIME = {"time", "time_ns"}
_WALLCLOCK_DATETIME = {"now", "utcnow", "today"}
_FS_LISTING = {"listdir", "scandir", "iterdir", "glob", "rglob"}
_RNG_CONSTRUCTORS = {"default_rng", "Random", "RandomState"}
_RNG_SAFE = {"Generator", "SeedSequence", "PCG64", "Philox", "SFC64", "BitGenerator"}
_LOCK_NETWORK_PARTS = {"urlopen", "urllib", "socket", "requests"}
_LOCK_COMPILE_NAMES = {"compile", "compile_batch"}


@dataclass(frozen=True)
class Finding:
    """One rule violation: a stable (path, line, col, rule, message) tuple."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    @property
    def anchor(self) -> str:
        return f"{self.path}:{self.line}"

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def baseline_key(self) -> Tuple[str, str, str]:
        """Line-number-independent identity used by ``--baseline`` files."""
        return (self.path, self.rule, self.message)


# ---------------------------------------------------------------------------
# per-file context
# ---------------------------------------------------------------------------
class _FileContext:
    """Parsed source plus the waiver table and package-relative location."""

    def __init__(self, path: Path, display: str, source: str) -> None:
        self.path = path
        self.display = display
        self.source = source
        self.tree: Optional[ast.AST] = None
        self.parse_error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(source, filename=display)
        except SyntaxError as error:
            self.parse_error = error
        # line -> set of waiver tags present on that line
        self.waivers: Dict[int, Set[str]] = {}
        self.waiver_findings: List[Finding] = []
        self._collect_waivers()
        self.in_repro = _repro_relative(path)
        # module-level ``NAME = "literal"`` constants (RPL004 resolves
        # os.environ.get(CACHE_DIR_ENV) through these).
        self.constants: Dict[str, str] = {}
        if self.tree is not None:
            for node in ast.iter_child_nodes(self.tree):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if (
                        isinstance(target, ast.Name)
                        and isinstance(node.value, ast.Constant)
                        and isinstance(node.value.value, str)
                    ):
                        self.constants[target.id] = node.value.value

    def _comments(self) -> List[Tuple[int, int, str]]:
        """(line, col, text) of every real comment token in the source.

        Tokenizing (rather than scanning raw lines) keeps string literals
        that merely *mention* the waiver syntax from looking like waivers.
        """
        comments: List[Tuple[int, int, str]] = []
        try:
            for token in tokenize.generate_tokens(io.StringIO(self.source).readline):
                if token.type == tokenize.COMMENT:
                    comments.append((token.start[0], token.start[1], token.string))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            pass  # the parse error is reported separately
        return comments

    def _collect_waivers(self) -> None:
        for lineno, col, comment in self._comments():
            if not _WAIVER_PREFIX.search(comment):
                continue
            matched = False
            for match in _WAIVER.finditer(comment):
                matched = True
                tag = match.group("tag")
                reason = match.group("reason").strip()
                if tag not in WAIVER_TAGS:
                    self.waiver_findings.append(
                        Finding(
                            self.display,
                            lineno,
                            col + match.start() + 1,
                            "RPL000",
                            f"unknown waiver tag {tag!r} (expected one of "
                            f"{sorted(WAIVER_TAGS)})",
                        )
                    )
                elif not reason:
                    self.waiver_findings.append(
                        Finding(
                            self.display,
                            lineno,
                            col + match.start() + 1,
                            "RPL000",
                            f"waiver '{tag}' needs a reason: "
                            f"# repro-lint: {tag}(<why>)",
                        )
                    )
                else:
                    self.waivers.setdefault(lineno, set()).add(tag)
            if not matched:
                self.waiver_findings.append(
                    Finding(
                        self.display,
                        lineno,
                        col + 1,
                        "RPL000",
                        "malformed repro-lint comment; use "
                        "# repro-lint: <tag>(<reason>)",
                    )
                )

    def waived(self, line: int, rule: str) -> bool:
        return any(
            WAIVER_TAGS[tag] == rule for tag in self.waivers.get(line, ())
        )


def _repro_relative(path: Path) -> Optional[str]:
    """Path relative to the enclosing ``repro`` package root, if any."""
    parts = path.parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index + 1 :])
    return None


def _dotted_parts(node: ast.AST) -> List[str]:
    """``a.b.c`` -> ``["a", "b", "c"]`` (empty for non-name expressions)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    if parts:
        # <expr>.attr chains (e.g. ``self._dir.glob``): keep the attribute
        # tail, mark the unresolvable base with "".
        return [""] + list(reversed(parts))
    return []


def _string_constants(node: ast.AST) -> Set[str]:
    return {
        n.value
        for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        parts = _dotted_parts(target)
        if parts and parts[-1] == "dataclass":
            return True
    return False


def _method(node: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name == name:
            return stmt
    return None


# ---------------------------------------------------------------------------
# RPL001 — cache-signature completeness (cross-file class map)
# ---------------------------------------------------------------------------
@dataclass
class _ClassInfo:
    name: str
    display: str
    bases: List[str]
    init: Optional[ast.FunctionDef]
    has_cache_signature: bool
    signature_keys: Set[str]
    delegates: bool
    forwarded: Set[str]


class _ClassMap:
    """Classes keyed by (file, name), with a by-name index for base lookup.

    Two files may define same-named classes; a class's own entry is found
    by exact (file, name), while base classes resolve same-file first and
    fall back to any file (imports are not traced, last definition wins).
    """

    def __init__(self) -> None:
        self.by_key: Dict[Tuple[str, str], _ClassInfo] = {}
        self.by_name: Dict[str, List[_ClassInfo]] = {}

    def add(self, info: _ClassInfo) -> None:
        self.by_key[(info.display, info.name)] = info
        self.by_name.setdefault(info.name, []).append(info)

    def resolve(self, name: str, display: str) -> Optional[_ClassInfo]:
        exact = self.by_key.get((display, name))
        if exact is not None:
            return exact
        candidates = self.by_name.get(name)
        return candidates[-1] if candidates else None


def _collect_classes(ctx: _FileContext, classes: _ClassMap) -> None:
    assert ctx.tree is not None
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        signature_keys: Set[str] = set()
        delegates = False
        has_signature = False
        for method_name in ("cache_signature", "_signature_extras"):
            method = _method(node, method_name)
            if method is None:
                continue
            if method_name == "cache_signature":
                has_signature = True
                for call in ast.walk(method):
                    if (
                        isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "cache_signature"
                    ):
                        delegates = True
            signature_keys |= _string_constants(method)
        init = _method(node, "__init__")
        forwarded: Set[str] = set()
        if init is not None:
            for call in ast.walk(init):
                if not isinstance(call, ast.Call):
                    continue
                for arg in call.args:
                    if isinstance(arg, ast.Name):
                        forwarded.add(arg.id)
                for keyword in call.keywords:
                    if (
                        keyword.arg is not None
                        and isinstance(keyword.value, ast.Name)
                        and keyword.value.id == keyword.arg
                    ):
                        forwarded.add(keyword.arg)
        bases = []
        for base in node.bases:
            parts = _dotted_parts(base)
            if parts:
                bases.append(parts[-1])
        classes.add(_ClassInfo(
            name=node.name,
            display=ctx.display,
            bases=bases,
            init=init,
            has_cache_signature=has_signature,
            signature_keys=signature_keys,
            delegates=delegates,
            forwarded=forwarded,
        ))


def _signature_chain(
    info: _ClassInfo, classes: _ClassMap
) -> Tuple[bool, Set[str], bool]:
    """(any cache_signature in the chain, union of keys, any delegation)."""
    seen: Set[Tuple[str, str]] = set()
    has_signature = False
    keys: Set[str] = set()
    delegates = False
    stack = [info]
    while stack:
        current = stack.pop()
        key = (current.display, current.name)
        if key in seen:
            continue
        seen.add(key)
        has_signature = has_signature or current.has_cache_signature
        keys |= current.signature_keys
        delegates = delegates or current.delegates
        for base in current.bases:
            resolved = classes.resolve(base, current.display)
            if resolved is not None:
                stack.append(resolved)
    return has_signature, keys, delegates


def _check_rpl001(ctx: _FileContext, classes: _ClassMap) -> List[Finding]:
    assert ctx.tree is not None
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        info = classes.by_key.get((ctx.display, node.name))
        if info is None or info.init is None:
            continue
        has_signature, keys, delegates = _signature_chain(info, classes)
        if not has_signature:
            continue
        args = info.init.args
        params = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for param in params[1:] if params and params[0].arg in ("self", "cls") else params:
            name = param.arg
            if name.startswith("_"):
                continue
            if name in keys:
                continue
            if delegates and name in info.forwarded:
                continue
            if ctx.waived(param.lineno, "RPL001"):
                continue
            findings.append(
                Finding(
                    ctx.display,
                    param.lineno,
                    param.col_offset + 1,
                    "RPL001",
                    f"__init__ parameter '{name}' of {node.name} does not reach "
                    "cache_signature(); a semantic knob missing from the "
                    "signature lets two different configurations share one "
                    "store key (stale-artifact bug). Add it to the signature "
                    "dict or waive with # repro-lint: nonsemantic(<reason>)",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# RPL002 — codec round-trip completeness
# ---------------------------------------------------------------------------
def _is_classvar(annotation: ast.AST) -> bool:
    return any(
        isinstance(n, ast.Name)
        and n.id == "ClassVar"
        or isinstance(n, ast.Attribute)
        and n.attr == "ClassVar"
        for n in ast.walk(annotation)
    )


def _check_rpl002(ctx: _FileContext) -> List[Finding]:
    assert ctx.tree is not None
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef) or not _is_dataclass_decorated(node):
            continue
        to_dict = _method(node, "to_dict")
        if to_dict is None:
            continue
        from_dict = _method(node, "from_dict")
        if from_dict is None:
            findings.append(
                Finding(
                    ctx.display,
                    node.lineno,
                    node.col_offset + 1,
                    "RPL002",
                    f"dataclass {node.name} defines to_dict but no from_dict; "
                    "stored payloads cannot round-trip",
                )
            )
            continue
        to_names = _string_constants(to_dict)
        from_names = _string_constants(from_dict)
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                stmt.target, ast.Name
            ):
                continue
            name = stmt.target.id
            if name.startswith("_") or _is_classvar(stmt.annotation):
                continue
            missing = [
                side
                for side, names in (("to_dict", to_names), ("from_dict", from_names))
                if name not in names
            ]
            if not missing or ctx.waived(stmt.lineno, "RPL002"):
                continue
            findings.append(
                Finding(
                    ctx.display,
                    stmt.lineno,
                    stmt.col_offset + 1,
                    "RPL002",
                    f"field '{name}' of dataclass {node.name} is missing from "
                    f"{' and '.join(missing)}; the codec silently drops it on "
                    "a cache round trip. Serialize it or waive with "
                    "# repro-lint: noncodec(<reason>)",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# RPL003 — determinism
# ---------------------------------------------------------------------------
def _scope_match(relative: str, prefixes: Tuple[str, ...]) -> bool:
    return any(
        relative == prefix or (prefix.endswith("/") and relative.startswith(prefix))
        for prefix in prefixes
    )


def _in_determinism_scope(ctx: _FileContext) -> bool:
    if ctx.in_repro is None:
        return True  # fixtures / arbitrary trees: fully checked
    return _scope_match(ctx.in_repro, DETERMINISM_SCOPE)


def _wallclock_exempt(ctx: _FileContext) -> bool:
    """Whether *ctx* sits in a scope where wall-clock reads are allowed."""
    if ctx.in_repro is None:
        return False
    return _scope_match(ctx.in_repro, WALLCLOCK_EXEMPT_SCOPE)


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, ctx: _FileContext) -> None:
        self.ctx = ctx
        self.wallclock_exempt = _wallclock_exempt(ctx)
        self.findings: List[Finding] = []
        self.function_stack: List[ast.FunctionDef] = []
        self.imports: Dict[str, str] = {}  # local name -> source module
        self.sorted_args: Set[int] = set()
        assert ctx.tree is not None
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = node.module
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("sorted", "min", "max", "sum", "len", "any", "all")
                and node.args
            ):
                # Order-insensitive or ordering consumers: iterating a set
                # inside these is deterministic in effect.
                self.sorted_args.add(id(node.args[0]))

    # -- helpers ---------------------------------------------------------
    def _flag(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if self.ctx.waived(line, "RPL003"):
            return
        self.findings.append(
            Finding(
                self.ctx.display,
                line,
                getattr(node, "col_offset", 0) + 1,
                "RPL003",
                message + " (waive with # repro-lint: determinism-ok(<reason>))",
            )
        )

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    def _param_defaults_none(self, name: str) -> bool:
        """Whether *name* is a parameter of an enclosing function with a
        ``None`` default (so the value may be ``None`` at call time)."""
        for function in reversed(self.function_stack):
            args = function.args
            positional = list(args.posonlyargs) + list(args.args)
            defaults = list(args.defaults)
            offset = len(positional) - len(defaults)
            for index, param in enumerate(positional):
                if param.arg != name:
                    continue
                if index < offset:
                    return False
                default = defaults[index - offset]
                return isinstance(default, ast.Constant) and default.value is None
            for param, default in zip(args.kwonlyargs, args.kw_defaults):
                if param.arg == name:
                    return isinstance(default, ast.Constant) and default.value is None
        return False

    # -- visitors --------------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.function_stack.append(node)
        self.generic_visit(node)
        self.function_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _check_iteration(self, iter_node: ast.AST) -> None:
        if self._is_set_expr(iter_node) and id(iter_node) not in self.sorted_args:
            self._flag(
                iter_node,
                "iteration over a set: element order is hash-dependent and "
                "leaks into output; wrap in sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        parts = _dotted_parts(node.func)
        tail = parts[-1] if parts else ""

        # hash()/id() builtins (hash is legitimate inside __hash__ itself)
        if isinstance(node.func, ast.Name) and node.func.id in ("hash", "id"):
            inside_hash = any(f.name == "__hash__" for f in self.function_stack)
            if not (node.func.id == "hash" and inside_hash):
                self._flag(
                    node,
                    f"{node.func.id}() is PYTHONHASHSEED/address dependent and "
                    "must not influence compile output or cache keys",
                )

        # list({...}) / tuple({...}) — materializes hash order
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple")
            and node.args
            and self._is_set_expr(node.args[0])
        ):
            self._flag(
                node,
                f"{node.func.id}() over a set materializes hash order; use "
                "sorted(...)",
            )

        # unsorted directory listings
        if tail in _FS_LISTING and id(node) not in self.sorted_args:
            self._flag(
                node,
                f"{tail}() returns entries in filesystem order; wrap in "
                "sorted(...) before the order can reach output",
            )

        # wall-clock reads (monotonic clocks are fine: timing stats only;
        # the observability scope may read wall clocks wholesale)
        if not self.wallclock_exempt:
            if len(parts) >= 2 and parts[-2] == "time" and tail in _WALLCLOCK_TIME:
                self._flag(node, f"time.{tail}() is wall-clock state, not content")
            if len(parts) >= 2 and parts[-2] in ("datetime", "date") and tail in _WALLCLOCK_DATETIME:
                self._flag(node, f"{parts[-2]}.{tail}() is wall-clock state, not content")
            if (
                isinstance(node.func, ast.Name)
                and self.imports.get(node.func.id) == "time"
                and node.func.id in _WALLCLOCK_TIME
            ):
                self._flag(node, f"{node.func.id}() (from time) is wall-clock state")

        # RNG use
        self._check_rng(node, parts, tail)
        self.generic_visit(node)

    def _check_rng(self, node: ast.Call, parts: List[str], tail: str) -> None:
        from_random_module = len(parts) >= 2 and parts[-2] == "random"
        imported_from_random = (
            isinstance(node.func, ast.Name)
            and self.imports.get(node.func.id, "").split(".")[0] in ("random",)
        )
        imported_from_np_random = (
            isinstance(node.func, ast.Name)
            and self.imports.get(node.func.id, "") == "numpy.random"
        )
        if not (from_random_module or imported_from_random or imported_from_np_random):
            return
        if tail in _RNG_SAFE or tail == "seed":
            return
        if tail in _RNG_CONSTRUCTORS:
            if not node.args and not node.keywords:
                self._flag(
                    node,
                    f"{tail}() without a seed draws OS entropy; compile inputs "
                    "must be seeded",
                )
            elif (
                len(node.args) == 1
                and isinstance(node.args[0], ast.Name)
                and self._param_defaults_none(node.args[0].id)
            ):
                self._flag(
                    node,
                    f"{tail}({node.args[0].id}) where '{node.args[0].id}' "
                    "defaults to None: callers omitting the seed get OS "
                    "entropy; resolve an explicit fallback seed first",
                )
            return
        # any other function of the (global, unseeded) random module
        self._flag(
            node,
            f"unseeded global RNG call random.{tail}(); use a seeded "
            "Generator/Random instance",
        )


def _check_rpl003(ctx: _FileContext) -> List[Finding]:
    if not _in_determinism_scope(ctx):
        return []
    visitor = _DeterminismVisitor(ctx)
    assert ctx.tree is not None
    visitor.visit(ctx.tree)
    return visitor.findings


# ---------------------------------------------------------------------------
# RPL004 — environment-variable registry discipline
# ---------------------------------------------------------------------------
def _registry_names(envvars_source: str) -> Set[str]:
    """Every ``REPRO_*`` name declared in an ``envvars.py`` source text."""
    try:
        tree = ast.parse(envvars_source)
    except SyntaxError:
        return set()
    return {
        value
        for value in _string_constants(tree)
        if _ENV_NAME.match(value)
    }


def _env_rule_exempt(ctx: _FileContext) -> bool:
    if ctx.in_repro is not None:
        return ctx.in_repro in ENV_RULE_EXEMPT
    return ctx.path.name == "envvars.py"


def _check_rpl004(ctx: _FileContext, registry: Set[str]) -> List[Finding]:
    if _env_rule_exempt(ctx):
        return []
    assert ctx.tree is not None
    findings: List[Finding] = []

    def resolve(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return ctx.constants.get(node.id)
        return None

    def flag(node: ast.AST, name: str) -> None:
        findings.append(
            Finding(
                ctx.display,
                node.lineno,
                node.col_offset + 1,
                "RPL004",
                f"environment variable '{name}' is not declared in "
                "repro.envvars.ENV_VARS; register it there (the registry "
                "feeds --help epilogs and the docs' env tables) and read it "
                "through repro.envvars.read_env",
            )
        )

    def check_key(node: ast.AST, key: Optional[ast.AST]) -> None:
        if key is None:
            return
        name = resolve(key)
        if name is not None and _ENV_NAME.match(name) and name not in registry:
            flag(node, name)

    for node in ast.walk(ctx.tree):
        parts = _dotted_parts(node.func) if isinstance(node, ast.Call) else []
        if isinstance(node, ast.Call) and len(parts) >= 2:
            # os.environ.get/pop/setdefault(NAME, ...) and os.getenv(NAME)
            if parts[-2] == "environ" and parts[-1] in ("get", "pop", "setdefault"):
                check_key(node, node.args[0] if node.args else None)
            elif parts[-1] == "getenv" and parts[-2] == "os":
                check_key(node, node.args[0] if node.args else None)
        elif isinstance(node, ast.Subscript):
            base = _dotted_parts(node.value)
            if base and base[-1] == "environ":
                check_key(node, node.slice)
        elif isinstance(node, ast.Compare):
            # NAME in os.environ
            for comparator in node.comparators:
                base = _dotted_parts(comparator)
                if base and base[-1] == "environ":
                    check_key(node, node.left)
    return findings


# ---------------------------------------------------------------------------
# RPL005 — lock discipline
# ---------------------------------------------------------------------------
def _is_lock_context(item: ast.withitem) -> bool:
    expr = item.context_expr
    target = expr.func if isinstance(expr, ast.Call) else expr
    parts = _dotted_parts(target)
    return bool(parts) and "lock" in parts[-1].lower()


def _check_rpl005(ctx: _FileContext) -> List[Finding]:
    if ctx.in_repro is not None and not ctx.in_repro.startswith("service/"):
        return []
    assert ctx.tree is not None
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        if not any(_is_lock_context(item) for item in node.items):
            continue
        for stmt in node.body:
            for call in ast.walk(stmt):
                if not isinstance(call, ast.Call):
                    continue
                parts = [p.lower() for p in _dotted_parts(call.func)]
                if not parts:
                    continue
                slow = None
                if any(
                    p in _LOCK_NETWORK_PARTS or "http" in p or p == "remote"
                    for p in parts
                ):
                    slow = "network I/O"
                elif parts[-1] in _LOCK_COMPILE_NAMES:
                    slow = "a compile"
                if slow is not None and not ctx.waived(call.lineno, "RPL005"):
                    findings.append(
                        Finding(
                            ctx.display,
                            call.lineno,
                            call.col_offset + 1,
                            "RPL005",
                            f"{'.'.join(filter(None, parts))}(...) performs "
                            f"{slow} while a lock is held; move the call "
                            "outside the with block, or — for a dedicated "
                            "compile-serialization lock — waive with "
                            "# repro-lint: serialized-compile(<reason>)",
                        )
                    )
    return findings


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------
def _iter_python_files(paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            files.append(path)
    seen: Set[Path] = set()
    unique: List[Path] = []
    for path in files:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def _display_path(path: Path) -> str:
    try:
        return str(path.resolve().relative_to(Path.cwd()))
    except ValueError:
        return str(path)


def _build_registry(contexts: Sequence[_FileContext]) -> Set[str]:
    """Declared ``REPRO_*`` names, from every reachable ``envvars.py``.

    For files inside a ``repro`` package the package's own ``envvars.py`` is
    consulted even when it is not among the linted paths; standalone trees
    (fixtures) contribute any file literally named ``envvars.py``.
    """
    registry: Set[str] = set()
    roots: Set[Path] = set()
    for ctx in contexts:
        if ctx.path.name == "envvars.py":
            registry |= _registry_names(ctx.source)
        if ctx.in_repro is not None:
            parts = ctx.path.parts
            index = len(parts) - 1
            while index >= 0 and parts[index] != "repro":
                index -= 1
            roots.add(Path(*parts[: index + 1]))
    for root in roots:
        candidate = root / "envvars.py"
        if candidate.is_file():
            with contextlib.suppress(OSError):
                registry |= _registry_names(candidate.read_text())
    return registry


def lint_paths(
    paths: Sequence[Path],
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run every (selected) rule over *paths*; returns sorted findings."""
    contexts: List[_FileContext] = []
    findings: List[Finding] = []
    for path in _iter_python_files([Path(p) for p in paths]):
        try:
            source = path.read_text()
        except (OSError, UnicodeDecodeError) as error:
            findings.append(
                Finding(_display_path(path), 0, 0, "RPL000", f"unreadable: {error}")
            )
            continue
        ctx = _FileContext(path, _display_path(path), source)
        if ctx.parse_error is not None:
            findings.append(
                Finding(
                    ctx.display,
                    ctx.parse_error.lineno or 0,
                    (ctx.parse_error.offset or 0),
                    "RPL000",
                    f"syntax error: {ctx.parse_error.msg}",
                )
            )
            continue
        contexts.append(ctx)

    classes = _ClassMap()
    for ctx in contexts:
        _collect_classes(ctx, classes)
    registry = _build_registry(contexts)

    for ctx in contexts:
        findings.extend(ctx.waiver_findings)
        findings.extend(_check_rpl001(ctx, classes))
        findings.extend(_check_rpl002(ctx))
        findings.extend(_check_rpl003(ctx))
        findings.extend(_check_rpl004(ctx, registry))
        findings.extend(_check_rpl005(ctx))

    if rules:
        wanted = set(rules)
        findings = [f for f in findings if f.rule in wanted]
    return sorted(findings, key=Finding.sort_key)


# ---------------------------------------------------------------------------
# output formats + CLI
# ---------------------------------------------------------------------------
def _format_text(findings: Sequence[Finding]) -> str:
    return "\n".join(
        f"{f.path}:{f.line}:{f.col}: {f.rule} {f.message}" for f in findings
    )


def _format_json(findings: Sequence[Finding]) -> str:
    return json.dumps(
        {"version": 1, "count": len(findings), "findings": [asdict(f) for f in findings]},
        indent=2,
        sort_keys=True,
    )


def _escape_workflow(value: str) -> str:
    return value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def _format_github(findings: Sequence[Finding]) -> str:
    """GitHub Actions workflow commands: file/line annotations in the PR."""
    return "\n".join(
        f"::error file={_escape_workflow(f.path)},line={f.line},col={f.col},"
        f"title=repro-lint {f.rule}::{_escape_workflow(f.message)}"
        for f in findings
    )


_FORMATS = {"text": _format_text, "json": _format_json, "github": _format_github}


def _load_baseline(path: Path) -> Set[Tuple[str, str, str]]:
    payload = json.loads(path.read_text())
    return {
        (entry["path"], entry["rule"], entry["message"])
        for entry in payload.get("findings", [])
    }


def _default_paths() -> List[Path]:
    return [Path(__file__).resolve().parents[1]]


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to *parser* (shared with ``repro lint``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        default=None,
        help="files/directories to lint (default: the repro package itself)",
    )
    parser.add_argument(
        "--format", choices=sorted(_FORMATS), default="text", dest="fmt"
    )
    parser.add_argument(
        "--rule",
        action="append",
        choices=sorted(RULES),
        default=None,
        help="restrict to one or more rules (repeatable)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="suppress findings recorded in FILE (a previous --format json run)",
    )
    parser.add_argument(
        "--write-baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="write current findings to FILE (json) and exit 0",
    )


def run(args: argparse.Namespace) -> int:
    """Execute a lint invocation from parsed arguments; returns exit code."""
    findings = lint_paths(args.paths or _default_paths(), rules=args.rule)

    if args.write_baseline is not None:
        args.write_baseline.write_text(_format_json(findings) + "\n")
        print(f"wrote {len(findings)} finding(s) to {args.write_baseline}")
        return 0

    if args.baseline is not None:
        try:
            accepted = _load_baseline(args.baseline)
        except (OSError, ValueError, KeyError) as error:
            print(f"error: cannot read baseline {args.baseline}: {error}", file=sys.stderr)
            return 2
        findings = [f for f in findings if f.baseline_key() not in accepted]

    output = _FORMATS[args.fmt](findings)
    if output:
        print(output)
    if args.fmt == "text":
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"repro lint: {len(findings)} {noun}", file=sys.stderr)
    return 1 if findings else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based invariant checker (see docs/static-analysis.md)",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI tests
    sys.exit(main())
