"""Repo-wide symbol table and call graph for the HL1xx concurrency rules.

The HL0xx rules are single-file: each invariant they check is visible in
one module's AST.  Concurrency invariants are not — whether a write to a
module-level cache races depends on *who can reach the writing function*:
an ``async def`` coroutine, a ``threading.Thread`` target, a function
shipped to ``asyncio.to_thread``, or a ``multiprocessing`` worker main
three modules away.  This module builds the cross-module picture those
rules consume:

* :class:`ProjectIndex` — every function/method of every analyzed file,
  keyed by qualified name (``module.Class.method``), plus each module's
  mutable module-level and class-level state (dicts, lists, sets,
  ndarrays — the cache shapes).
* A call graph over those functions.  Resolution is deliberately
  lightweight and *over-approximate*: plain names resolve through local
  definitions and ``from x import y`` aliases; ``self.m()`` prefers the
  enclosing class; any other ``obj.m()`` links to every project function
  named ``m`` (minus a denylist of ubiquitous names like ``get``/
  ``items`` that would connect everything to everything).  For a lint
  pass, reaching too much is safe — a finding needs a *write* to shared
  state, not mere reachability — while reaching too little silently
  hides races.
* Entry points and a BFS reachability map: which functions can execute
  on a worker thread, inside the event loop, or as a spawned process
  main, and through which entry they were reached (findings report the
  chain so the reader can judge the path).

Everything is stdlib :mod:`ast`; the index is rebuilt per lint run (the
tree is a few hundred functions — milliseconds, not a cost worth a
cache that could go stale).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .core import FileContext

#: Attribute-call names too common to resolve by bare name: linking every
#: ``d.get(k)`` to ``LruKeyCache.get`` would make the whole repo reachable
#: from any entry point through dict/list/set method homonyms.
UBIQUITOUS_METHOD_NAMES = frozenset({
    "get", "set", "add", "append", "extend", "insert", "pop", "update",
    "items", "keys", "values", "clear", "copy", "remove", "discard",
    "join", "split", "strip", "read", "write", "close", "open", "send",
    "recv", "put", "sort", "count", "index", "format", "encode", "decode",
    "setdefault", "reshape", "view", "astype", "stack", "mean", "sum",
})

#: Callables whose first argument runs on a worker thread / executor.
THREAD_DISPATCHERS = frozenset({"to_thread", "run_in_executor", "submit",
                                "map", "apply_async", "starmap"})

#: Constructors whose ``target=`` keyword becomes a thread/process main.
TARGET_CONSTRUCTORS = {
    "Thread": "thread",
    "Timer": "thread",
    "Process": "process",
}

#: np.ndarray-producing constructors (module-level arrays are shared state).
NDARRAY_CONSTRUCTORS = frozenset({"array", "zeros", "ones", "empty",
                                  "full", "arange", "asarray"})

MUTABLE_CONSTRUCTORS = frozenset({"dict", "list", "set", "bytearray",
                                  "OrderedDict", "defaultdict", "deque",
                                  "Counter"}) | NDARRAY_CONSTRUCTORS


def call_name(node: ast.Call) -> str:
    """Trailing identifier of the called object (``a.b.c()`` -> ``c``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def dotted_name(node: ast.expr) -> str:
    """``a.b.c`` rendered as a dotted string (empty for other shapes)."""
    parts: List[str] = []
    cur: ast.expr = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return ""


def module_name_for_path(path: str) -> str:
    """Dotted module name derived from a repo-relative path
    (``src/repro/math/ntt.py`` -> ``repro.math.ntt``)."""
    parts = path.replace("\\", "/").split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    while parts and parts[0] in ("src", ".", ""):
        parts = parts[1:]
    return ".".join(parts)


@dataclass
class CallSite:
    """One call expression inside a function body."""

    name: str          # trailing identifier
    dotted: str        # full dotted callee ('' when not a plain chain)
    node: ast.Call
    #: Receiver of a method call ('' for plain names; 'self'/'cls'
    #: trigger enclosing-class resolution).
    receiver: str


@dataclass
class FunctionInfo:
    """One function or method of the analyzed project."""

    qualname: str                     # module.Class.method / module.func
    name: str                         # bare name
    module: str
    cls: Optional[str]
    node: ast.AST                     # FunctionDef | AsyncFunctionDef
    ctx: FileContext
    is_async: bool
    #: Bare names of functions *defined lexically inside* this one
    #: (closures — relevant to the pickle rule).
    nested: Set[str] = field(default_factory=set)
    calls: List[CallSite] = field(default_factory=list)


@dataclass
class MutableGlobal:
    """One module-level (or class-level) mutable binding."""

    module: str
    name: str                        # 'CACHE' or 'Class.attr'
    kind: str                        # 'dict' / 'list' / 'set' / 'ndarray'
    node: ast.AST                    # the defining assignment
    line: int


@dataclass
class EntryPoint:
    """Why a function counts as a concurrent execution root."""

    qualname: str
    kind: str                        # 'async' / 'thread' / 'process'
    detail: str


class ProjectIndex:
    """Symbol table + call graph + entry-point reachability over a set of
    parsed :class:`~repro.lint.core.FileContext` objects."""

    def __init__(self, contexts: Sequence[FileContext]):
        self.contexts = list(contexts)
        self.functions: Dict[str, FunctionInfo] = {}
        self.by_name: Dict[str, List[FunctionInfo]] = {}
        #: module -> {alias: imported bare name} from ``from x import y``.
        self._import_aliases: Dict[str, Dict[str, str]] = {}
        self.mutable_globals: Dict[str, List[MutableGlobal]] = {}
        self.entry_points: List[EntryPoint] = []
        self.edges: Dict[str, Set[str]] = {}
        #: qualname -> (entry kind, human-readable chain description).
        self.reachable_from: Dict[str, Tuple[str, str]] = {}
        for ctx in self.contexts:
            self._index_module(ctx)
        self._build_edges()
        self._find_entry_points()
        self._propagate_reachability()

    # -- indexing -----------------------------------------------------------

    def _index_module(self, ctx: FileContext) -> None:
        module = module_name_for_path(ctx.path)
        aliases: Dict[str, str] = {}
        self._import_aliases[module] = aliases
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    aliases[alias.asname or alias.name] = alias.name
        self._index_scope(ctx, module, ctx.tree, cls=None)
        self.mutable_globals[module] = list(
            self._collect_mutable_globals(module, ctx.tree))

    def _index_scope(self, ctx: FileContext, module: str, scope: ast.AST,
                     cls: Optional[str]) -> None:
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, ast.ClassDef):
                self._index_scope(ctx, module, node, cls=node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(ctx, module, node, cls)

    def _index_function(self, ctx: FileContext, module: str, node: ast.AST,
                        cls: Optional[str]) -> None:
        name = getattr(node, "name", "<lambda>")
        qual = f"{module}.{cls}.{name}" if cls else f"{module}.{name}"
        info = FunctionInfo(
            qualname=qual, name=name, module=module, cls=cls, node=node,
            ctx=ctx, is_async=isinstance(node, ast.AsyncFunctionDef))
        for child in ast.walk(node):
            if child is node:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.nested.add(child.name)
                # Nested defs are indexed too (they may be thread targets).
                self._index_function(ctx, module, child, cls)
            elif isinstance(child, ast.Call):
                receiver = ""
                if isinstance(child.func, ast.Attribute) and isinstance(
                        child.func.value, ast.Name):
                    receiver = child.func.value.id
                info.calls.append(CallSite(
                    name=call_name(child), dotted=dotted_name(child.func),
                    node=child, receiver=receiver))
        # Later definitions win, matching runtime rebinding; nested
        # helpers keyed by the same qualname keep the outer one.
        if qual not in self.functions or getattr(
                self.functions[qual].node, "lineno", 0) < getattr(
                node, "lineno", 0):
            self.functions[qual] = info
        self.by_name.setdefault(name, []).append(info)

    # -- mutable module/class state -----------------------------------------

    def _collect_mutable_globals(self, module: str,
                                 tree: ast.AST) -> Iterator[MutableGlobal]:
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                yield from self._mutable_bindings(module, node, cls=None)
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                        yield from self._mutable_bindings(module, stmt,
                                                          cls=node.name)

    def _mutable_bindings(self, module: str, node: ast.AST,
                          cls: Optional[str]) -> Iterator[MutableGlobal]:
        if isinstance(node, ast.Assign):
            targets = node.targets
            value: Optional[ast.expr] = node.value
        else:
            assert isinstance(node, ast.AnnAssign)
            targets = [node.target]
            value = node.value
        kind = self._mutable_kind(value)
        if kind is None:
            return
        for target in targets:
            if isinstance(target, ast.Name):
                name = target.id if cls is None else f"{cls}.{target.id}"
                yield MutableGlobal(module=module, name=name, kind=kind,
                                    node=node,
                                    line=getattr(node, "lineno", 1))

    @staticmethod
    def _mutable_kind(value: Optional[ast.expr]) -> Optional[str]:
        if value is None:
            return None
        if isinstance(value, ast.Dict) or (
                isinstance(value, ast.DictComp)):
            return "dict"
        if isinstance(value, (ast.List, ast.ListComp)):
            return "list"
        if isinstance(value, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(value, ast.Call):
            name = call_name(value)
            if name in NDARRAY_CONSTRUCTORS and \
                    dotted_name(value.func).split(".")[0] in ("np", "numpy"):
                return "ndarray"
            if name in ("dict", "OrderedDict", "defaultdict", "Counter"):
                return "dict"
            if name == "list" or name == "deque":
                return "list"
            if name in ("set", "bytearray"):
                return "set"
        return None

    # -- call graph ----------------------------------------------------------

    def _resolve(self, info: FunctionInfo, site: CallSite) -> List[str]:
        """Qualified names a call site may reach (over-approximate)."""
        out: List[str] = []
        is_plain = isinstance(site.node.func, ast.Name)
        if is_plain:
            # Local module function, or a `from x import y` alias.
            name = self._import_aliases.get(info.module, {}).get(
                site.name, site.name)
            qual = f"{info.module}.{name}"
            if qual in self.functions:
                return [qual]
            for cand in self.by_name.get(name, []):
                if cand.cls is None:
                    out.append(cand.qualname)
            return out
        if site.receiver in ("self", "cls") and info.cls is not None:
            own = f"{info.module}.{info.cls}.{site.name}"
            if own in self.functions:
                return [own]
        if site.name in UBIQUITOUS_METHOD_NAMES:
            return []
        for cand in self.by_name.get(site.name, []):
            out.append(cand.qualname)
        return out

    def _build_edges(self) -> None:
        for qual, info in self.functions.items():
            targets: Set[str] = set()
            for site in info.calls:
                targets.update(self._resolve(info, site))
            self.edges[qual] = targets

    # -- entry points ---------------------------------------------------------

    def _find_entry_points(self) -> None:
        for qual, info in self.functions.items():
            if info.is_async:
                self.entry_points.append(EntryPoint(
                    qual, "async", f"async def {info.name}"))
        for qual, info in self.functions.items():
            for site in info.calls:
                self._entry_from_call(info, site)

    def _entry_from_call(self, info: FunctionInfo, site: CallSite) -> None:
        kind = TARGET_CONSTRUCTORS.get(site.name)
        if kind is not None:
            for kw in site.node.keywords:
                if kw.arg == "target":
                    self._mark_targets(info, kw.value, kind,
                                       f"{site.name}(target=...) in "
                                       f"{info.qualname}")
            return
        if site.name in THREAD_DISPATCHERS and site.node.args:
            self._mark_targets(info, site.node.args[0], "thread",
                               f"{site.dotted or site.name}(...) in "
                               f"{info.qualname}")

    def _mark_targets(self, info: FunctionInfo, expr: ast.expr, kind: str,
                      detail: str) -> None:
        name = ""
        if isinstance(expr, ast.Name):
            name = expr.id
        elif isinstance(expr, ast.Attribute):
            name = expr.attr
        if not name:
            return
        local = f"{info.module}.{name}"
        candidates = [local] if local in self.functions else [
            c.qualname for c in self.by_name.get(name, [])]
        if info.cls is not None:
            own = f"{info.module}.{info.cls}.{name}"
            if own in self.functions:
                candidates = [own]
        for qual in candidates:
            self.entry_points.append(EntryPoint(qual, kind, detail))

    # -- reachability ---------------------------------------------------------

    def _propagate_reachability(self) -> None:
        frontier: List[str] = []
        for ep in self.entry_points:
            if ep.qualname in self.functions and \
                    ep.qualname not in self.reachable_from:
                self.reachable_from[ep.qualname] = (ep.kind, ep.detail)
                frontier.append(ep.qualname)
        while frontier:
            cur = frontier.pop()
            kind, detail = self.reachable_from[cur]
            for nxt in self.edges.get(cur, ()):
                if nxt not in self.reachable_from:
                    self.reachable_from[nxt] = (
                        kind, f"{detail} -> {self._short(cur)}"
                        if self._short(cur) not in detail else detail)
                    frontier.append(nxt)

    @staticmethod
    def _short(qualname: str) -> str:
        return qualname.split(".", 1)[-1]

    # -- queries for rules ----------------------------------------------------

    def concurrent_reach(self, qualname: str) -> Optional[Tuple[str, str]]:
        """``(kind, chain)`` when ``qualname`` can run on a thread or the
        event loop (``process`` entries have private memory and do not
        count for shared-state rules)."""
        info = self.reachable_from.get(qualname)
        if info is not None and info[0] in ("async", "thread"):
            return info
        return None

    def is_async_function(self, name: str) -> bool:
        """Whether *every* project function with this bare name is a
        coroutine (used by the never-awaited check; a name that is async
        in one module and sync in another stays un-flagged)."""
        cands = self.by_name.get(name, [])
        return bool(cands) and all(c.is_async for c in cands)
