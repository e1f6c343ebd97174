"""The heaplint rule catalogue (HL001-HL005).

Every rule encodes an invariant this codebase actually depends on; the
module docstrings in :mod:`repro.tfhe.batch_engine`,
:mod:`repro.tfhe.repack_engine` and :mod:`repro.math.ntt` motivate them.
See ``DESIGN.md`` section 8 for the prose catalogue.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .core import FileContext, Finding, Rule

#: Modules whose inner loops must stay on fixed-width numpy paths (HL001).
HOT_PATH_MODULES: Tuple[str, ...] = (
    "repro/tfhe/batch_engine.py",
    "repro/tfhe/repack_engine.py",
    "repro/math/ntt.py",
    "repro/math/automorphism.py",
    "repro/math/rns.py",
    "repro/ckks/keyswitch_engine.py",
    "repro/switching/functional.py",
)

#: Comment marker that discharges an HL002 proof obligation.
LAZY_BOUND_MARKER = "lazy-bound:"

_U64_LIMIT = (1 << 64) - 1


def _call_name(node: ast.Call) -> str:
    """Trailing identifier of the called object (``a.b.c()`` -> ``c``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _dotted_name(node: ast.expr) -> str:
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


def _is_object_name(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "object"


def _iter_functions(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


class HotPathObjectDtypeRule(Rule):
    """HL001: no object-dtype ndarrays in hot-path modules.

    Object arrays push every element op back into the Python interpreter
    — exactly what PR 1/PR 2 removed from BlindRotate and repack.  In the
    modules listed in :data:`HOT_PATH_MODULES`, any ``dtype=object``
    construction or ``.astype(object)`` coercion must either move to a
    fixed-width path or carry a justified suppression (e.g. exact big-int
    CRT composition on the wide-modulus path).
    """

    code = "HL001"
    name = "hot-path-object-dtype"
    description = ("object-dtype ndarray constructed or coerced inside a "
                   "hot-path module")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.path.endswith(HOT_PATH_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg == "dtype" and _is_object_name(kw.value):
                    yield ctx.finding(
                        self.code, node,
                        "object-dtype array construction in a hot-path "
                        "module; use the engine dtype or a fixed-width path",
                    )
            if _call_name(node) == "astype" and node.args \
                    and _is_object_name(node.args[0]):
                yield ctx.finding(
                    self.code, node,
                    "astype(object) coercion in a hot-path module; keep hot "
                    "tensors on fixed-width dtypes",
                )


class LazyBoundProofRule(Rule):
    """HL002: reduction-deferred uint64 accumulation needs a bound proof.

    The lazy-MAC trick (sum unreduced uint64 products, reduce once at the
    drain) is only correct when the worst-case accumulated magnitude fits
    in 64 bits — the ``(rows + 2) * (q - 1)**2 <= 2**64 - 1`` pattern.
    Any function doing reduction-deferred uint64 arithmetic must contain
    either a statically checkable bound guard (a comparison involving a
    2^64 constant such as ``_U64_MAX``) or a ``# lazy-bound:`` proof
    annotation stating where the bound is established.  Calls of the
    lazy helpers (``matmul_mod``; the float64 FFT's
    ``round_to_residues``, exact only inside ``split_plan``'s bound)
    carry the same obligation at each call site.
    """

    code = "HL002"
    name = "lazy-bound-proof"
    description = ("uint64 multiply-accumulate with deferred reduction and "
                   "no adjacent bound guard or '# lazy-bound:' annotation")

    _ARITH_CALLS = frozenset(
        {"matmul", "multiply", "add", "subtract", "sum", "dot", "einsum"})
    _LAZY_HELPERS = frozenset({"matmul_mod", "round_to_residues"})

    # -- detection helpers --------------------------------------------------

    @staticmethod
    def _is_u64_view(node: ast.AST) -> bool:
        """``<expr>.view(np.uint64)`` (or ``.view(numpy.uint64)``)."""
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "view"
                and len(node.args) == 1
                and _dotted_name(node.args[0]).endswith("uint64"))

    def _contains_u64_view(self, node: ast.AST) -> bool:
        return any(self._is_u64_view(n) for n in ast.walk(node))

    def _is_lazy_site(self, stmt: ast.stmt) -> bool:
        has_arith = False
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name in self._LAZY_HELPERS:
                    return True
                if name in self._ARITH_CALLS and self._contains_u64_view(node):
                    has_arith = True
            elif isinstance(node, ast.BinOp) and isinstance(
                    node.op, (ast.Mult, ast.MatMult, ast.Add, ast.Sub)):
                if self._contains_u64_view(node):
                    has_arith = True
            elif isinstance(node, ast.AugAssign) and isinstance(
                    node.op, (ast.Mult, ast.MatMult, ast.Add, ast.Sub)):
                if self._contains_u64_view(node.value):
                    has_arith = True
        return has_arith

    @classmethod
    def _is_u64_constant(cls, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return node.value in (_U64_LIMIT, _U64_LIMIT + 1)
        if isinstance(node, ast.Name):
            return "U64" in node.id.upper()
        if isinstance(node, ast.Attribute):
            return "U64" in node.attr.upper()
        if isinstance(node, ast.BinOp):
            # (1 << 64), 2 ** 64, and off-by-one variants thereof.
            return cls._is_u64_constant(node.left) or cls._is_u64_constant(
                node.right) or cls._spells_two_to_64(node)
        return False

    @staticmethod
    def _spells_two_to_64(node: ast.BinOp) -> bool:
        def const(n: ast.expr) -> Optional[int]:
            return n.value if isinstance(n, ast.Constant) \
                and isinstance(n.value, int) else None

        left, right = const(node.left), const(node.right)
        if isinstance(node.op, ast.LShift):
            return left == 1 and right == 64
        if isinstance(node.op, ast.Pow):
            return left == 2 and right == 64
        return False

    def _has_bound_guard(self, func: ast.AST) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(self._is_u64_constant(op) for op in operands):
                    return True
        return False

    @staticmethod
    def _has_annotation(ctx: FileContext, func: ast.AST) -> bool:
        start = getattr(func, "lineno", 1)
        end = getattr(func, "end_lineno", start) or start
        return any(LAZY_BOUND_MARKER in ctx.line_text(i)
                   for i in range(start, end + 1))

    # -- rule body ----------------------------------------------------------

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func in _iter_functions(ctx.tree):
            sites = [stmt for node in ast.walk(func)
                     for stmt in ([node] if isinstance(node, ast.stmt) else [])
                     if self._is_lazy_site(stmt)]
            if not sites:
                continue
            if self._has_bound_guard(func) or self._has_annotation(ctx, func):
                continue
            first = min(sites, key=lambda s: s.lineno)
            fname = getattr(func, "name", "<lambda>")
            yield ctx.finding(
                self.code, first,
                f"function '{fname}' defers uint64 reductions but carries "
                "no statically checkable bound guard (compare against a "
                "2^64 constant) and no '# lazy-bound:' proof annotation",
            )


class NttDomainDisciplineRule(Rule):
    """HL003: no mixing of eval-domain and coeff-domain operands.

    Values returned by forward/inverse NTT helpers are tagged
    intraprocedurally; an arithmetic op whose operands carry different
    tags is almost certainly a bug — pointwise arithmetic on an NTT
    spectrum and a coefficient vector produces garbage that no exception
    will ever catch.
    """

    code = "HL003"
    name = "ntt-domain-discipline"
    description = ("arithmetic mixes an eval-domain (NTT) value with a "
                   "coefficient-domain value")

    _TO_EVAL = frozenset({"forward", "forward_axis0", "to_eval"})
    _TO_COEFF = frozenset({"inverse", "inverse_axis0", "to_coeff"})
    _ARITH_HELPERS = frozenset(
        {"add", "sub", "mul", "mac", "pointwise", "matmul_mod"})

    def _tag_of_call(self, node: ast.Call) -> Optional[str]:
        name = _call_name(node)
        if name in self._TO_EVAL:
            return "eval"
        if name in self._TO_COEFF:
            return "coeff"
        return None

    def _expr_tag(self, node: ast.expr, tags: Dict[str, str]) -> Optional[str]:
        if isinstance(node, ast.Name):
            return tags.get(node.id)
        if isinstance(node, ast.Call):
            return self._tag_of_call(node)
        if isinstance(node, ast.BinOp):
            lt = self._expr_tag(node.left, tags)
            rt = self._expr_tag(node.right, tags)
            return lt or rt
        if isinstance(node, (ast.Subscript, ast.Starred)):
            return self._expr_tag(node.value, tags)
        return None

    def _check_pair(self, ctx: FileContext, node: ast.AST, a: Optional[str],
                    b: Optional[str]) -> Optional[Finding]:
        if a is not None and b is not None and a != b:
            return ctx.finding(
                self.code, node,
                f"operand domains disagree ({a} vs {b}): transform both "
                "sides to the same NTT domain before combining them",
            )
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func in _iter_functions(ctx.tree):
            tags: Dict[str, str] = {}
            yield from self._process(ctx, getattr(func, "body", []), tags)

    def _process(self, ctx: FileContext, stmts: Sequence[ast.stmt],
                 tags: Dict[str, str]) -> Iterator[Finding]:
        """Walk statements in source order so tags flow forward, descending
        into compound statements (loop bodies reuse pre-loop tags; branch
        tags merge optimistically — this is a lint pass, not an abstract
        interpreter, and the baseline absorbs the rare false positive)."""
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # nested scopes are analysed separately
            if isinstance(stmt, (ast.If, ast.While)):
                yield from self._flag_expr(ctx, stmt.test, tags)
                yield from self._process(ctx, stmt.body, tags)
                yield from self._process(ctx, stmt.orelse, tags)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                yield from self._flag_expr(ctx, stmt.iter, tags)
                yield from self._process(ctx, stmt.body, tags)
                yield from self._process(ctx, stmt.orelse, tags)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                yield from self._process(ctx, stmt.body, tags)
            elif isinstance(stmt, ast.Try):
                yield from self._process(ctx, stmt.body, tags)
                for handler in stmt.handlers:
                    yield from self._process(ctx, handler.body, tags)
                yield from self._process(ctx, stmt.orelse, tags)
                yield from self._process(ctx, stmt.finalbody, tags)
            else:
                yield from self._flag_expr(ctx, stmt, tags)
                self._update_tags(stmt, tags)

    def _flag_expr(self, ctx: FileContext, root: ast.AST,
                   tags: Dict[str, str]) -> Iterator[Finding]:
        for node in ast.walk(root):
            if isinstance(node, ast.BinOp) and isinstance(
                    node.op, (ast.Add, ast.Sub, ast.Mult)):
                bad = self._check_pair(
                    ctx, node,
                    self._expr_tag(node.left, tags),
                    self._expr_tag(node.right, tags))
                if bad is not None:
                    yield bad
            elif isinstance(node, ast.Call) \
                    and _call_name(node) in self._ARITH_HELPERS \
                    and len(node.args) >= 2:
                bad = self._check_pair(
                    ctx, node,
                    self._expr_tag(node.args[0], tags),
                    self._expr_tag(node.args[1], tags))
                if bad is not None:
                    yield bad

    def _update_tags(self, stmt: ast.stmt, tags: Dict[str, str]) -> None:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            target = stmt.targets[0].id
            tag = self._expr_tag(stmt.value, tags)
            if tag is not None:
                tags[target] = tag
            else:
                tags.pop(target, None)


class SecretHygieneRule(Rule):
    """HL004: secret-key material must not reach strings, logs or errors.

    Two checks: (a) values that are secret-key typed (by annotation,
    construction or naming convention) must not flow into f-strings,
    ``str.format``, ``repr()``/``str()``, logging calls or exception
    messages — structural attributes (``dim``, ``n``, ``h``, ...) are
    fine, the coefficient payload is not; (b) a ``@dataclass`` whose name
    marks it as a secret key must define ``__repr__`` — the generated
    repr would dump every coefficient into any traceback or debug log.

    Key *seeds* are secrets too: with seeded key streaming the per-key
    PRNG seed plus the ``b``-halves reconstructs the full evaluation
    key, so a leaked ``mask_seed``/``key_seed`` (or any
    ``derive_seed(...)`` result) is as damaging as leaked coefficients.
    Seed-named values flow through the same sink checks, and a
    ``@dataclass`` carrying a seed-named field must either redact it
    (``field(repr=False)``) or define its own ``__repr__``.
    """

    code = "HL004"
    name = "secret-hygiene"
    description = ("secret-key material flows into repr/str/f-string/"
                   "logging/exception text")

    _SECRET_NAME_RE = re.compile(
        r"(^|_)(sk|secret|secret_key)(_|$)|(^|_)sk\d*$", re.IGNORECASE)
    #: Key-expansion seeds: together with the stored b-halves these
    #: reconstruct the full key, so they get the same hygiene.  The
    #: plain name ``seed`` stays benign (samplers take public seeds
    #: everywhere); only key-scoped seed names are secrets.
    _SEED_NAME_RE = re.compile(
        r"(^|_)(mask_seeds?|key_seed|brk_seed|auto_seed)(_|$)",
        re.IGNORECASE)
    _SECRET_TYPE_RE = re.compile(r"SecretKey")
    #: Attributes safe to format: structure, never coefficient payload.
    _SAFE_ATTRS = frozenset(
        {"dim", "n", "h", "q", "shape", "name", "basis", "domain"})
    _LOG_METHODS = frozenset(
        {"debug", "info", "warning", "warn", "error", "exception", "critical",
         "log"})
    _LOG_OBJECTS = frozenset({"logging", "logger", "log"})

    # -- secret value collection -------------------------------------------

    def _annotation_is_secret(self, node: Optional[ast.expr]) -> bool:
        if node is None:
            return False
        return any(self._SECRET_TYPE_RE.search(_dotted_name(n) or "")
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))

    def _value_is_secret(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if self._SECRET_TYPE_RE.search(name):
                return True
            # derive_seed(master, ...) results are per-key expansion
            # seeds — secret regardless of what they're assigned to.
            if name.split(".")[-1] == "derive_seed":
                return True
            if name in ("secret_key", "generate") and isinstance(
                    node.func, ast.Attribute):
                return self._SECRET_TYPE_RE.search(
                    _dotted_name(node.func.value)) is not None \
                    or name == "secret_key"
        return False

    def _collect_secrets(self, func: ast.AST) -> Set[str]:
        secrets: Set[str] = set()
        args = getattr(func, "args", None)
        if args is not None:
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if self._annotation_is_secret(arg.annotation) \
                        or self._SECRET_NAME_RE.search(arg.arg) \
                        or self._SEED_NAME_RE.search(arg.arg):
                    secrets.add(arg.arg)
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and (
                            self._value_is_secret(node.value)
                            or self._SECRET_NAME_RE.search(target.id)
                            or self._SEED_NAME_RE.search(target.id)):
                        secrets.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name):
                if self._annotation_is_secret(node.annotation):
                    secrets.add(node.target.id)
        return secrets

    def _secret_leak(self, node: ast.AST, secrets: Set[str]) -> bool:
        """Does this subtree read a secret's payload (not a safe attr)?"""
        for n in ast.walk(node):
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) \
                    and n.value.id in secrets:
                if n.attr not in self._SAFE_ATTRS:
                    return True
            elif isinstance(n, ast.Name) and n.id in secrets:
                if not self._wrapped_in_safe_attribute(node, n):
                    return True
        return False

    @staticmethod
    def _wrapped_in_safe_attribute(root: ast.AST, name: ast.Name) -> bool:
        """True when ``name`` only appears as ``name.<safe attr>``."""
        for n in ast.walk(root):
            if isinstance(n, ast.Attribute) and n.value is name:
                return n.attr in SecretHygieneRule._SAFE_ATTRS
        return False

    # -- sinks --------------------------------------------------------------

    def _sink_nodes(self, func: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(func):
            if isinstance(node, ast.JoinedStr):
                for part in node.values:
                    if isinstance(part, ast.FormattedValue):
                        yield part.value, "f-string"
            elif isinstance(node, ast.Call):
                name = _call_name(node)
                if name in ("repr", "str", "format"):
                    for arg in node.args:
                        yield arg, f"{name}() call"
                if name in self._LOG_METHODS and isinstance(
                        node.func, ast.Attribute):
                    base = _dotted_name(node.func.value).split(".")[0]
                    if base in self._LOG_OBJECTS:
                        for arg in [*node.args,
                                    *[k.value for k in node.keywords]]:
                            yield arg, "logging call"
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) \
                    and isinstance(node.left, ast.Constant) \
                    and isinstance(node.left.value, str):
                yield node.right, "%-format of a string"
            elif isinstance(node, ast.Raise) and node.exc is not None:
                if isinstance(node.exc, ast.Call):
                    for arg in node.exc.args:
                        yield arg, "exception message"

    # -- rule body ----------------------------------------------------------

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._check_dataclasses(ctx)
        for func in _iter_functions(ctx.tree):
            secrets = self._collect_secrets(func)
            if not secrets:
                continue
            for sink, kind in self._sink_nodes(func):
                if self._secret_leak(sink, secrets):
                    yield ctx.finding(
                        self.code, sink,
                        f"secret-key material flows into a {kind}; format "
                        "structural attributes (dim/n/h) only, never "
                        "coefficient data",
                    )

    @staticmethod
    def _field_repr_disabled(value: Optional[ast.expr]) -> bool:
        """True for ``field(..., repr=False)`` declarations."""
        if not isinstance(value, ast.Call):
            return False
        if _call_name(value).split(".")[-1] != "field":
            return False
        return any(kw.arg == "repr" and isinstance(kw.value, ast.Constant)
                   and kw.value.value is False for kw in value.keywords)

    def _check_dataclasses(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            is_dataclass = any(
                _dotted_name(d if not isinstance(d, ast.Call) else d.func)
                .split(".")[-1] == "dataclass"
                for d in node.decorator_list)
            if not is_dataclass:
                continue
            has_repr = any(isinstance(b, ast.FunctionDef)
                           and b.name == "__repr__" for b in node.body)
            if has_repr:
                continue
            if self._SECRET_TYPE_RE.search(node.name) \
                    or self._SECRET_NAME_RE.search(node.name):
                yield ctx.finding(
                    self.code, node,
                    f"dataclass '{node.name}' holds secret-key material but "
                    "has no redacting __repr__: the generated repr dumps "
                    "every coefficient into tracebacks and logs",
                )
                continue
            leaky_seeds = [
                b.target.id for b in node.body
                if isinstance(b, ast.AnnAssign)
                and isinstance(b.target, ast.Name)
                and self._SEED_NAME_RE.search(b.target.id)
                and not self._field_repr_disabled(b.value)]
            if leaky_seeds:
                yield ctx.finding(
                    self.code, node,
                    f"dataclass '{node.name}' exposes key seed field(s) "
                    f"{', '.join(sorted(leaky_seeds))} in its generated "
                    "repr; declare them field(repr=False) or write a "
                    "redacting __repr__ — seed + b-halves reconstruct the "
                    "full evaluation key",
                )


class ParamConstructionRule(Rule):
    """HL005: parameter dataclasses built from literals must be valid.

    ``make_heap_params``/``make_toy_params`` derive every knob from a
    validated prime search; hand-rolled ``CkksParams``/``TfheParams``
    literals bypass that.  A literal ring dimension must be a power of
    two and literal moduli must be NTT-friendly (``q = 1 (mod 2N)``) —
    a non-friendly prime has no 2N-th root of unity and the NTT engine
    will reject it only at first use, far from the construction site.
    """

    code = "HL005"
    name = "param-construction"
    description = ("parameter dataclass instantiated with invalid literals "
                   "(non-power-of-2 N or non-NTT-friendly modulus)")

    _PARAM_CLASSES = frozenset({"CkksParams", "TfheParams"})
    _MODULI_KEYS = frozenset({"moduli", "special_moduli"})
    _SCALAR_MODULUS_KEYS = frozenset({"q", "aux_prime"})

    @staticmethod
    def _literal_int(node: ast.expr) -> Optional[int]:
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return node.value
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift):
            left = ParamConstructionRule._literal_int(node.left)
            right = ParamConstructionRule._literal_int(node.right)
            if left is not None and right is not None:
                return left << right
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            left = ParamConstructionRule._literal_int(node.left)
            right = ParamConstructionRule._literal_int(node.right)
            if left is not None and right is not None:
                return left ** right
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.path.endswith("repro/params.py"):
            return  # the validated constructors themselves live here
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node) not in self._PARAM_CLASSES:
                continue
            kwargs = {kw.arg: kw.value for kw in node.keywords
                      if kw.arg is not None}
            n_node = kwargs.get("n")
            n_val = self._literal_int(n_node) if n_node is not None else None
            if n_val is not None and (n_val < 2 or n_val & (n_val - 1)):
                yield ctx.finding(
                    self.code, node,
                    f"literal ring dimension n={n_val} is not a power of "
                    "two; use make_toy_params()/make_heap_params()",
                )
                continue
            for key, value in kwargs.items():
                if n_val is None:
                    break
                literals: List[Tuple[ast.expr, Optional[int]]] = []
                if key in self._MODULI_KEYS and isinstance(
                        value, (ast.List, ast.Tuple)):
                    literals = [(e, self._literal_int(e)) for e in value.elts]
                elif key in self._SCALAR_MODULUS_KEYS:
                    literals = [(value, self._literal_int(value))]
                for expr, q in literals:
                    if q is not None and q % (2 * n_val) != 1:
                        yield ctx.finding(
                            self.code, expr,
                            f"literal modulus {q} is not NTT-friendly for "
                            f"N={n_val} (needs q = 1 mod {2 * n_val}); use "
                            "find_ntt_primes() or the params factories",
                        )
