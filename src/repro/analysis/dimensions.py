"""Interprocedural dimensional analysis: units as exponent vectors.

The suffix checker (:mod:`repro.analysis.unitcheck`) is lexical — it
sees ``x_hz + y_s`` but not ``p = total_power_w; e = p * wall_s;
e + frequency_hz``.  This checker runs a small abstract interpreter
over every function: physical units are exponent vectors over six base
axes (``W`` power, ``V`` voltage, ``s`` time, ``K`` kelvin, ``C``
celsius, ``m`` length) plus a magnitude scale, seeded from name
suffixes, :mod:`repro.units` constants, and callee return summaries
computed by a fixpoint over the call graph
(:mod:`repro.analysis.flow`).  The algebra is the physical one:

* ``power * time`` unifies with energy (``J == W·s``), so
  ``ed2p = energy_j * delay_s ** 2`` carries ``W·s³`` and adding it to
  a power or frequency is flagged;
* ``GHz`` and ``Hz`` share the vector ``s⁻¹`` but differ in scale, so
  mixed-magnitude sums are flagged even though the dimension matches;
* Celsius and kelvin are distinct axes related by the
  ``ZERO_CELSIUS_IN_KELVIN`` offset — adding the offset to a Celsius
  value *converts* it, any other K/°C mix is flagged.

Rules (scoped to :data:`DEFAULT_DIM_SCOPE` — the metric pipelines the
figures are computed from):

* ``DIM-MISMATCH`` (error) — ``+``/``-``/comparison between
  incompatible quantities: different exponent vectors, or the same
  vector at different magnitudes (``GHz + Hz``).
* ``DIM-RETURN`` (error) — a function whose name suffix declares a
  unit returns a quantity with a different vector or magnitude
  (including a dimensionless ratio: a unit-erasing return).
* ``DIM-EXP`` (warning) — a united quantity raised to a non-integer
  constant power: the result's exponent vector would be fractional.

Inference is conservative: unknown stays unknown, bare numeric
constants are polymorphic (``power_w * 2`` is still watts), and
multiplying by a recognised scale constant (``GIGA``, ``1e-6``)
*converts* the magnitude rather than guessing.
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.analysis.findings import Finding
from repro.analysis.flow.callgraph import (
    CallGraph,
    call_candidates,
    node_id,
)
from repro.analysis.flow.dataflow import solve_summaries
from repro.analysis.index import FunctionInfo, TreeIndex
from repro.analysis.unitcheck import SCALE_CONSTANTS, UNIT_SUFFIXES, unit_of_name

#: Subtrees/files (relative to the analyzed root) the DIM rules cover —
#: the power/energy/thermal metric pipelines every figure flows through.
DEFAULT_DIM_SCOPE: Tuple[str, ...] = (
    "power/",
    "thermal/",
    "tech/",
    "sim/cmp.py",
)

#: dimension name (as used by unitcheck) -> exponent vector.
_DIMENSION_AXES: Dict[str, Tuple[Tuple[str, int], ...]] = {
    "frequency": (("s", -1),),
    "time": (("s", 1),),
    "power": (("W", 1),),
    "voltage": (("V", 1),),
    "energy": (("W", 1), ("s", 1)),
    "temperature-k": (("K", 1),),
    "temperature-c": (("C", 1),),
    "area": (("m", 2),),
    "length": (("m", 1),),
}

#: The Celsius→kelvin additive offset (repro.units.ZERO_CELSIUS_IN_KELVIN).
_OFFSET_NAMES = frozenset({"ZERO_CELSIUS_IN_KELVIN"})
_OFFSET_VALUE = 273.15

#: Named magnitude constants (repro.units.GIGA, ...): multiplying or
#: dividing by one converts the scale instead of scaling the quantity.
_SCALE_NAMES: Dict[str, float] = {name: value for value, name in SCALE_CONSTANTS.items()}
_SCALE_VALUES = frozenset(SCALE_CONSTANTS)


def _axes(*pairs: Tuple[str, int]) -> Tuple[Tuple[str, int], ...]:
    return tuple(sorted((axis, exp) for axis, exp in pairs if exp != 0))


@dataclass(frozen=True)
class Quantity:
    """One united abstract value: exponent vector + magnitude scale.

    ``scale`` relates the stored number to SI base units:
    ``SI value = numeric value * scale`` (so a ``*_ghz`` number carries
    ``scale=1e9`` over the vector ``s⁻¹``).
    """

    dims: Tuple[Tuple[str, int], ...]
    scale: float = 1.0

    def describe(self) -> str:
        """Human-readable vector, e.g. ``W·s^3 (x1e+09)``."""
        if not self.dims:
            body = "dimensionless"
        else:
            parts = []
            for axis, exp in self.dims:
                parts.append(axis if exp == 1 else f"{axis}^{exp}")
            body = "·".join(parts)
        if math.isclose(self.scale, 1.0, rel_tol=1e-9):
            return body
        return f"{body} (x{self.scale:.0e})"


class _Bottom:
    """No information yet (callee summary pending in the fixpoint)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "BOTTOM"


class _Top:
    """Genuinely unknown (or conflicting) — never flagged."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "TOP"


@dataclass(frozen=True)
class _Const:
    """A bare numeric constant: polymorphic against any unit."""

    value: Optional[float] = None


@dataclass(frozen=True)
class _Offset:
    """The Celsius/kelvin additive offset constant."""


BOTTOM = _Bottom()
TOP = _Top()

Abstract = Union[_Bottom, _Top, _Const, _Offset, Quantity]


def quantity_for_suffix(suffix: Optional[str]) -> Optional[Quantity]:
    """The :class:`Quantity` a unit suffix denotes, if any."""
    if suffix is None:
        return None
    entry = UNIT_SUFFIXES.get(suffix)
    if entry is None:
        return None
    dimension, scale = entry
    return Quantity(dims=_axes(*_DIMENSION_AXES[dimension]), scale=scale)


_EXP_TOKEN_RE = re.compile(r"^([a-z]+?)([2-9])$")


def _token_quantity(token: str) -> Optional[Quantity]:
    """The quantity one suffix token denotes (``s``, ``ghz``, ``s2``)."""
    direct = quantity_for_suffix(token)
    if direct is not None:
        return direct
    match = _EXP_TOKEN_RE.match(token)
    if match is None:
        return None
    base = quantity_for_suffix(match.group(1))
    if base is None:
        return None
    steps = int(match.group(2))
    exps = {axis: exp * steps for axis, exp in base.dims}
    return Quantity(dims=_axes(*exps.items()), scale=base.scale**steps)


def _suffix_of(identifier: str) -> Optional[Quantity]:
    """Unit declared by a name suffix, compound-aware.

    ``total_power_w`` → W; ``energy_delay_j_s`` → J·s (a *product* of
    trailing unit tokens); ``ed2p_j_s2`` → J·s².  At least one leading
    token must remain un-consumed — a name that is nothing but unit
    tokens is a description, not a measurement.
    """
    tokens = identifier.lower().split("_")
    run: List[Quantity] = []
    for token in reversed(tokens[1:]):
        quantity = _token_quantity(token)
        if quantity is None:
            break
        run.append(quantity)
    if len(run) >= 2:
        product: Abstract = _Const(1.0)
        for quantity in run:
            product = multiply(product, quantity)
        if isinstance(product, Quantity):
            return product
    return quantity_for_suffix(unit_of_name(identifier))


#: Well-known repro.units constants with physical dimensions.
_KNOWN_CONSTANTS: Dict[str, Quantity] = {
    "BOLTZMANN": Quantity(dims=_axes(("W", 1), ("s", 1), ("K", -1))),
    "ROOM_TEMPERATURE_K": Quantity(dims=_axes(("K", 1))),
}


def _same_scale(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9)


def join(a: Abstract, b: Abstract) -> Abstract:
    """Least upper bound of two abstract values."""
    if isinstance(a, _Bottom):
        return b
    if isinstance(b, _Bottom):
        return a
    if isinstance(a, _Top) or isinstance(b, _Top):
        return TOP
    if isinstance(a, _Const) and isinstance(b, _Const):
        if a.value is not None and a.value == b.value:
            return a
        return _Const()
    if isinstance(a, _Offset) and isinstance(b, _Offset):
        return a
    if isinstance(a, _Const) and isinstance(b, (Quantity, _Offset)):
        return b
    if isinstance(b, _Const) and isinstance(a, (Quantity, _Offset)):
        return a
    if isinstance(a, Quantity) and isinstance(b, Quantity):
        if a.dims == b.dims and _same_scale(a.scale, b.scale):
            return a
        return TOP
    return TOP


def _is_scale(value: Abstract) -> Optional[float]:
    """The conversion factor ``value`` denotes, if it is one."""
    if isinstance(value, _Const) and value.value is not None:
        if value.value in _SCALE_VALUES:
            return value.value
    return None


def multiply(a: Abstract, b: Abstract, divide: bool = False) -> Abstract:
    """Abstract ``a * b`` (or ``a / b``)."""
    if isinstance(a, _Bottom) or isinstance(b, _Bottom):
        return BOTTOM
    if isinstance(a, (_Top, _Offset)) or isinstance(b, (_Top, _Offset)):
        return TOP
    if isinstance(a, _Const) and isinstance(b, _Const):
        if a.value is not None and b.value is not None:
            try:
                value = a.value / b.value if divide else a.value * b.value
            except ZeroDivisionError:
                return _Const()
            return _Const(value)
        return _Const()
    if isinstance(a, Quantity) and isinstance(b, Quantity):
        exps: Dict[str, int] = dict(a.dims)
        for axis, exp in b.dims:
            exps[axis] = exps.get(axis, 0) + (-exp if divide else exp)
        scale = a.scale / b.scale if divide else a.scale * b.scale
        dims = _axes(*exps.items())
        if not dims:
            # A pure ratio: magnitude bookkeeping no longer means
            # anything physical, so normalise it away.
            return Quantity(dims=(), scale=1.0)
        return Quantity(dims=dims, scale=scale)
    # Exactly one side is a constant against a quantity.
    quantity, const = (a, b) if isinstance(a, Quantity) else (b, a)
    assert isinstance(quantity, Quantity) and isinstance(const, _Const)
    factor = _is_scale(const)
    if factor is None:
        # A plain multiplier (2.0, 0.95): same unit, same scale.
        return quantity
    const_is_right = isinstance(b, _Const)
    if divide:
        if const_is_right:
            # v / k: numeric value shrinks by k, so scale grows by k.
            return replace(quantity, scale=quantity.scale * factor)
        # k / v inverts the vector as well.
        exps = {axis: -exp for axis, exp in quantity.dims}
        return Quantity(dims=_axes(*exps.items()), scale=factor / quantity.scale)
    return replace(quantity, scale=quantity.scale / factor)


def power(base: Abstract, exponent: Abstract) -> Tuple[Abstract, bool]:
    """Abstract ``base ** exponent``; second result = fractional-dim."""
    if isinstance(base, _Bottom) or isinstance(exponent, _Bottom):
        return BOTTOM, False
    if isinstance(base, _Const):
        return _Const(), False
    if not isinstance(base, Quantity) or not base.dims:
        return TOP, False
    if not isinstance(exponent, _Const) or exponent.value is None:
        return TOP, False
    n = exponent.value
    if float(n).is_integer():
        steps = int(n)
        exps = {axis: exp * steps for axis, exp in base.dims}
        return (
            Quantity(dims=_axes(*exps.items()), scale=base.scale**steps),
            False,
        )
    return TOP, True


@dataclass
class _Mismatch:
    """One incompatible pairing found while evaluating an expression."""

    line: int
    left: Quantity
    right: Quantity
    kind: str  # "dims" or "scale"


def add_or_compare(
    a: Abstract, b: Abstract, line: int, mismatches: List[_Mismatch],
    subtract: bool = False,
) -> Abstract:
    """Abstract ``a + b`` / ``a - b`` / ``a <op> b`` with flagging."""
    # Celsius/kelvin conversion through the additive offset.
    if isinstance(b, _Offset) and isinstance(a, Quantity):
        if not subtract and a.dims == _axes(("C", 1)):
            return Quantity(dims=_axes(("K", 1)), scale=a.scale)
        if subtract and a.dims == _axes(("K", 1)):
            return Quantity(dims=_axes(("C", 1)), scale=a.scale)
        return TOP
    if isinstance(a, _Offset) and isinstance(b, Quantity):
        if not subtract and b.dims == _axes(("C", 1)):
            return Quantity(dims=_axes(("K", 1)), scale=b.scale)
        return TOP
    if isinstance(a, _Bottom) or isinstance(b, _Bottom):
        return BOTTOM
    if isinstance(a, (_Top, _Offset)) or isinstance(b, (_Top, _Offset)):
        return TOP
    if isinstance(a, _Const) and isinstance(b, _Const):
        return _Const()
    if isinstance(a, _Const):
        return b
    if isinstance(b, _Const):
        return a
    assert isinstance(a, Quantity) and isinstance(b, Quantity)
    if a.dims != b.dims:
        mismatches.append(_Mismatch(line=line, left=a, right=b, kind="dims"))
        return TOP
    if not _same_scale(a.scale, b.scale):
        mismatches.append(_Mismatch(line=line, left=a, right=b, kind="scale"))
        return TOP
    return a


# ---------------------------------------------------------------------------
# Return summaries (interprocedural fixpoint)
# ---------------------------------------------------------------------------

#: How many summary changes a node may go through before it is widened
#: to TOP.  Unit chains are short; real code converges in 2-3 steps.
_WIDEN_AFTER = 8


@dataclass
class _EvalContext:
    """Everything one function evaluation needs."""

    index: TreeIndex
    summaries: Mapping[str, Abstract]
    mismatches: List[_Mismatch] = field(default_factory=list)
    exp_lines: List[int] = field(default_factory=list)
    returns: List[Abstract] = field(default_factory=list)


def _bind(target: ast.expr, value: Abstract, env: Dict[str, Abstract]) -> None:
    if isinstance(target, ast.Name):
        previous = env.get(target.id)
        if (
            isinstance(previous, Quantity)
            and isinstance(value, Quantity)
            and (previous.dims != value.dims
                 or not _same_scale(previous.scale, value.scale))
        ):
            # Conflicting rebinds across branches: give up on the name
            # rather than trust whichever branch was walked last.
            env[target.id] = TOP
        else:
            env[target.id] = value
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _bind(element, TOP, env)


def _name_value(name: str, env: Dict[str, Abstract]) -> Abstract:
    if name in env:
        return env[name]
    if name in _OFFSET_NAMES:
        return _Offset()
    if name in _KNOWN_CONSTANTS:
        return _KNOWN_CONSTANTS[name]
    if name in _SCALE_NAMES:
        return _Const(_SCALE_NAMES[name])
    suffixed = _suffix_of(name)
    if suffixed is not None:
        return suffixed
    return TOP


def _call_value(node: ast.Call, env: Dict[str, Abstract], ctx: _EvalContext) -> Abstract:
    # Evaluate arguments first: mismatches inside them must be seen.
    arg_values = [_eval(argument, env, ctx) for argument in node.args]
    for keyword in node.keywords:
        _eval(keyword.value, env, ctx)
    func = node.func
    bare = func.id if isinstance(func, ast.Name) else None
    if bare in ("min", "max", "abs", "float", "round", "sorted"):
        joined: Abstract = BOTTOM
        for value in arg_values:
            joined = join(joined, value)
        if isinstance(joined, (Quantity, _Const)):
            return joined
        return TOP
    name, candidates = call_candidates(ctx.index, func)
    if candidates:
        summary: Abstract = BOTTOM
        for candidate in candidates:
            summary = join(summary, ctx.summaries.get(node_id(candidate), BOTTOM))
        if isinstance(summary, (Quantity, _Bottom)):
            return summary
    suffixed = _suffix_of(name) if name else None
    if suffixed is not None:
        return suffixed
    return TOP


def _eval(node: ast.expr, env: Dict[str, Abstract], ctx: _EvalContext) -> Abstract:
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            return TOP
        if float(node.value) == _OFFSET_VALUE:
            return _Offset()
        return _Const(float(node.value))
    if isinstance(node, ast.Name):
        return _name_value(node.id, env)
    if isinstance(node, ast.Attribute):
        _eval_children(node.value, env, ctx)
        if node.attr in _OFFSET_NAMES:
            return _Offset()
        if node.attr in _KNOWN_CONSTANTS:
            return _KNOWN_CONSTANTS[node.attr]
        if node.attr in _SCALE_NAMES:
            return _Const(_SCALE_NAMES[node.attr])
        suffixed = _suffix_of(node.attr)
        return suffixed if suffixed is not None else TOP
    if isinstance(node, ast.Subscript):
        _eval_children(node.slice, env, ctx)
        index = node.slice
        if isinstance(index, ast.Constant) and isinstance(index.value, str):
            suffixed = _suffix_of(index.value)
            if suffixed is not None:
                return suffixed
            return TOP
        container = _eval(node.value, env, ctx)
        # Indexing a homogeneous united container yields its unit.
        return container if isinstance(container, Quantity) else TOP
    if isinstance(node, ast.UnaryOp):
        operand = _eval(node.operand, env, ctx)
        if isinstance(node.op, (ast.UAdd, ast.USub)):
            return operand
        return TOP
    if isinstance(node, ast.BinOp):
        left = _eval(node.left, env, ctx)
        right = _eval(node.right, env, ctx)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            return add_or_compare(
                left, right, node.lineno, ctx.mismatches,
                subtract=isinstance(node.op, ast.Sub),
            )
        if isinstance(node.op, ast.Mult):
            return multiply(left, right)
        if isinstance(node.op, ast.Div):
            return multiply(left, right, divide=True)
        if isinstance(node.op, ast.Pow):
            result, fractional = power(left, right)
            if fractional:
                ctx.exp_lines.append(node.lineno)
            return result
        return TOP
    if isinstance(node, ast.Compare):
        values = [_eval(node.left, env, ctx)]
        values.extend(_eval(cmp, env, ctx) for cmp in node.comparators)
        if all(isinstance(op, (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE))
               for op in node.ops):
            for previous, current in zip(values, values[1:]):
                scratch: List[_Mismatch] = []
                add_or_compare(previous, current, node.lineno, scratch)
                ctx.mismatches.extend(scratch)
        return TOP
    if isinstance(node, ast.IfExp):
        _eval(node.test, env, ctx)
        return join(_eval(node.body, env, ctx), _eval(node.orelse, env, ctx))
    if isinstance(node, ast.NamedExpr):
        value = _eval(node.value, env, ctx)
        _bind(node.target, value, env)
        return value
    if isinstance(node, ast.Call):
        return _call_value(node, env, ctx)
    if isinstance(node, ast.BoolOp):
        for value in node.values:
            _eval(value, env, ctx)
        return TOP
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        for element in node.elts:
            _eval(element, env, ctx)
        return TOP
    if isinstance(node, ast.Dict):
        for key in node.keys:
            if key is not None:
                _eval(key, env, ctx)
        for value in node.values:
            _eval(value, env, ctx)
        return TOP
    if isinstance(node, ast.JoinedStr):
        for part in node.values:
            if isinstance(part, ast.FormattedValue):
                _eval(part.value, env, ctx)
        return TOP
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        # Comprehensions run in their own frame; bind loop targets to
        # TOP so element expressions still get mismatch-checked.
        scratch_env = dict(env)
        for generator in node.generators:
            _eval(generator.iter, scratch_env, ctx)
            _bind(generator.target, TOP, scratch_env)
            for condition in generator.ifs:
                _eval(condition, scratch_env, ctx)
        if isinstance(node, ast.DictComp):
            _eval(node.key, scratch_env, ctx)
            _eval(node.value, scratch_env, ctx)
        else:
            _eval(node.elt, scratch_env, ctx)
        return TOP
    if isinstance(node, ast.Starred):
        return _eval(node.value, env, ctx)
    if isinstance(node, ast.Lambda):
        return TOP
    return TOP


def _eval_children(node: ast.expr, env: Dict[str, Abstract], ctx: _EvalContext) -> None:
    """Evaluate an expression only for its side effects (checks)."""
    if isinstance(node, ast.expr):
        _eval(node, env, ctx)


def _exec_block(
    statements: Sequence[ast.stmt], env: Dict[str, Abstract], ctx: _EvalContext
) -> None:
    for statement in statements:
        _exec_stmt(statement, env, ctx)


def _exec_stmt(stmt: ast.stmt, env: Dict[str, Abstract], ctx: _EvalContext) -> None:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return  # separate scope, separate graph node
    if isinstance(stmt, ast.Assign):
        value = _eval(stmt.value, env, ctx)
        for target in stmt.targets:
            _bind(target, value, env)
        return
    if isinstance(stmt, ast.AnnAssign):
        if stmt.value is not None:
            _bind(stmt.target, _eval(stmt.value, env, ctx), env)
        return
    if isinstance(stmt, ast.AugAssign):
        if not isinstance(stmt.target, ast.Name):
            _eval(stmt.value, env, ctx)
            return
        current = _name_value(stmt.target.id, env)
        operand = _eval(stmt.value, env, ctx)
        if isinstance(stmt.op, (ast.Add, ast.Sub)):
            result = add_or_compare(
                current, operand, stmt.lineno, ctx.mismatches,
                subtract=isinstance(stmt.op, ast.Sub),
            )
        elif isinstance(stmt.op, ast.Mult):
            result = multiply(current, operand)
        elif isinstance(stmt.op, ast.Div):
            result = multiply(current, operand, divide=True)
        else:
            result = TOP
        env[stmt.target.id] = result
        return
    if isinstance(stmt, ast.Return):
        if stmt.value is not None:
            ctx.returns.append(_eval(stmt.value, env, ctx))
        return
    if isinstance(stmt, ast.Expr):
        _eval(stmt.value, env, ctx)
        return
    if isinstance(stmt, ast.If):
        _eval(stmt.test, env, ctx)
        _exec_block(stmt.body, env, ctx)
        _exec_block(stmt.orelse, env, ctx)
        return
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        _eval(stmt.iter, env, ctx)
        _bind(stmt.target, TOP, env)
        _exec_block(stmt.body, env, ctx)
        _exec_block(stmt.orelse, env, ctx)
        return
    if isinstance(stmt, ast.While):
        _eval(stmt.test, env, ctx)
        _exec_block(stmt.body, env, ctx)
        _exec_block(stmt.orelse, env, ctx)
        return
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            _eval(item.context_expr, env, ctx)
            if item.optional_vars is not None:
                _bind(item.optional_vars, TOP, env)
        _exec_block(stmt.body, env, ctx)
        return
    if isinstance(stmt, ast.Try):
        _exec_block(stmt.body, env, ctx)
        for handler in stmt.handlers:
            _exec_block(handler.body, env, ctx)
        _exec_block(stmt.orelse, env, ctx)
        _exec_block(stmt.finalbody, env, ctx)
        return
    if hasattr(ast, "Match") and isinstance(stmt, ast.Match):
        _eval(stmt.subject, env, ctx)
        for case in stmt.cases:
            if case.guard is not None:
                _eval(case.guard, env, ctx)
            _exec_block(case.body, env, ctx)
        return
    if isinstance(stmt, ast.Assert):
        _eval(stmt.test, env, ctx)
        return
    if isinstance(stmt, ast.Raise):
        if stmt.exc is not None:
            _eval(stmt.exc, env, ctx)
        return
    # Pass/Break/Continue/Import/Global/Nonlocal/Delete: nothing to track.


def _initial_env(info: FunctionInfo) -> Dict[str, Abstract]:
    env: Dict[str, Abstract] = {}
    args = info.node.args
    every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    for arg in every:
        suffixed = _suffix_of(arg.arg)
        if suffixed is not None:
            env[arg.arg] = suffixed
    return env


def _evaluate_function(
    info: FunctionInfo, index: TreeIndex, summaries: Mapping[str, Abstract]
) -> _EvalContext:
    ctx = _EvalContext(index=index, summaries=summaries)
    env = _initial_env(info)
    _exec_block(info.node.body, env, ctx)
    return ctx


def _return_summary(ctx: _EvalContext) -> Abstract:
    if not ctx.returns:
        return TOP
    joined: Abstract = BOTTOM
    for value in ctx.returns:
        joined = join(joined, value)
    return joined


def solve_return_summaries(
    index: TreeIndex, graph: CallGraph
) -> Dict[str, Abstract]:
    """Fixpoint return-unit summary for every function in the tree.

    Uses widening: a node whose summary keeps changing (a unit-algebra
    cycle through recursion) is pinned to TOP after
    :data:`_WIDEN_AFTER` changes, guaranteeing termination even where
    the quantity domain is not a finite-height lattice.
    """
    changes: Dict[str, int] = {}

    def transfer(
        nid: str, info: FunctionInfo, summaries: Mapping[str, Abstract]
    ) -> Abstract:
        computed = _return_summary(_evaluate_function(info, index, summaries))
        if computed != summaries.get(nid, BOTTOM):
            changes[nid] = changes.get(nid, 0) + 1
            if changes[nid] > _WIDEN_AFTER:
                return TOP
        return computed

    return solve_summaries(graph, transfer, bottom=BOTTOM)


# ---------------------------------------------------------------------------
# Finding emission
# ---------------------------------------------------------------------------


def in_dim_scope(rel: str, scope: Tuple[str, ...] = DEFAULT_DIM_SCOPE) -> bool:
    """Whether the DIM rules apply to this relative path."""
    return any(rel.startswith(prefix) for prefix in scope)


def check(
    index: TreeIndex,
    graph: CallGraph,
    summaries: Optional[Mapping[str, Abstract]] = None,
    scope: Tuple[str, ...] = DEFAULT_DIM_SCOPE,
) -> List[Finding]:
    """Run DIM-MISMATCH / DIM-RETURN / DIM-EXP over the indexed tree."""
    if summaries is None:
        summaries = solve_return_summaries(index, graph)
    findings: List[Finding] = []
    seen: Set[Tuple[str, int, str, str]] = set()

    def emit(path: str, line: int, rule: str, severity: str, message: str,
             snippet: str) -> None:
        key = (path, line, rule, message)
        if key in seen:
            return
        seen.add(key)
        findings.append(
            Finding(
                path=path,
                line=line,
                rule=rule,
                severity=severity,
                message=message,
                snippet=snippet,
            )
        )

    for nid in sorted(graph.nodes):
        info = graph.nodes[nid]
        if not in_dim_scope(info.file.rel, scope):
            continue
        ctx = _evaluate_function(info, index, summaries)
        for mismatch in ctx.mismatches:
            if mismatch.kind == "dims":
                detail = (
                    f"different dimensions "
                    f"({mismatch.left.describe()} vs {mismatch.right.describe()})"
                )
            else:
                detail = (
                    f"same dimension, mixed magnitudes "
                    f"(x{mismatch.left.scale:.0e} vs x{mismatch.right.scale:.0e})"
                )
            emit(
                info.file.rel,
                mismatch.line,
                "DIM-MISMATCH",
                "error",
                f"in `{info.qualname}`: arithmetic combines incompatible "
                f"quantities: {detail}",
                info.file.snippet(mismatch.line),
            )
        for line in ctx.exp_lines:
            emit(
                info.file.rel,
                line,
                "DIM-EXP",
                "warning",
                f"in `{info.qualname}`: united quantity raised to a "
                "non-integer power; the exponent vector would be fractional",
                info.file.snippet(line),
            )
        declared = _suffix_of(info.name)
        if declared is not None:
            inferred = _return_summary(ctx)
            if isinstance(inferred, Quantity) and (
                inferred.dims != declared.dims
                or not _same_scale(inferred.scale, declared.scale)
            ):
                emit(
                    info.file.rel,
                    info.node.lineno,
                    "DIM-RETURN",
                    "error",
                    f"`{info.qualname}` is suffixed "
                    f"`_{unit_of_name(info.name)}` "
                    f"({declared.describe()}) but returns "
                    f"{inferred.describe()}",
                    info.file.snippet(info.node.lineno),
                )
    findings.sort()
    return findings
