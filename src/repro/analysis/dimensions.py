"""The unit checker: physical units as exponent vectors, whole tree.

:mod:`repro.units` keeps SI base units internally, with conversions
only at boundaries through named constants; name suffixes
(``frequency_hz``, ``wall_s``, ``die_area_m2``) make that checkable.
A small abstract interpreter runs over every function, class and
module body: units are exponent vectors over six base axes (``W``,
``V``, ``s``, ``K``, ``C``, ``m``) plus a magnitude scale, seeded from
name suffixes, :mod:`repro.units` constants, and callee return
summaries solved by a fixpoint over the call graph
(:mod:`repro.analysis.flow`), so ``p = total_power_w; e = p * wall_s;
e + frequency_hz`` is caught through the unsuffixed locals.  The
algebra is the physical one:

* ``power * time`` unifies with energy (``J == W·s``), so
  ``ed2p = energy_j * delay_s ** 2`` carries ``W·s³`` and adding it to
  a power or frequency is flagged;
* ``GHz`` and ``Hz`` share the vector ``s⁻¹`` but differ in scale, so
  mixed-magnitude sums are flagged even though the dimension matches;
* Celsius and kelvin are distinct axes related by the
  ``ZERO_CELSIUS_IN_KELVIN`` offset — adding the offset to a Celsius
  value *converts* it, any other K/°C mix is flagged.

Rules:

* ``DIM-MISMATCH`` (error) — ``+``/``-``/comparison between
  incompatible quantities: different exponent vectors, or the same
  vector at different magnitudes (``GHz + Hz``).
* ``DIM-RETURN`` (error) — a function whose name suffix declares a
  unit returns a quantity with a different vector or magnitude
  (including a dimensionless ratio: a unit-erasing return).
* ``DIM-EXP`` (warning) — a united quantity raised to a non-integer
  constant power: the result's exponent vector would be fractional.
* ``DIM-ARG`` (error) — an argument whose quantity differs from the
  unit its parameter's name declares (a ``*_mhz`` value passed to a
  ``*_hz`` parameter).
* ``DIM-MAGIC`` (warning) — a united quantity multiplied or divided by
  a bare scale literal (``1e9``, ``1e-3``): conversions go through the
  named constants (``GIGA``, ``MILLI``), which are float-identical, so
  a fix never changes results.  ``units.py``, which defines the
  constants, is exempt.

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
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.analysis.findings import Finding
from repro.analysis.flow.callgraph import (
    CallGraph,
    call_candidates,
    node_id,
)
from repro.analysis.flow.dataflow import solve_summaries
from repro.analysis.index import FunctionInfo, TreeIndex
from repro.analysis.source import SourceFile


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


#: Each unit dimension's exponent vector, and its suffixes with their
#: scale relative to the dimension's SI base unit.
_UNITS: Tuple[Tuple[Tuple[Tuple[str, int], ...], Dict[str, float]], ...] = (
    ((("s", -1),), {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}),
    ((("s", 1),), {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12}),
    ((("W", 1),), {"w": 1.0, "mw": 1e-3, "uw": 1e-6, "kw": 1e3}),
    ((("V", 1),), {"v": 1.0, "mv": 1e-3}),
    ((("W", 1), ("s", 1)), {"j": 1.0, "nj": 1e-9, "pj": 1e-12}),
    # Kelvin and Celsius are distinct axes: they differ by an offset,
    # so no scale factor relates them.
    ((("K", 1),), {"k": 1.0}),
    ((("C", 1),), {"c": 1.0}),
    ((("m", 2),), {"m2": 1.0, "mm2": 1e-6}),
    ((("m", 1),), {"m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9}),
)

#: suffix -> the quantity it declares (``ghz`` -> s^-1 at scale 1e9).
UNIT_SUFFIXES: Dict[str, Quantity] = {
    suffix: Quantity(dims=_axes(*axes), scale=scale)
    for axes, scales in _UNITS
    for suffix, scale in scales.items()
}

#: Multi-character suffixes that also count as a whole bare name
#: (``ns * 1000.0`` in a conversion helper); single letters never do.
_BARE_TOKENS = frozenset(s for s in UNIT_SUFFIXES if len(s) > 1)

#: Scale factors and the named repro.units constant for each.  Values,
#: not spellings: a ``1000.0`` literal matches ``KILO`` = 1e3.
SCALE_CONSTANTS: Dict[float, str] = {
    1e3: "KILO",
    1e6: "MEGA",
    1e9: "GIGA",
    1e12: "TERA",
    1e-3: "MILLI",
    1e-6: "MICRO",
    1e-9: "NANO",
    1e-12: "PICO",
}

#: File names exempt from DIM-MAGIC: the units module itself defines
#: the constants, so its literals are the single source of truth.
_MAGIC_EXEMPT = frozenset({"units.py"})

#: The Celsius→kelvin additive offset (repro.units.ZERO_CELSIUS_IN_KELVIN).
_OFFSET_NAMES = frozenset({"ZERO_CELSIUS_IN_KELVIN"})
_OFFSET_VALUE = 273.15

#: Named magnitude constants (repro.units.GIGA, ...): multiplying or
#: dividing by one converts the scale instead of scaling the quantity.
_SCALE_NAMES: Dict[str, float] = {name: value for value, name in SCALE_CONSTANTS.items()}


def unit_of_name(identifier: str) -> Optional[str]:
    """The unit suffix carried by one identifier, if any."""
    lowered = identifier.lower()
    if "_" in lowered:
        suffix = lowered.rsplit("_", 1)[-1]
        if suffix in UNIT_SUFFIXES:
            return suffix
        return None
    if lowered in _BARE_TOKENS:
        return lowered
    return None


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
    return UNIT_SUFFIXES.get(suffix) if suffix is not None else None


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


def _compatible(a: Quantity, b: Quantity) -> bool:
    """Same exponent vector at the same magnitude."""
    return a.dims == b.dims and _same_scale(a.scale, b.scale)


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
    if isinstance(a, Quantity) and isinstance(b, Quantity) and _compatible(a, b):
        return a
    return TOP


def _is_scale(value: Abstract) -> Optional[float]:
    """The conversion factor ``value`` denotes, if it is one."""
    if isinstance(value, _Const) and value.value is not None:
        if value.value in SCALE_CONSTANTS:
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
    """Everything one function, class or module evaluation needs."""

    index: TreeIndex
    summaries: Mapping[str, Abstract]
    mismatches: List[_Mismatch] = field(default_factory=list)
    returns: List[Abstract] = field(default_factory=list)
    #: ``(line, rule, severity, message)`` of the other DIM-* findings.
    notes: List[Tuple[int, str, str, str]] = field(default_factory=list)


def _bind(target: ast.expr, value: Abstract, env: Dict[str, Abstract]) -> None:
    if isinstance(target, ast.Name):
        previous = env.get(target.id)
        if (
            isinstance(previous, Quantity)
            and isinstance(value, Quantity)
            and not _compatible(previous, value)
        ):
            # Conflicting rebinds across branches: give up on the name
            # rather than trust whichever branch was walked last.
            value = TOP
        if not isinstance(value, Quantity):
            # A suffixed name keeps the unit it declares when the bound
            # value carries none (``wall_s = 0.0``).
            value = _suffix_of(target.id) or value
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


def _check_arguments(
    node: ast.Call,
    callee: str,
    arg_values: Sequence[Abstract],
    keyword_values: Sequence[Abstract],
    ctx: _EvalContext,
) -> None:
    """Record DIM-ARG: each argument against its parameter's suffix."""
    signature = ctx.index.callable_signature(callee)
    if signature is None:
        return
    pairs: List[Tuple[str, Abstract]] = []
    for parameter, argument, value in zip(signature.positional, node.args, arg_values):
        if isinstance(argument, ast.Starred):
            break
        pairs.append((parameter, value))
    for keyword, value in zip(node.keywords, keyword_values):
        if keyword.arg is not None and keyword.arg in signature.keyword:
            pairs.append((keyword.arg, value))
    for parameter, value in pairs:
        expected = _suffix_of(parameter)
        if (
            expected is not None
            and isinstance(value, Quantity)
            and not _compatible(expected, value)
        ):
            ctx.notes.append((
                node.lineno, "DIM-ARG", "error",
                f"{value.describe()} passed to parameter `{parameter}` of "
                f"`{callee}` (expects {expected.describe()})",
            ))


def _call_value(node: ast.Call, env: Dict[str, Abstract], ctx: _EvalContext) -> Abstract:
    # Evaluate arguments first: mismatches inside them must be seen.
    arg_values = [_eval(argument, env, ctx) for argument in node.args]
    keyword_values = [_eval(keyword.value, env, ctx) for keyword in node.keywords]
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
    if name:
        _check_arguments(node, name, arg_values, keyword_values, ctx)
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


def _magic_literal(node: ast.expr) -> Optional[str]:
    """The repro.units constant a bare numeric literal spells, if any."""
    value = node.value if isinstance(node, ast.Constant) else None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return SCALE_CONSTANTS.get(float(value))
    return None


def _arithmetic(
    op: ast.operator,
    left: Abstract,
    right: Abstract,
    operands: Tuple[ast.expr, ast.expr],
    line: int,
    ctx: _EvalContext,
) -> Abstract:
    """Abstract ``left <op> right`` (a BinOp or an AugAssign), with checks."""
    if isinstance(op, (ast.Add, ast.Sub)):
        return add_or_compare(
            left, right, line, ctx.mismatches, subtract=isinstance(op, ast.Sub)
        )
    if isinstance(op, (ast.Mult, ast.Div)):
        left_node, right_node = operands
        for literal, operand in ((right_node, left), (left_node, right)):
            constant = _magic_literal(literal)
            if constant is not None and isinstance(operand, Quantity) and operand.dims:
                ctx.notes.append((
                    line, "DIM-MAGIC", "warning",
                    f"bare scale literal on a {operand.describe()} value; "
                    f"use repro.units.{constant} (same float, auditable intent)",
                ))
                break
        return multiply(left, right, divide=isinstance(op, ast.Div))
    if isinstance(op, ast.Pow):
        result, fractional = power(left, right)
        if fractional:
            ctx.notes.append((
                line, "DIM-EXP", "warning",
                "united quantity raised to a non-integer power; "
                "the exponent vector would be fractional",
            ))
        return result
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
        _eval(node.value, env, ctx)
        if node.attr in _OFFSET_NAMES:
            return _Offset()
        if node.attr in _KNOWN_CONSTANTS:
            return _KNOWN_CONSTANTS[node.attr]
        if node.attr in _SCALE_NAMES:
            return _Const(_SCALE_NAMES[node.attr])
        suffixed = _suffix_of(node.attr)
        return suffixed if suffixed is not None else TOP
    if isinstance(node, ast.Subscript):
        _eval(node.slice, env, ctx)
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
        return _arithmetic(
            node.op, left, right, (node.left, node.right), node.lineno, ctx
        )
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
        _eval_defaults(node.args, env, ctx)
        # The body runs in its own frame, where the parameters shadow
        # the enclosing names.
        scratch_env = dict(env)
        for arg in _parameters(node.args):
            scratch_env.pop(arg.arg, None)
        _eval(node.body, scratch_env, ctx)
        return TOP
    return TOP


def _exec_block(
    statements: Sequence[ast.stmt], env: Dict[str, Abstract], ctx: _EvalContext
) -> None:
    for statement in statements:
        _exec_stmt(statement, env, ctx)


def _parameters(args: ast.arguments) -> List[ast.arg]:
    """Every parameter a function or lambda binds."""
    every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    every.extend(arg for arg in (args.vararg, args.kwarg) if arg is not None)
    return every


def _eval_defaults(args: ast.arguments, env: Dict[str, Abstract], ctx: _EvalContext) -> None:
    for default in list(args.defaults) + list(args.kw_defaults):
        if default is not None:
            _eval(default, env, ctx)


def _exec_stmt(stmt: ast.stmt, env: Dict[str, Abstract], ctx: _EvalContext) -> None:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        # The body is its own graph node; decorators and defaults run here.
        for decorator in stmt.decorator_list:
            _eval(decorator, env, ctx)
        _eval_defaults(stmt.args, env, ctx)
        return
    if isinstance(stmt, ast.ClassDef):
        # A class body runs once, where the class is defined, in a
        # namespace of its own.
        for expr in stmt.decorator_list + stmt.bases:
            _eval(expr, env, ctx)
        _exec_block(stmt.body, dict(env), ctx)
        return
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
        current = _eval(stmt.target, env, ctx)
        operand = _eval(stmt.value, env, ctx)
        result = _arithmetic(
            stmt.op, current, operand, (stmt.target, stmt.value), stmt.lineno, ctx
        )
        if isinstance(stmt.target, ast.Name):
            # ``x *= t_s`` legitimately changes x's unit: rebind, do not
            # treat the new quantity as a conflicting branch.
            env.pop(stmt.target.id, None)
            _bind(stmt.target, result, env)
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
    for arg in _parameters(info.node.args):
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


def _emit_context(
    emit: Callable[[SourceFile, int, str, str, str], None],
    source: SourceFile,
    where: str,
    ctx: _EvalContext,
) -> None:
    """Findings for what one evaluation recorded; ``where`` names it."""
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
            source, mismatch.line, "DIM-MISMATCH", "error",
            f"{where}: arithmetic combines incompatible quantities: {detail}",
        )
    magic_exempt = source.rel.rsplit("/", 1)[-1] in _MAGIC_EXEMPT
    for line, rule, severity, message in ctx.notes:
        if not (rule == "DIM-MAGIC" and magic_exempt):
            emit(source, line, rule, severity, f"{where}: {message}")


def check(
    index: TreeIndex,
    graph: CallGraph,
    summaries: Optional[Mapping[str, Abstract]] = None,
) -> List[Finding]:
    """Run every DIM-* rule over every function, class and module body."""
    if summaries is None:
        summaries = solve_return_summaries(index, graph)
    # A set: a line that repeats one mismatch reports it once.
    found: Set[Finding] = set()

    def emit(source: SourceFile, line: int, rule: str, severity: str,
             message: str) -> None:
        found.add(
            Finding(
                path=source.rel,
                line=line,
                rule=rule,
                severity=severity,
                message=message,
                snippet=source.snippet(line),
            )
        )

    for nid in sorted(graph.nodes):
        info = graph.nodes[nid]
        ctx = _evaluate_function(info, index, summaries)
        _emit_context(emit, info.file, f"in `{info.qualname}`", ctx)
        declared = _suffix_of(info.name)
        if declared is not None:
            inferred = _return_summary(ctx)
            if isinstance(inferred, Quantity) and not _compatible(inferred, declared):
                emit(
                    info.file,
                    info.node.lineno,
                    "DIM-RETURN",
                    "error",
                    f"`{info.qualname}` is suffixed "
                    f"`_{unit_of_name(info.name)}` "
                    f"({declared.describe()}) but returns "
                    f"{inferred.describe()}",
                )
    for source in index.files:
        # Module bodies, and the class bodies they define, run once at
        # import; no call-graph node covers them.
        ctx = _EvalContext(index=index, summaries=summaries)
        _exec_block(source.tree.body, {}, ctx)
        _emit_context(emit, source, "outside any function", ctx)
    return sorted(found)
