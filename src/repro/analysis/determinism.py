"""Determinism checker: wall clocks, unseeded RNGs, unordered iteration.

The repo's headline guarantee — bitwise-identical counters across
kernels, serial/parallel sweeps, and warm caches — holds only if the
simulation subsystems never read host state that varies between runs or
processes.  This checker walks ``sim/``, ``power/``, ``thermal/``, and
``workloads/`` (the modules that feed simulated counters) and flags:

* ``DET-WALLCLOCK`` — reads of the host clock (``time.time``,
  ``time.perf_counter``, ``datetime.now``, ...).  Host-side profiling
  timers are legitimate *when their readings never feed simulated
  state*; suppress those sites inline with a reason.
* ``DET-RANDOM`` — draws from the process-global ``random`` module, an
  unseeded ``random.Random()``, or ``numpy.random`` module functions.
  Seeded ``random.Random(seed)`` instances are the supported idiom.
* ``DET-SET-ORDER`` — iteration over ``set``-typed values or
  ``os.environ``: the order is an implementation detail, so any
  order-sensitive consumption (accumulation, scheduling, first-match
  scans) is a cross-run hazard.  Wrap in ``sorted(...)`` or suppress
  with an argument why order cannot matter.
* ``DET-FLOAT-SUM`` — ``sum()`` over a set or over ``dict`` views:
  float addition does not commute, so the accumulation order must be
  canonical before the result may feed a counter or a cache key.

:func:`scan` classifies every hazard site of the tree once, keyed by
the frame that runs it.  :func:`check` reports the sites in scope, and
the transitive pass (:mod:`repro.analysis.taint`) follows the rest
through the call graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.flow.callgraph import FRAME_NODES, Frame, owned_nodes
from repro.analysis.index import TreeIndex, _annotation_is_set
from repro.analysis.source import SourceFile

#: Subtrees (relative to the analyzed root) the determinism rules cover.
DEFAULT_SCOPE: Tuple[str, ...] = ("sim/", "power/", "thermal/", "workloads/")

#: Relative paths containing these fragments are host-side by contract.
SCOPE_EXEMPT_FRAGMENTS: Tuple[str, ...] = ("telemetry/", "profiling")

#: Severity of each DET-* rule, direct or transitive.
SEVERITIES: Dict[str, str] = {
    "DET-WALLCLOCK": "error",
    "DET-RANDOM": "error",
    "DET-SET-ORDER": "warning",
    "DET-FLOAT-SUM": "warning",
}

_WALLCLOCK_TIME_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)
_WALLCLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

_GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "gauss",
        "normalvariate",
        "expovariate",
        "betavariate",
        "triangular",
        "seed",
        "getrandbits",
        "randbytes",
    }
)


def exempt(rel: str) -> bool:
    """Host-side-by-contract files: never flagged, never a taint source."""
    return any(fragment in rel for fragment in SCOPE_EXEMPT_FRAGMENTS)


def in_scope(rel: str) -> bool:
    """Whether the determinism rules apply to this relative path."""
    return not exempt(rel) and rel.startswith(DEFAULT_SCOPE)


def _call_target(func: ast.expr) -> Tuple[Optional[str], str]:
    """``(base, attr)`` of a callee: ``time.time`` -> ("time", "time")."""
    if isinstance(func, ast.Attribute):
        base: Optional[str] = None
        if isinstance(func.value, ast.Name):
            base = func.value.id
        elif isinstance(func.value, ast.Attribute):
            base = func.value.attr
        return base, func.attr
    if isinstance(func, ast.Name):
        return None, func.id
    return None, ""


class _ModuleAliases:
    """Names the module binds to ``time``/``random``/``numpy``/``datetime``."""

    def __init__(self, tree: ast.Module) -> None:
        self.time: Set[str] = set()
        self.random: Set[str] = set()
        self.numpy: Set[str] = set()
        self.datetime: Set[str] = set()
        #: Wall-clock function names imported directly
        #: (``from time import perf_counter``).
        self.bare_wallclock: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name in ("time", "random", "datetime"):
                        getattr(self, alias.name).add(bound)
                    elif alias.name in ("numpy", "numpy.random"):
                        self.numpy.add(bound)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in _WALLCLOCK_TIME_ATTRS:
                            self.bare_wallclock.add(alias.asname or alias.name)
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name == "datetime":
                            self.datetime.add(alias.asname or alias.name)

    def is_wallclock(self, base: Optional[str], attr: str) -> bool:
        """Whether ``base.attr`` (bare ``attr`` when ``base`` is ``None``)
        names a wall-clock function."""
        return (
            (base in self.time and attr in _WALLCLOCK_TIME_ATTRS)
            or (base in self.datetime and attr in _WALLCLOCK_DATETIME_ATTRS)
            or (base is None and attr in self.bare_wallclock)
        )


def _frame_clock_aliases(frame: Frame, aliases: _ModuleAliases) -> FrozenSet[str]:
    """Names a frame assigns a wall-clock function to, such as
    ``perf_counter = time.perf_counter``: calling one reads the clock."""
    return frozenset(
        target.id
        for node in owned_nodes(frame)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, (ast.Attribute, ast.Name))
        and aliases.is_wallclock(*_call_target(node.value))
        for target in node.targets
        if isinstance(target, ast.Name)
    )


def _frame_set_names(
    frame: Frame, enclosing: FrozenSet[str], index: TreeIndex
) -> FrozenSet[str]:
    """The set-typed names visible in one function or module frame.

    A frame sees its enclosing frames' set-typed names, less every name
    it binds itself, plus its own: parameters annotated as sets, and
    names it assigns from set displays/constructors or from calls to
    functions in the tree whose return annotation is a set.  Names bound
    inside a nested definition belong to that definition's frame.
    """
    own: Set[str] = set()
    bound: Set[str] = set()
    if isinstance(frame, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = frame.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            bound.add(arg.arg)
            if _annotation_is_set(arg.annotation):
                own.add(arg.arg)
        bound.update(arg.arg for arg in (args.vararg, args.kwarg) if arg)
    assigns: List[ast.Assign] = []
    for node in owned_nodes(frame):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.Assign):
            assigns.append(node)
    # In source order, so ``b = a`` after ``a = {...}`` sees ``a``.
    for node in sorted(assigns, key=lambda n: (n.lineno, n.col_offset)):
        if _is_set_expr(node.value, own, index):
            own.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return frozenset((enclosing - bound) | own)


def _is_set_expr(
    node: ast.expr, set_names: AbstractSet[str], index: TreeIndex
) -> bool:
    """Whether an expression is syntactically set-valued."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        # Set algebra preserves set-ness; require one known-set side.
        return _is_set_expr(node.left, set_names, index) or _is_set_expr(
            node.right, set_names, index
        )
    if isinstance(node, ast.Call):
        base, attr = _call_target(node.func)
        if base is None and attr in ("set", "frozenset"):
            return True
        candidates = index.functions.get(attr, [])
        if candidates and all(c.returns_set for c in candidates):
            return True
    return False


def _is_environ(node: ast.expr) -> bool:
    """``os.environ`` or a view of it (``os.environ.keys()`` ...)."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in ("keys", "values", "items"):
            return _is_environ(node.func.value)
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _is_dict_view(node: ast.expr) -> bool:
    """A ``.values()``/``.keys()``/``.items()`` call on anything."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("values", "keys", "items")
        and not node.args
        and not node.keywords
    )


def _unordered_iter(
    node: ast.expr, set_names: AbstractSet[str], index: TreeIndex
) -> Optional[str]:
    """Describe why iterating ``node`` is order-fragile, or ``None``.

    ``sorted(...)`` wrappers canonicalise the order, and ``list``/
    ``tuple`` wrappers are looked through (they preserve it).
    """
    if isinstance(node, ast.Call):
        base, attr = _call_target(node.func)
        if base is None and attr == "sorted":
            return None
        if base is None and attr in ("list", "tuple") and node.args:
            return _unordered_iter(node.args[0], set_names, index)
    if _is_environ(node):
        return "os.environ"
    if _is_set_expr(node, set_names, index):
        return "a set"
    return None


@dataclass(frozen=True)
class HazardSite:
    """One direct DET-* hazard, classified once for both DET checkers."""

    file: SourceFile
    line: int
    rule: str
    #: The direct finding's message.
    message: str
    #: The shorter wording a transitive finding quotes at the end of
    #: its taint path.
    detail: str


#: Every direct hazard site in a tree, keyed by the frame that runs it:
#: a function, a class body, or the module body.
Hazards = Dict[ast.AST, List[HazardSite]]


def scan(index: TreeIndex) -> Hazards:
    """Classify every hazard site of the tree once.

    The direct rule reports the sites in scope; taint uses every
    function's sites as sources.  A function also sees the set-typed
    names of the module and of the functions around it (its closure)
    that it does not bind itself.
    """
    hazards: Hazards = {}
    for source in index.files:
        aliases = _ModuleAliases(source.tree)
        frames: List[Tuple[Frame, FrozenSet[str]]] = [(source.tree, frozenset())]
        while frames:
            frame, set_names = frames.pop()
            if not isinstance(frame, ast.ClassDef):
                set_names = _frame_set_names(frame, set_names, index)
            clocks = _frame_clock_aliases(frame, aliases)
            sites = hazards.setdefault(frame, [])
            for node in owned_nodes(frame):
                if isinstance(node, FRAME_NODES):
                    frames.append((node, set_names))
                    continue
                sites.extend(
                    _classify(node, source, aliases, clocks, set_names, index)
                )
    return hazards


def check(hazards: Hazards) -> List[Finding]:
    """The direct DET-* findings: every hazard site in scope."""
    return [
        Finding(
            path=site.file.rel,
            line=site.line,
            rule=site.rule,
            severity=SEVERITIES[site.rule],
            message=site.message,
            snippet=site.file.snippet(site.line),
        )
        for sites in hazards.values()
        for site in sites
        if in_scope(site.file.rel)
    ]


_ORDER_ADVICE = (
    "order is an implementation detail; sort or suppress with a "
    "why-order-free argument"
)


def _classify(
    node: ast.AST,
    source: SourceFile,
    aliases: _ModuleAliases,
    clocks: AbstractSet[str],
    set_names: AbstractSet[str],
    index: TreeIndex,
) -> Iterator[HazardSite]:
    """The hazard sites one node of ``source`` is (usually none);
    ``clocks`` are its frame's wall-clock aliases."""
    if isinstance(node, ast.Call):
        hazard = _classify_call(node, aliases, clocks, set_names, index)
        if hazard is not None:
            yield HazardSite(source, node.lineno, *hazard)
        return
    if isinstance(node, ast.For):
        line, kind, iterables = node.lineno, "iteration", [node.iter]
    elif isinstance(
        node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    ):
        line, kind = node.lineno, "comprehension"
        iterables = [generator.iter for generator in node.generators]
    else:
        return
    for iterable in iterables:
        reason = _unordered_iter(iterable, set_names, index)
        if reason is not None:
            yield HazardSite(
                source,
                line,
                "DET-SET-ORDER",
                f"{kind} over {reason}: {_ORDER_ADVICE}",
                f"unordered {kind} over {reason}",
            )


def _classify_call(
    node: ast.Call,
    aliases: _ModuleAliases,
    clocks: AbstractSet[str],
    set_names: AbstractSet[str],
    index: TreeIndex,
) -> Optional[Tuple[str, str, str]]:
    """``(rule, message, detail)`` when a call is a hazard."""
    base, attr = _call_target(node.func)
    if aliases.is_wallclock(base, attr) or (base is None and attr in clocks):
        detail = f"wall-clock read `{attr}`"
        return "DET-WALLCLOCK", f"{detail} in a simulation module", detail
    if base in aliases.random and attr in _GLOBAL_RANDOM_FUNCS:
        detail = f"process-global RNG `random.{attr}`"
        return (
            "DET-RANDOM",
            f"{detail}; use a seeded random.Random instance",
            detail,
        )
    if base in aliases.random and attr == "Random":
        if node.args or node.keywords:
            return None
        detail = "unseeded random.Random()"
        return "DET-RANDOM", f"{detail}; pass an explicit seed", detail
    func = node.func
    numpy_rng = (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "random"
        and isinstance(func.value.value, ast.Name)
        and func.value.value.id in aliases.numpy
    )
    if attr == "default_rng" and (base is None or numpy_rng):
        if node.args or node.keywords:
            return None
        detail = "unseeded default_rng()"
        return "DET-RANDOM", f"{detail}; pass an explicit seed", detail
    if numpy_rng:
        detail = f"global numpy RNG `numpy.random.{attr}`"
        return (
            "DET-RANDOM",
            f"{detail}; use numpy.random.default_rng(seed)",
            detail,
        )
    if base is None and attr == "sum" and node.args:
        hazard = _float_sum_hazard(node.args[0], set_names, index)
        if hazard is not None:
            return (
                "DET-FLOAT-SUM",
                f"sum() over {hazard}: float accumulation order must be "
                "canonical; sort first or suppress with a why-order-free "
                "argument",
                f"order-fragile sum() over {hazard}",
            )
    return None


def _float_sum_hazard(
    argument: ast.expr, set_names: AbstractSet[str], index: TreeIndex
) -> Optional[str]:
    """Why a ``sum()`` argument has fragile accumulation order."""
    if _is_set_expr(argument, set_names, index):
        return "a set"
    if _is_dict_view(argument):
        return "a dict view"
    if isinstance(argument, (ast.GeneratorExp, ast.ListComp)):
        for generator in argument.generators:
            if _is_set_expr(generator.iter, set_names, index):
                return "a set"
            if _is_dict_view(generator.iter):
                return "a dict view"
            if _is_environ(generator.iter):
                return "os.environ"
    return None
