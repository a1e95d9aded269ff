"""A light symbol/call index over one parsed source tree.

The checkers need three things beyond raw ASTs:

* every function definition with its qualified name and the parameter
  names a call's arguments bind to (:class:`FunctionInfo`);
* every class definition, with its dataclass field names when it is a
  dataclass (:class:`ClassInfo`) — constructor calls resolve through
  them;
* name-based call resolution: given a call site ``f(x)`` or ``obj.f(x)``,
  the candidate definitions of ``f`` anywhere in the tree.

Resolution is deliberately *name-based*, not type-based: this is a
convention checker for one repository, and in this codebase bare
function/method names are near-unique.  Checkers treat ambiguous names
(multiple definitions with conflicting signatures) as unresolvable and
stay silent rather than guess.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis.source import (
    FunctionNode,
    SourceError,
    SourceFile,
    load_source_file,
)


@dataclass(frozen=True)
class Signature:
    """The parameter names a call's arguments can bind to."""

    #: Positional-only then regular parameters, in order.
    positional: Tuple[str, ...]
    #: Regular then keyword-only parameters.
    keyword: Tuple[str, ...]


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition."""

    name: str
    qualname: str
    file: SourceFile
    node: FunctionNode
    #: Where a call's arguments bind, ``self``/``cls`` stripped.
    signature: Signature
    #: Whether the return annotation is a ``set``/``Set``/``frozenset``.
    returns_set: bool


@dataclass(frozen=True)
class ClassInfo:
    """One class definition."""

    name: str
    qualname: str
    file: SourceFile
    node: ast.ClassDef
    #: Field names in declaration order; ``None`` unless a dataclass.
    dataclass_fields: Optional[Tuple[str, ...]]


def _annotation_is_set(annotation: Optional[ast.expr]) -> bool:
    """Whether an annotation names an unordered set type."""
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    return name in ("set", "Set", "frozenset", "FrozenSet", "AbstractSet")


def _decorator_name(decorator: ast.expr) -> str:
    node = decorator
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


@dataclass
class TreeIndex:
    """Every definition in one analyzed tree, keyed by bare name."""

    root: Path
    files: List[SourceFile] = field(default_factory=list)
    errors: List[SourceError] = field(default_factory=list)
    functions: Dict[str, List[FunctionInfo]] = field(default_factory=dict)
    classes: Dict[str, List[ClassInfo]] = field(default_factory=dict)

    def callable_signature(self, name: str) -> Optional[Signature]:
        """Unambiguous signature of callable ``name``, if known.

        Resolves plain functions and methods by definition name, and
        dataclasses through their fields.  Returns ``None`` when the
        name is unknown or its definitions disagree.
        """
        signatures = [info.signature for info in self.functions.get(name, [])]
        for cls in self.classes.get(name, []):
            if cls.dataclass_fields is not None:
                fields = cls.dataclass_fields
                signatures.append(Signature(positional=fields, keyword=fields))
        if len(set(signatures)) != 1:
            return None
        return signatures[0]


def _index_file(index: TreeIndex, source: SourceFile) -> None:
    """Register every function and class of one file.

    ``parent`` tracks the immediately enclosing scope kind:
    ``"module"``, ``"class"``, or ``"function"`` — a def directly inside
    a class body is a method; anything defined under a function is local.
    """

    def visit(node: ast.AST, scope: Tuple[str, ...], parent: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = tuple(a.arg for a in args.posonlyargs + args.args)
                keyword = tuple(a.arg for a in args.args + args.kwonlyargs)
                if parent == "class" and positional[:1] in (("self",), ("cls",)):
                    keyword = tuple(k for k in keyword if k != positional[0])
                    positional = positional[1:]
                index.functions.setdefault(child.name, []).append(
                    FunctionInfo(
                        name=child.name,
                        qualname=".".join(scope + (child.name,)),
                        file=source,
                        node=child,
                        signature=Signature(positional=positional, keyword=keyword),
                        returns_set=_annotation_is_set(child.returns),
                    )
                )
                visit(child, scope + (child.name,), "function")
            elif isinstance(child, ast.ClassDef):
                decorators = {_decorator_name(d) for d in child.decorator_list}
                fields: Optional[Tuple[str, ...]] = None
                if "dataclass" in decorators:
                    fields = tuple(
                        stmt.target.id
                        for stmt in child.body
                        if isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                    )
                index.classes.setdefault(child.name, []).append(
                    ClassInfo(
                        name=child.name,
                        qualname=".".join(scope + (child.name,)),
                        file=source,
                        node=child,
                        dataclass_fields=fields,
                    )
                )
                visit(child, scope + (child.name,), "class")
            else:
                # Defs nested in plain statements (if/try/with bodies)
                # keep their enclosing scope kind.
                visit(child, scope, parent)

    visit(source.tree, (), "module")


def build_index(root: Path) -> TreeIndex:
    """Parse and index every ``*.py`` under ``root``.

    Files are walked in sorted order so analysis output is
    deterministic.
    """
    index = TreeIndex(root=root)
    paths = sorted(
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        if "__pycache__" not in path.parts
    )
    for rel in paths:
        source, error = load_source_file(root / rel, rel)
        if error is not None:
            index.errors.append(error)
        if source is not None:
            index.files.append(source)
            _index_file(index, source)
    return index
