"""Parsed source files: AST and inline suppressions.

One comment convention drives the analyzer (see docs/ANALYSIS.md):
``# repro: allow[RULE-ID] reason`` suppresses RULE-ID findings on its
own line or the line directly below (so the comment can sit on its own
line above a flagged statement).  Several ids may be listed,
comma-separated.  The reason is free text; write one.

Two structural extensions keep the comment attachable where findings
actually anchor: a comment above (or on) a *decorator* also covers the
``def``/``class`` line the finding points at, and a comment anywhere
alongside a *multi-line simple statement* covers every line the
statement spans.  Compound statements (``if``/``for``/``def``)
deliberately get header-only coverage — an allow above a loop must not
blanket its body.

Comments are read with :mod:`tokenize`, not regexes over raw lines, so
marker-shaped text inside string literals is never misread as a marker.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Optional, Set, Tuple, Union

_ALLOW_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[A-Za-z0-9_, \-]+)\]\s*(?P<reason>.*)"
)

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass(frozen=True)
class SourceError:
    """A file the analyzer could not parse."""

    rel: str
    message: str


class SourceFile:
    """One parsed module: text, AST, and analyzer markers."""

    def __init__(self, path: Path, rel: str, text: str) -> None:
        self.path = path
        #: Path relative to the analyzed root, with ``/`` separators.
        self.rel = rel
        self.text = text
        self.lines: Tuple[str, ...] = tuple(text.splitlines())
        self.tree: ast.Module = ast.parse(text, filename=str(path))
        #: line -> rule ids allowed on that line (and the next one).
        self.allows: Dict[int, FrozenSet[str]] = {}
        #: anchor line -> rule -> comment lines granting the allowance.
        self._coverage: Dict[int, Dict[str, Set[int]]] = {}
        #: ``(comment line, rule)`` pairs consumed by a finding — the
        #: input of stale-suppression detection (ALLOW-UNUSED).
        self.used_allows: Set[Tuple[int, str]] = set()
        self._scan_comments()
        self._build_coverage()

    def _scan_comments(self) -> None:
        allows: Dict[int, FrozenSet[str]] = {}
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.text).readline)
            for token in tokens:
                if token.type != tokenize.COMMENT:
                    continue
                line = token.start[0]
                allow = _ALLOW_RE.search(token.string)
                if allow is not None:
                    rules = frozenset(
                        part.strip().upper()
                        for part in allow.group("rules").split(",")
                        if part.strip()
                    )
                    allows[line] = allows.get(line, frozenset()) | rules
        except tokenize.TokenError:
            # The AST parsed, so this is a tokenizer corner case; treat
            # the file as marker-free rather than failing the analysis.
            pass
        self.allows = allows

    def _build_coverage(self) -> None:
        """Map every coverable anchor line to its granting comments.

        Base rule: a comment on line L covers L and L+1.  Extensions:
        decorator-adjacent comments cover the decorated ``def`` line,
        and comments alongside a multi-line *simple* statement cover
        the statement's whole line span.  Compound statements keep
        header-only coverage so an allow cannot blanket a body.
        """
        coverage: Dict[int, Dict[str, Set[int]]] = {}

        def cover(anchor: int, comment_line: int, rules: FrozenSet[str]) -> None:
            per_rule = coverage.setdefault(anchor, {})
            for rule in rules:
                per_rule.setdefault(rule, set()).add(comment_line)

        for line, rules in self.allows.items():
            cover(line, line, rules)
            cover(line + 1, line, rules)
        for node in ast.walk(self.tree):
            if (
                isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
                and node.decorator_list
            ):
                first = min(d.lineno for d in node.decorator_list)
                candidates = {first - 1}
                for decorator in node.decorator_list:
                    end = decorator.end_lineno or decorator.lineno
                    candidates.update(range(decorator.lineno, end + 1))
                for comment_line in sorted(candidates):
                    if comment_line in self.allows:
                        cover(node.lineno, comment_line, self.allows[comment_line])
            elif isinstance(node, ast.stmt) and not isinstance(
                node,
                (
                    ast.FunctionDef,
                    ast.AsyncFunctionDef,
                    ast.ClassDef,
                    ast.If,
                    ast.For,
                    ast.AsyncFor,
                    ast.While,
                    ast.With,
                    ast.AsyncWith,
                    ast.Try,
                    ast.Match,
                ),
            ):
                end = node.end_lineno or node.lineno
                if end > node.lineno:
                    for comment_line in range(node.lineno - 1, end + 1):
                        if comment_line in self.allows:
                            for anchor in range(node.lineno, end + 1):
                                cover(
                                    anchor,
                                    comment_line,
                                    self.allows[comment_line],
                                )
        self._coverage = coverage

    def snippet(self, line: int) -> str:
        """The stripped source line at 1-based ``line`` (or empty)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()[:160]
        return ""

    def allowed(self, rule: str, line: int) -> bool:
        """Whether an inline suppression covers ``rule`` at ``line``.

        A hit records which comment granted it (``used_allows``), so
        stale comments can be flagged afterwards (ALLOW-UNUSED).
        """
        per_rule = self._coverage.get(line)
        if per_rule is None:
            return False
        comment_lines = per_rule.get(rule.upper())
        if not comment_lines:
            return False
        rule_id = rule.upper()
        self.used_allows.update(
            (comment_line, rule_id) for comment_line in comment_lines
        )
        return True


def load_source_file(
    path: Path, rel: str
) -> Tuple[Optional[SourceFile], Optional[SourceError]]:
    """Parse one file; returns ``(file, None)`` or ``(None, error)``."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return None, SourceError(rel=rel, message=f"unreadable: {exc}")
    try:
        return SourceFile(path, rel, text), None
    except SyntaxError as exc:
        return None, SourceError(rel=rel, message=f"syntax error: {exc.msg}")
