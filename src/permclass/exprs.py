"""Symbolic class expressions: AST, textual grammar, rendering.

Grammar (whitespace-insensitive)::

    expr := atom | func
    atom := "I" | "D" | "L" | "F2" | "All"
    func := name "(" args ")"
    name := "Ik"|"Dk"|"Lk"|"Vk"|"Hk"|"Av"|"V"|"H"|"comp"|"merge"|"and"|"or"|"rev"|"cpl"|"inv"

Ik/Dk take one integer >= 0; Lk/Vk/Hk one integer >= 1.  Av takes one or more
permutation literals, compact digits for order <= 9 or bracketed spaced ints
("[10 2 1 ...]").  comp/merge/and/or take >= 2 subexpressions, V/H >= 1,
rev/cpl/inv exactly 1.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

from .perms import Permutation, to_text


class ClassExpr:
    """Base of all class-expression nodes."""

    __slots__ = ()

    # Nodes are immutable and non-slotted, so the key is stored in the instance
    # dict on first use; it is not a field, so eq, hash and repr ignore it.
    @cached_property
    def _canonical(self) -> str:
        return _spell(self, canonical=True)


@dataclass(frozen=True)
class Inc(ClassExpr):
    """All increasing permutations."""


@dataclass(frozen=True)
class Dec(ClassExpr):
    """All decreasing permutations."""


@dataclass(frozen=True)
class LayeredAll(ClassExpr):
    """All layered permutations (sums of decreasing runs)."""


@dataclass(frozen=True)
class FibLayered(ClassExpr):
    """Layered permutations with every layer of length at most 2."""


@dataclass(frozen=True)
class AllPerms(ClassExpr):
    """Every permutation; test scaffolding atom."""


@dataclass(frozen=True)
class IncK(ClassExpr):
    """Permutations coverable by at most k increasing subsequences."""

    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("Ik requires k >= 0")


@dataclass(frozen=True)
class DecK(ClassExpr):
    """Permutations coverable by at most k decreasing subsequences."""

    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("Dk requires k >= 0")


@dataclass(frozen=True)
class LayeredK(ClassExpr):
    """Layered permutations with at most k layers."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("Lk requires k >= 1")


@dataclass(frozen=True)
class VertK(ClassExpr):
    """Concatenations of at most k increasing segments."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("Vk requires k >= 1")


@dataclass(frozen=True)
class HorizK(ClassExpr):
    """Interleavings of at most k increasing runs on stacked value ranges."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("Hk requires k >= 1")


@dataclass(frozen=True)
class Av(ClassExpr):
    """Permutations avoiding every listed pattern."""

    patterns: tuple[Permutation, ...]

    def __post_init__(self):
        if not self.patterns:
            raise ValueError("Av requires at least one pattern")
        if len(set(self.patterns)) != len(self.patterns):
            raise ValueError("Av patterns must be duplicate-free")


def _require_children(name: str, children: tuple, minimum: int) -> None:
    if len(children) < minimum:
        raise ValueError(f"{name} requires at least {minimum} children")


@dataclass(frozen=True)
class Comp(ClassExpr):
    """Ordered composition of classes (left factor applied last)."""

    children: tuple[ClassExpr, ...]

    def __post_init__(self):
        _require_children("comp", self.children, 2)


@dataclass(frozen=True)
class Merge(ClassExpr):
    """Permutations colorable into parts lying in the child classes."""

    children: tuple[ClassExpr, ...]

    def __post_init__(self):
        _require_children("merge", self.children, 2)


@dataclass(frozen=True)
class Vert(ClassExpr):
    """Vertical merge: concatenation of segments from the child classes, in order."""

    children: tuple[ClassExpr, ...]

    def __post_init__(self):
        _require_children("V", self.children, 1)


@dataclass(frozen=True)
class Horiz(ClassExpr):
    """Horizontal merge: interleaving of parts on stacked value ranges, bottom-up."""

    children: tuple[ClassExpr, ...]

    def __post_init__(self):
        _require_children("H", self.children, 1)


@dataclass(frozen=True)
class And(ClassExpr):
    children: tuple[ClassExpr, ...]

    def __post_init__(self):
        _require_children("and", self.children, 2)


@dataclass(frozen=True)
class Or(ClassExpr):
    children: tuple[ClassExpr, ...]

    def __post_init__(self):
        _require_children("or", self.children, 2)


@dataclass(frozen=True)
class Rev(ClassExpr):
    child: ClassExpr


@dataclass(frozen=True)
class Cpl(ClassExpr):
    child: ClassExpr


@dataclass(frozen=True)
class Inv(ClassExpr):
    child: ClassExpr


_ATOM_TEXT = {Inc: "I", Dec: "D", LayeredAll: "L", FibLayered: "F2", AllPerms: "All"}
_PARAM_TEXT = {IncK: "Ik", DecK: "Dk", LayeredK: "Lk", VertK: "Vk", HorizK: "Hk"}
_NARY_TEXT = {Comp: "comp", Merge: "merge", Vert: "V", Horiz: "H", And: "and", Or: "or"}
_UNARY_TEXT = {Rev: "rev", Cpl: "cpl", Inv: "inv"}

# The parser's view of the same spellings: name -> node type.
_ATOMS = {text: t for t, text in _ATOM_TEXT.items()}
_PARAMS = {text: t for t, text in _PARAM_TEXT.items()}
_NARIES = {text: t for t, text in _NARY_TEXT.items()}
_UNARIES = {text: t for t, text in _UNARY_TEXT.items()}
_FUNC_NAMES = {*_PARAMS, "Av", *_NARIES, *_UNARIES}


def _perm_literal(p: Permutation) -> str:
    if 0 < len(p) <= 9:
        return to_text(p)
    return "[" + " ".join(str(v) for v in p.values) + "]"


def _spell(expr: ClassExpr, canonical: bool) -> str:
    """Grammar text; the canonical one sorts the children of merge/and/or."""
    t = type(expr)
    if t in _ATOM_TEXT:
        return _ATOM_TEXT[t]
    if t in _PARAM_TEXT:
        return f"{_PARAM_TEXT[t]}({expr.k})"
    if t is Av:
        return "Av(" + ",".join(_perm_literal(p) for p in expr.patterns) + ")"
    spell = attrgetter("_canonical") if canonical else render
    if t in _UNARY_TEXT:
        return _UNARY_TEXT[t] + "(" + spell(expr.child) + ")"
    if t in _NARY_TEXT:
        parts = [spell(c) for c in expr.children]
        if canonical and t in (Merge, And, Or):
            parts.sort()
        return _NARY_TEXT[t] + "(" + ",".join(parts) + ")"
    raise TypeError(f"unknown expression node: {expr!r}")


def render(expr: ClassExpr) -> str:
    """Canonical-grammar text for an expression; parses back to an equal tree."""
    return _spell(expr, canonical=False)


def canonical_render(expr: ClassExpr) -> str:
    """Like render(), but children of commutative nodes (merge/and/or) are sorted.

    Computed once per node object and kept on it."""
    return expr._canonical


class ClassSyntaxError(ValueError):
    """Raised on malformed class-expression text; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<int>\d+)|(?P<sym>[(),\[\]]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ClassSyntaxError(f"unexpected character {text[bad_at]!r}", bad_at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


_TOKEN_ECHO = 40  # longest token text an error message echoes; longer ones are cut


def _echo(token) -> str:
    text = repr(token)
    return text if len(text) <= _TOKEN_ECHO else text[:_TOKEN_ECHO] + "..."


# Deepest nesting of class expressions the parser accepts.  It keeps parsing,
# rendering and membership well inside the interpreter's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def error(self, message: str) -> ClassSyntaxError:
        pos = self.tokens[self.i][2] if self.i < len(self.tokens) else len(self.text)
        return ClassSyntaxError(message, pos)

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, kind: str, value: str | None = None):
        tok = self.peek()
        if tok is None or tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise self.error(f"expected {want!r}")
        self.i += 1
        return tok

    def parse(self) -> ClassExpr:
        expr = self.expr()
        if self.i != len(self.tokens):
            raise self.error("trailing input after expression")
        return expr

    def expr(self) -> ClassExpr:
        tok = self.peek()
        if tok is None or tok[0] != "name":
            raise self.error("expected a class expression")
        if self.depth == MAX_NESTING:
            raise self.error(f"expression nested deeper than {MAX_NESTING} levels")
        name = tok[1]
        self.i += 1
        if name in _ATOMS:
            return _ATOMS[name]()
        nxt = self.peek()
        if nxt is None or nxt[1] != "(":
            raise self.error(f"unknown atom {_echo(name)}" if name not in _FUNC_NAMES else "expected '('")
        self.take("sym", "(")
        self.depth += 1
        out = self.func_body(name, tok[2])
        self.depth -= 1
        self.take("sym", ")")
        return out

    def func_body(self, name: str, name_pos: int) -> ClassExpr:
        if name in _PARAMS:
            tok = self.take("int")
            try:
                return _PARAMS[name](int(tok[1]))
            except ValueError as exc:
                raise ClassSyntaxError(str(exc), tok[2]) from None
        if name == "Av":
            pats = [self.perm_literal()]
            while self.peek() and self.peek()[1] == ",":
                self.i += 1
                pats.append(self.perm_literal())
            try:
                return Av(tuple(pats))
            except ValueError as exc:
                raise ClassSyntaxError(str(exc), name_pos) from None
        if name in _NARIES:
            children = [self.expr()]
            while self.peek() and self.peek()[1] == ",":
                self.i += 1
                children.append(self.expr())
            try:
                return _NARIES[name](tuple(children))
            except ValueError as exc:
                raise ClassSyntaxError(str(exc), name_pos) from None
        if name in _UNARIES:
            child = self.expr()
            if self.peek() and self.peek()[1] == ",":
                raise self.error(f"{name} takes exactly one argument")
            return _UNARIES[name](child)
        raise ClassSyntaxError(f"unknown function {_echo(name)}", name_pos)

    def perm_literal(self) -> Permutation:
        tok = self.peek()
        if tok is None:
            raise self.error("expected a permutation literal")
        if tok[0] == "int":
            self.i += 1
            digits = tok[1]
            try:
                return Permutation(int(ch) for ch in digits)
            except ValueError:
                raise ClassSyntaxError(f"bad permutation literal {_echo(digits)}", tok[2]) from None
        if tok[1] == "[":
            self.i += 1
            vals = []
            while self.peek() and self.peek()[0] == "int":
                vals.append(int(self.take("int")[1]))
            close = self.take("sym", "]")
            try:
                return Permutation(vals)
            except ValueError:
                raise ClassSyntaxError(f"bad permutation literal {_echo(vals)}", close[2]) from None
        raise self.error("expected a permutation literal")


def parse_class(text: str) -> ClassExpr:
    """Parse a class expression; raises ClassSyntaxError with position on failure."""
    return _Parser(text).parse()
