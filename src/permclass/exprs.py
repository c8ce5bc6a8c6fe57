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
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from operator import attrgetter
from typing import ClassVar

from .perms import Permutation, to_text


class ClassExpr:
    """Base of all class-expression nodes.  Each node type is a subclass of
    one kind base below (or Av) that sets `name`, its spelling in the grammar."""

    __slots__ = ()
    name: ClassVar[str]

    # Nodes are immutable and non-slotted, so the key is stored in the instance
    # dict on first use; it is not a field, so eq, hash and repr ignore it.
    @cached_property
    def _canonical(self) -> str:
        return _spell(self, canonical=True)

    # A node type inherits eq, hash, repr and the frozen fields from its kind
    # base, a frozen dataclass.  It is not one itself (each decoration costs
    # about 0.4 ms at import), so that base's frozen check passes every other
    # name up to here.
    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


@dataclass(frozen=True)
class _Atom(ClassExpr):
    """A node with no argument, spelled by its name alone."""


@dataclass(frozen=True)
class _Param(ClassExpr):
    """A node with one integer parameter k >= least, spelled name(k)."""

    k: int
    least = 1

    def __post_init__(self):
        if self.k < self.least:
            raise ValueError(f"{self.name} requires k >= {self.least}")


@dataclass(frozen=True)
class _Nary(ClassExpr):
    """A node over at least `least` child classes, spelled name(c1,...,cm);
    the canonical spelling sorts the children of a commutative one."""

    children: tuple[ClassExpr, ...]
    least = 2
    commutative = False

    def __post_init__(self):
        if len(self.children) < self.least:
            raise ValueError(f"{self.name} requires at least {self.least} children")


@dataclass(frozen=True)
class _Unary(ClassExpr):
    """A node over exactly one child class, spelled name(c)."""

    child: ClassExpr


class Inc(_Atom):
    """All increasing permutations: Ik(1), whose rule reads this `k`."""

    name = "I"
    k = 1


class Dec(_Atom):
    """All decreasing permutations: Dk(1), whose rule reads this `k`."""

    name = "D"
    k = 1


class LayeredAll(_Atom):
    """All layered permutations (sums of decreasing runs)."""

    name = "L"


class FibLayered(_Atom):
    """Layered permutations with every layer of length at most 2."""

    name = "F2"


class AllPerms(_Atom):
    """Every permutation; test scaffolding atom."""

    name = "All"


class IncK(_Param):
    """Permutations coverable by at most k increasing subsequences."""

    name = "Ik"
    least = 0


class DecK(_Param):
    """Permutations coverable by at most k decreasing subsequences."""

    name = "Dk"
    least = 0


class LayeredK(_Param):
    """Layered permutations with at most k layers."""

    name = "Lk"


class VertK(_Param):
    """Concatenations of at most k increasing segments."""

    name = "Vk"


class HorizK(_Param):
    """Interleavings of at most k increasing runs on stacked value ranges."""

    name = "Hk"


@dataclass(frozen=True)
class Av(ClassExpr):
    """Permutations avoiding every listed pattern."""

    patterns: tuple[Permutation, ...]
    name = "Av"

    def __post_init__(self):
        if not self.patterns:
            raise ValueError("Av requires at least one pattern")
        if len(set(self.patterns)) != len(self.patterns):
            raise ValueError("Av patterns must be duplicate-free")


class Comp(_Nary):
    """Ordered composition of classes (left factor applied last)."""

    name = "comp"


class Merge(_Nary):
    """Permutations colorable into parts lying in the child classes."""

    name = "merge"
    commutative = True


class Vert(_Nary):
    """Vertical merge: concatenation of segments from the child classes, in order."""

    name = "V"
    least = 1


class Horiz(_Nary):
    """Horizontal merge: interleaving of parts on stacked value ranges, bottom-up."""

    name = "H"
    least = 1


class And(_Nary):
    name = "and"
    commutative = True


class Or(_Nary):
    name = "or"
    commutative = True


class Rev(_Unary):
    name = "rev"


class Cpl(_Unary):
    name = "cpl"


class Inv(_Unary):
    name = "inv"


def _leaves(t: type) -> list[type]:
    """The subclasses of t that have none of their own."""
    subs = t.__subclasses__()
    return [leaf for s in subs for leaf in _leaves(s)] if subs else [t]


# Every node type by its name; the parser's one table.
_NODES = {t.name: t for t in _leaves(ClassExpr)}


def _perm_literal(p: Permutation) -> str:
    if 0 < len(p) <= 9:
        return to_text(p)
    return "[" + " ".join(str(v) for v in p.values) + "]"


def _spell(expr: ClassExpr, canonical: bool) -> str:
    """Grammar text; the canonical one sorts the children of commutative nodes."""
    if isinstance(expr, _Atom):
        return expr.name
    if isinstance(expr, _Param):
        return f"{expr.name}({expr.k})"
    if isinstance(expr, Av):
        return "Av(" + ",".join(_perm_literal(p) for p in expr.patterns) + ")"
    spell = attrgetter("_canonical") if canonical else render
    if isinstance(expr, _Unary):
        return expr.name + "(" + spell(expr.child) + ")"
    if isinstance(expr, _Nary):
        parts = [spell(c) for c in expr.children]
        if canonical and expr.commutative:
            parts.sort()
        return expr.name + "(" + ",".join(parts) + ")"
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
        t = _NODES.get(name)
        if t is not None and issubclass(t, _Atom):
            return t()
        nxt = self.peek()
        if nxt is None or nxt[1] != "(":
            raise self.error(f"unknown atom {_echo(name)}" if t is None else "expected '('")
        self.take("sym", "(")
        if t is None:
            raise ClassSyntaxError(f"unknown function {_echo(name)}", tok[2])
        self.depth += 1
        out = self.func_body(t, tok[2])
        self.depth -= 1
        self.take("sym", ")")
        return out

    def func_body(self, t: type, name_pos: int) -> ClassExpr:
        if issubclass(t, _Param):
            tok = self.take("int")
            try:
                return t(int(tok[1]))
            except ValueError as exc:
                raise ClassSyntaxError(str(exc), tok[2]) from None
        if issubclass(t, _Unary):
            child = self.expr()
            if self.peek() and self.peek()[1] == ",":
                raise self.error(f"{t.name} takes exactly one argument")
            return t(child)
        item = self.perm_literal if t is Av else self.expr
        args = [item()]
        while self.peek() and self.peek()[1] == ",":
            self.i += 1
            args.append(item())
        try:
            return t(tuple(args))
        except ValueError as exc:
            raise ClassSyntaxError(str(exc), name_pos) from None

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
