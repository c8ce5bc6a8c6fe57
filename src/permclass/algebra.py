"""Membership, enumeration, counting and basis computation for class expressions.

`member` defines each node type.  `comp`, `and`/`or` and `rev`/`cpl`/`inv` derive
their order-n slices from their children's; every other node grows its slice
from order n-1 (exact, as every node denotes a downward-closed class).  Slices
are memoized by canonical rendering and order in a plain, unlocked dict.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat
from operator import attrgetter
from typing import Iterator, Optional

from . import structure
from .exprs import (
    AllPerms,
    And,
    Av,
    ClassExpr,
    Comp,
    Cpl,
    Dec,
    DecK,
    FibLayered,
    Horiz,
    HorizK,
    Inc,
    IncK,
    Inv,
    LayeredAll,
    LayeredK,
    Merge,
    Or,
    Rev,
    Vert,
    VertK,
    canonical_render,
)
from .perms import (
    EMPTY,
    Permutation,
    all_perms,
    complement,
    compose,
    contains,
    inverse,
    lds,
    lis,
    pattern_of,
    reverse,
)


class ResourceLimitError(RuntimeError):
    """An operation would exceed the configured order cap."""


@dataclass(frozen=True)
class Config:
    """Order caps for the expensive search paths; override per call as needed."""

    enum_cap: int = 11  # slice enumeration
    compose_merge_cap: int = 9  # Compose / Merge membership searches


DEFAULT_CONFIG = Config()


@dataclass(frozen=True)
class ClassSlice:
    """All members of a class at one order, with deterministic iteration."""

    expr: ClassExpr
    order: int
    members: frozenset[Permutation]

    def __contains__(self, p: Permutation) -> bool:
        return p in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Permutation]:
        return iter(sorted(self.members, key=attrgetter("values")))


class SliceCache:
    """Keyed by (canonical rendering, order); each slice is computed once."""

    def __init__(self):
        self._data: dict[tuple[str, int], ClassSlice] = {}

    def get_or_compute(self, key: tuple[str, int], compute) -> ClassSlice:
        # An empty ClassSlice is falsy through __len__, so test for None.
        hit = self._data.get(key)
        if hit is None:
            hit = self._data[key] = compute()
        return hit

    def clear(self) -> None:
        self._data.clear()


_GLOBAL_CACHE = SliceCache()


def member(
    expr: ClassExpr,
    p: Permutation,
    config: Config = DEFAULT_CONFIG,
    cache: Optional[SliceCache] = None,
) -> bool:
    """Decide p in the class denoted by expr, exactly."""
    n = len(p)
    if isinstance(expr, AllPerms):
        return True
    if isinstance(expr, Inc):
        return lds(p) <= 1
    if isinstance(expr, Dec):
        return lis(p) <= 1
    if isinstance(expr, IncK):
        return lds(p) <= expr.k if n else True
    if isinstance(expr, DecK):
        return lis(p) <= expr.k if n else True
    if isinstance(expr, LayeredAll):
        return structure.layers(p) is not None
    if isinstance(expr, LayeredK):
        shape = structure.layers(p)
        return shape is not None and len(shape.lengths) <= expr.k
    if isinstance(expr, FibLayered):
        shape = structure.layers(p)
        return shape is not None and all(l <= 2 for l in shape.lengths)
    if isinstance(expr, VertK):
        return _descents(p) <= expr.k - 1
    if isinstance(expr, HorizK):
        return _descents(inverse(p)) <= expr.k - 1
    if isinstance(expr, Av):
        return all(contains(p, pat) is None for pat in expr.patterns)
    if isinstance(expr, Vert):
        return structure.vertical_split(p, expr.children, config, cache) is not None
    if isinstance(expr, Horiz):
        return structure.horizontal_split(p, expr.children, config, cache) is not None
    if isinstance(expr, Merge):
        _check_search_cap("merge", n, config)
        return structure.merge_split(p, expr.children, config, cache) is not None
    if isinstance(expr, Comp):
        _check_search_cap("compose", n, config)
        return p in class_slice(expr, n, config, cache)
    if isinstance(expr, And):
        return all(member(c, p, config, cache) for c in expr.children)
    if isinstance(expr, Or):
        return any(member(c, p, config, cache) for c in expr.children)
    if isinstance(expr, Rev):
        return member(expr.child, reverse(p), config, cache)
    if isinstance(expr, Cpl):
        return member(expr.child, complement(p), config, cache)
    if isinstance(expr, Inv):
        return member(expr.child, inverse(p), config, cache)
    raise TypeError(f"unknown expression node: {expr!r}")


def _check_search_cap(kind: str, n: int, config: Config) -> None:
    if n > config.compose_merge_cap:
        raise ResourceLimitError(
            f"{kind} membership at order {n} exceeds cap {config.compose_merge_cap}"
        )


def member_independent(expr: ClassExpr, p: Permutation, config: Config = DEFAULT_CONFIG) -> bool:
    """Cache-bypassing membership used to re-verify witnesses.

    Compositions are decided by iterating the rightmost factor's slice instead
    of looking the permutation up in a memoized product slice.
    """
    if isinstance(expr, Comp):
        n = len(p)
        _check_search_cap("compose", n, config)
        head = expr.children[0] if len(expr.children) == 2 else Comp(expr.children[:-1])
        last = expr.children[-1]
        scratch = SliceCache()
        for q in class_slice(last, n, config, scratch):
            if member_independent(head, compose(p, inverse(q)), config):
                return True
        return False
    return member(expr, p, config, cache=SliceCache())


def _descents(p: Permutation) -> int:
    vals = p.values
    return sum(1 for a, b in zip(vals, vals[1:]) if a > b)


def class_slice(
    expr: ClassExpr,
    n: int,
    config: Config = DEFAULT_CONFIG,
    cache: Optional[SliceCache] = None,
) -> ClassSlice:
    """The exact member set of the class at order n (lexicographic iteration)."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n > config.enum_cap:
        raise ResourceLimitError(f"enumeration at order {n} exceeds cap {config.enum_cap}")
    store = cache if cache is not None else _GLOBAL_CACHE
    key = (canonical_render(expr), n)
    return store.get_or_compute(
        key, lambda: ClassSlice(expr, n, frozenset(_enumerate(expr, n, config, store)))
    )


def _enumerate(expr: ClassExpr, n: int, config: Config, cache: SliceCache) -> set[Permutation]:
    if isinstance(expr, Comp):
        return _compose_slice(expr, n, config, cache)
    if isinstance(expr, And):
        sets = [class_slice(c, n, config, cache).members for c in expr.children]
        return set(frozenset.intersection(*sets))
    if isinstance(expr, Or):
        sets = [class_slice(c, n, config, cache).members for c in expr.children]
        return set(frozenset.union(*sets))
    if isinstance(expr, Rev):
        return {reverse(p) for p in class_slice(expr.child, n, config, cache).members}
    if isinstance(expr, Cpl):
        return {complement(p) for p in class_slice(expr.child, n, config, cache).members}
    if isinstance(expr, Inv):
        return {inverse(p) for p in class_slice(expr.child, n, config, cache).members}
    return _grow(expr, n, config, cache)


def _grow(expr: ClassExpr, n: int, config: Config, cache: SliceCache) -> set[Permutation]:
    """The one-point extensions of the order-(n-1) slice that `member` accepts.

    Each member of order n-1 gets a new last entry in each of the n ways.  The
    class is downward closed, so a candidate whose largest entry, once deleted,
    leaves a non-member of order n-1 is skipped without a membership call.
    """
    # Merge, V and H searches here are bounded by enum_cap, like the slice itself.
    config = replace(config, compose_merge_cap=max(config.compose_merge_cap, n))
    if n == 0:
        return {EMPTY} if member(expr, EMPTY, config, cache) else set()
    prev = {p.values for p in class_slice(expr, n - 1, config, cache).members}
    out: set[Permutation] = set()
    for vals in prev:
        top = vals.index(n - 1) if vals else 0
        for j in range(1, n + 1):
            cand = tuple([v + 1 if v >= j else v for v in vals]) + (j,)
            if j < n and cand[:top] + cand[top + 1 :] not in prev:
                continue
            p = Permutation._trusted(cand)
            if member(expr, p, config, cache):
                out.add(p)
    return out


# Largest order a product build handles: it holds permutations as byte strings.
MAX_PRODUCT_ORDER = 255


def _compose_slice(expr: Comp, n: int, config: Config, cache: SliceCache) -> set[Permutation]:
    """The products a1 o ... o ak, built right to left on byte strings.

    Each step maps every accumulated b to a o b for one left factor a at a
    time, through a 256-byte table with table[v] = a(v), so the loop over
    pairs runs inside bytes.translate.
    """
    if n > MAX_PRODUCT_ORDER:
        raise ResourceLimitError(
            f"composition at order {n} exceeds the product build's limit {MAX_PRODUCT_ORDER}"
        )
    pad = bytes(MAX_PRODUCT_ORDER - n)
    *lefts, last = expr.children
    acc = {bytes(p.values) for p in class_slice(last, n, config, cache).members}
    for child in reversed(lefts):
        nxt: set[bytes] = set()
        for a in class_slice(child, n, config, cache).members:
            table = bytes((0, *a.values)) + pad
            nxt.update(map(bytes.translate, acc, repeat(table)))
        acc = nxt
    return {Permutation._trusted(tuple(b)) for b in acc}


def count(expr: ClassExpr, n_max: int, config: Config = DEFAULT_CONFIG) -> list[int]:
    """Member counts for orders 1..n_max."""
    return [len(class_slice(expr, n, config)) for n in range(1, n_max + 1)]


def basis_up_to(expr: ClassExpr, max_len: int, config: Config = DEFAULT_CONFIG) -> set[Permutation]:
    """All containment-minimal non-members of length <= max_len.

    A permutation is minimal exactly when every one-element deletion is a
    member, since non-membership is upward closed for a class.
    """
    basis: set[Permutation] = set()
    for n in range(1, max_len + 1):
        for p in all_perms(n):
            if member(expr, p, config):
                continue
            vals = p.values
            if all(
                member(expr, pattern_of(vals[:i] + vals[i + 1 :]), config)
                for i in range(n)
            ):
                basis.add(p)
    return basis


def slice_cache() -> SliceCache:
    """The process-wide slice cache (exposed for cache-bypassing checks)."""
    return _GLOBAL_CACHE

