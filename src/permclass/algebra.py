"""Membership, enumeration, counting and basis computation for class expressions.

`_RULES` holds one row per node type: its membership rule and, for `comp`,
`and`/`or` and `rev`/`cpl`/`inv`, the rule deriving its order-n slice from its
children's.  Every other node grows its slice bottom up from order n-1 (exact,
as every node denotes a downward-closed class); the basis comes from the same
growth.  Slices are memoized by canonical rendering and order in a plain dict.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat
from operator import attrgetter
from typing import AbstractSet, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import exprs, structure
from .exprs import ClassExpr, Comp, canonical_render
from .perms import (
    EMPTY, Permutation, complement, compose, contains, inverse, lds, lis, pattern_of, reverse,
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

    def __contains__(self, key: tuple[str, int]) -> bool:
        return key in self._data

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
    return _RULES[type(expr)].member(expr, p, config, cache)


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
    build = _RULES[type(expr)].slice or _grow
    return store.get_or_compute(
        key, lambda: ClassSlice(expr, n, frozenset(build(expr, n, config, store)))
    )


def _extensions(prev: set[tuple[int, ...]], n: int) -> Iterator[tuple[int, ...]]:
    """The order-n permutations whose last-entry and largest-entry deletions lie in prev.

    Each member of prev gets a new last entry j in each of the n ways; for j < n
    the largest entry sits elsewhere, and deleting it must leave a member too.
    """
    for vals in prev:
        top = vals.index(n - 1) if vals else 0
        for j in range(1, n + 1):
            cand = tuple([v + 1 if v >= j else v for v in vals]) + (j,)
            if j == n or cand[:top] + cand[top + 1 :] in prev:
                yield cand


def _grow(expr: ClassExpr, n: int, config: Config, cache: SliceCache) -> set[Permutation]:
    """The extensions of the order-(n-1) slice that `member` accepts.

    Missing lower orders are built first, bottom up, each through class_slice,
    so every build finds the order below it cached: no recursion in n.
    """
    # Merge, V and H searches here are bounded by enum_cap, like the slice itself.
    config = replace(config, compose_merge_cap=max(config.compose_merge_cap, n))
    if n == 0:
        return {EMPTY} if member(expr, EMPTY, config, cache) else set()
    key, low = canonical_render(expr), n - 1
    while low > 0 and (key, low - 1) not in cache:
        low -= 1
    for m in range(low, n):
        below = class_slice(expr, m, config, cache)
    prev = {p.values for p in below.members}
    candidates = map(Permutation._trusted, _extensions(prev, n))
    return {p for p in candidates if member(expr, p, config, cache)}


def basis_up_to(expr: ClassExpr, max_len: int, config: Config = DEFAULT_CONFIG) -> set[Permutation]:
    """All containment-minimal non-members of length <= max_len.

    The empty permutation is one exactly when the class is empty.  Deleting the
    last entry of a longer one leaves a member, so the length-n elements are
    the extensions of the order-(n-1) slice with all n one-point deletions in
    it that `member` rejects.  The order max_len-1 slice is asked for first, so
    a length past the enumeration cap is refused before any slice is built.
    """
    if max_len:
        class_slice(expr, max_len - 1, config)
    basis = set() if member(expr, EMPTY, config) else {EMPTY}
    for n in range(1, max_len + 1):
        prev = {p.values for p in class_slice(expr, n - 1, config).members}
        for vals in _extensions(prev, n):
            if all(pattern_of(vals[:i] + vals[i + 1 :]).values in prev for i in range(n)):
                p = Permutation._trusted(vals)
                if not member(expr, p, config):
                    basis.add(p)
    return basis


# Largest order a product build handles: it holds permutations as byte strings.
MAX_PRODUCT_ORDER = 255


def _check_product_order(n: int) -> None:
    if n > MAX_PRODUCT_ORDER:
        raise ResourceLimitError(
            f"composition at order {n} exceeds the product build's limit {MAX_PRODUCT_ORDER}"
        )


def _product_batches(
    factors: Sequence[ClassExpr], n: int, config: Config, cache: SliceCache
) -> Iterator[Iterable[bytes]]:
    """The products a1 o ... o ak on byte strings, one batch per member a1 of
    the first factor, in that slice's set order.

    The other factors' partial product is built first, right to left, from
    these same batches.  A batch maps every accumulated b to a o b through a
    256-byte table with table[v] = a(v), so the loop over pairs runs inside
    bytes.translate; callers check n against MAX_PRODUCT_ORDER first.
    """
    first, *others = factors
    if not others:
        yield [bytes(p.values) for p in class_slice(first, n, config, cache).members]
        return
    acc: set[bytes] = set()
    for batch in _product_batches(others, n, config, cache):
        acc.update(batch)
    pad = bytes(MAX_PRODUCT_ORDER - n)
    for a in class_slice(first, n, config, cache).members:
        yield map(bytes.translate, acc, repeat(bytes((0, *a.values)) + pad))


def _compose_slice(expr: Comp, n: int, config: Config, cache: SliceCache) -> set[Permutation]:
    _check_product_order(n)
    products: set[bytes] = set()
    for batch in _product_batches(expr.children, n, config, cache):
        products.update(batch)
    return {Permutation._trusted(tuple(b)) for b in products}


def first_non_product(
    expr: Comp,
    members: AbstractSet[Permutation],
    n: int,
    config: Config = DEFAULT_CONFIG,
) -> Optional[Permutation]:
    """The lexicographically first of the order-n members that is not in the
    product class expr, or None.

    Each batch of products is struck from the members, as byte strings, and
    the scan stops once none is left.  The product slice is never built: the
    memory is the members and the partial product of all factors but the first.
    """
    if not members:
        return None
    _check_search_cap("compose", n, config)
    _check_product_order(n)
    rest = {bytes(p.values) for p in members}
    for batch in _product_batches(expr.children, n, config, _GLOBAL_CACHE):
        rest.difference_update(batch)
        if not rest:
            return None
    return Permutation._trusted(tuple(min(rest)))


def count(expr: ClassExpr, n_max: int, config: Config = DEFAULT_CONFIG) -> list[int]:
    """Member counts for orders 1..n_max."""
    return [len(class_slice(expr, n, config)) for n in range(1, n_max + 1)]


def slice_cache() -> SliceCache:
    """The process-wide slice cache (exposed for cache-bypassing checks)."""
    return _GLOBAL_CACHE


class _Rule(NamedTuple):
    """A node type's semantics: `member(expr, p, config, cache)`, and `slice(expr,
    n, config, cache)` deriving the order-n members from the children's slices
    (None: grown from order n-1).  Both recurse through the module-level names."""

    member: Callable[..., bool]
    slice: Optional[Callable[..., Iterable[Permutation]]] = None


def _mapped(f: Callable[[Permutation], Permutation]) -> _Rule:
    """rev/cpl/inv: the image of the child class under the involution f."""
    return _Rule(
        lambda e, p, config, cache: member(e.child, f(p), config, cache),
        lambda e, n, config, cache: {f(q) for q in class_slice(e.child, n, config, cache).members},
    )


def _boolean(quantifier, combine) -> _Rule:
    """and/or: p lies in all/any of the children; the slice combines theirs."""
    return _Rule(
        lambda e, p, config, cache: quantifier(member(c, p, config, cache) for c in e.children),
        lambda e, n, config, cache: combine(
            *(class_slice(c, n, config, cache).members for c in e.children)
        ),
    )


def _layered(accept: Callable[[ClassExpr, tuple[int, ...]], bool]) -> _Rule:
    """L/Lk/F2: layered, with layer lengths that accept(expr, lengths) admits."""

    def rule(e: ClassExpr, p: Permutation, *_) -> bool:
        shape = structure.layers(p)
        return shape is not None and accept(e, shape.lengths)

    return _Rule(rule)


def _merge_member(e: exprs.Merge, p: Permutation, config: Config, cache) -> bool:
    _check_search_cap("merge", len(p), config)
    return structure.merge_split(p, e.children, config, cache) is not None


def _comp_member(e: Comp, p: Permutation, config: Config, cache) -> bool:
    _check_search_cap("compose", len(p), config)
    return p in class_slice(e, len(p), config, cache)


_RULES: dict[type, _Rule] = {
    exprs.AllPerms: _Rule(lambda e, p, *_: True),
    exprs.Inc: _Rule(lambda e, p, *_: lds(p) <= 1),
    exprs.Dec: _Rule(lambda e, p, *_: lis(p) <= 1),
    exprs.IncK: _Rule(lambda e, p, *_: lds(p) <= e.k),
    exprs.DecK: _Rule(lambda e, p, *_: lis(p) <= e.k),
    exprs.LayeredAll: _layered(lambda e, lengths: True),
    exprs.LayeredK: _layered(lambda e, lengths: len(lengths) <= e.k),
    exprs.FibLayered: _layered(lambda e, lengths: all(l <= 2 for l in lengths)),
    exprs.VertK: _Rule(lambda e, p, *_: _descents(p) <= e.k - 1),
    exprs.HorizK: _Rule(lambda e, p, *_: _descents(inverse(p)) <= e.k - 1),
    exprs.Av: _Rule(lambda e, p, *_: all(contains(p, pat) is None for pat in e.patterns)),
    exprs.Vert: _Rule(
        lambda e, p, config, cache: structure.vertical_split(p, e.children, config, cache)
        is not None
    ),
    exprs.Horiz: _Rule(
        lambda e, p, config, cache: structure.horizontal_split(p, e.children, config, cache)
        is not None
    ),
    exprs.Merge: _Rule(_merge_member),
    exprs.Comp: _Rule(_comp_member, _compose_slice),
    exprs.And: _boolean(all, frozenset.intersection),
    exprs.Or: _boolean(any, frozenset.union),
    exprs.Rev: _mapped(reverse),
    exprs.Cpl: _mapped(complement),
    exprs.Inv: _mapped(inverse),
}
