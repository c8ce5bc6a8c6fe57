"""Membership, enumeration, counting and basis computation for class expressions.

`_RULES` holds one row per node type: its membership rule and, for `comp`,
`and`/`or` and `rev`/`cpl`/`inv`, the rule deriving its order-n slice from its
children's.  `I` and `D` are `Ik(1)` and `Dk(1)` and share those rows.  Every
other node grows its slice bottom up from order n-1 (exact, as every node
denotes a downward-closed class); the basis comes from the same growth.  A
grown row may also give, for a member of order n-1, the new last entries that
keep it in the class (`I`/`D`, `Ik`/`Dk` and the layered rows `L`, `Lk`, `F2`,
by their generating trees); its children are then emitted untested, and
`member` is asked nothing.  Slices are memoized by canonical rendering and
order in a plain dict.  An inclusion into a product strikes batches of
products until fewer members are left than batches, then tests each member p:
is some p o b^-1 in the first factor?

A slice holds its members as byte strings, so none is built past order 255.
Every slice rule maps bytes: `comp` by one `bytes.translate` table per left
factor, `rev` by reversing, `cpl` by the table v -> n+1-v, `inv` by maketrans.
Outside this module only harness reads them: `_inside` and `_lemma_l2_group`
compare `.members`, and `_lemma_blocks` composes them through `_batches`.
`in`, iteration and `len` speak `Permutation`; `rows` gives the members'
values as lists.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, repeat, tee
from operator import itemgetter
from typing import AbstractSet, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import exprs, structure
from .exprs import ClassExpr, Comp, canonical_render
from .perms import (
    EMPTY, Permutation, _patience, complement, compose, contains, inverse, lds, lis, reverse,
)


class ResourceLimitError(RuntimeError):
    """An operation would exceed the order cap or a work limit."""


# The order cap: the largest order a slice or a membership search may reach,
# unless a caller passes its own max_order.
MAX_ORDER = 11

# Work limits, each checked before the loop it bounds starts.  Growth must admit
# Ik(4) at order 10 (2,618,080 candidates) and refuse All there (3,628,800); a
# product level must admit Ik(2)∘Ik(2) at order 10 (282,105,616 pairs) and
# refuse it at order 11 (3,455,793,796).
MAX_CANDIDATES = 3_000_000
MAX_PAIRS = 1_000_000_000

# Largest order a slice holds: its members are byte strings of their values.
MAX_SLICE_ORDER = 255


def _check_work(n: int, count: int, limit: int, unit: str) -> None:
    if count > limit:
        raise ResourceLimitError(f"order {n} needs {count} {unit}, over the limit {limit}")


def _perms(members: Iterable[bytes]) -> Iterator[Permutation]:
    """The edge of a slice: members' byte strings as Permutations, lazily."""
    return map(Permutation._trusted, map(tuple, members))


@dataclass(frozen=True)
class ClassSlice:
    """All members of a class at one order, held as byte strings of their values.

    Iteration and `rows` go in byte order, which on one length is lexicographic
    order."""

    order: int
    members: frozenset[bytes]

    def __contains__(self, p: Permutation) -> bool:
        return len(p) == self.order and bytes(p.values) in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Permutation]:
        return _perms(sorted(self.members))

    def rows(self) -> list[list[int]]:
        """The members' values as lists of ints, in the order of iteration."""
        return list(map(list, sorted(self.members)))


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
    max_order: int = MAX_ORDER,
    cache: Optional[SliceCache] = None,
) -> bool:
    """Decide p in the class denoted by expr, exactly."""
    return _RULES[type(expr)].member(expr, p, max_order, cache)


def member_independent(expr: ClassExpr, p: Permutation, max_order: int = MAX_ORDER) -> bool:
    """Cache-bypassing membership used to re-verify witnesses, on one fresh cache.

    comp(A1,...,Ak), with a product in first place opened into its factors, is
    searched depth first: p is a member when some q_k, ..., q_2 from the
    slices of A_k, ..., A_2 leave p o q_k^-1 o ... o q_2^-1 in A1.  A product
    among A_2, ..., A_k is built as a slice on the scratch cache, its pair loop
    running in bytes; any other class is decided by `member`.
    """
    scratch = SliceCache()
    factors: list[ClassExpr] = []
    while isinstance(expr, Comp):
        factors[:0] = expr.children[1:]
        expr = expr.children[0]
    # One iterator per factor chosen so far, over p o q_k^-1 o ... o q_j^-1.
    stack: list[Iterator[Permutation]] = [iter([p])]
    while stack:
        r = next(stack[-1], None)
        if r is None:
            stack.pop()
        elif len(stack) > len(factors):
            if member(expr, r, max_order, scratch):
                return True
        else:
            qs = class_slice(factors[-len(stack)], len(r), max_order, scratch)
            stack.append(map(compose, repeat(r), map(inverse, qs)))
    return False


def _descents(p: Permutation) -> int:
    vals = p.values
    return sum(1 for a, b in zip(vals, vals[1:]) if a > b)


def class_slice(
    expr: ClassExpr,
    n: int,
    max_order: int = MAX_ORDER,
    cache: Optional[SliceCache] = None,
) -> ClassSlice:
    """The exact member set of the class at order n (lexicographic iteration)."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n > max_order:
        raise ResourceLimitError(f"enumeration at order {n} exceeds cap {max_order}")
    if n > MAX_SLICE_ORDER:
        raise ResourceLimitError(f"slice at order {n} exceeds the limit {MAX_SLICE_ORDER}")
    store = cache if cache is not None else _GLOBAL_CACHE
    key = (canonical_render(expr), n)
    build = _RULES[type(expr)].slice or _grow
    return store.get_or_compute(
        key, lambda: ClassSlice(n, frozenset(build(expr, n, max_order, store)))
    )


# _SHIFT[j] maps every value v >= j to v + 1; growth shifts orders below 255 only.
# _DOWN[v] maps every value w > v to w - 1: it renumbers a deletion of v.
_BYTES = bytes(range(256))
_SHIFT = [_BYTES[:j] + _BYTES[j + 1 :] + b"\xff" for j in range(256)]
_DOWN = [_BYTES[: v + 1] + _BYTES[v:-1] for v in range(256)]


def _extensions(
    prev: AbstractSet[bytes], n: int, admits: Optional[Callable[[bytes], Iterable[int]]] = None
) -> Iterator[bytes]:
    """The order-n children of prev's members: each gets a new last entry j.

    With admits, a member q gets each j in admits(q), untested.  Without, it
    gets each j in 1..n, and the child is kept when deleting its largest entry
    leaves a member of prev too (for j = n the largest entry is j itself).
    """
    _check_work(n, len(prev) * n, MAX_CANDIDATES, "growth candidates")
    for vals in prev:
        top = None if admits else vals.index(n - 1) if vals else 0
        for j in admits(vals) if admits else range(1, n + 1):
            cand = vals.translate(_SHIFT[j]) + bytes((j,))
            if top is None or j == n or cand[:top] + cand[top + 1 :] in prev:
                yield cand


def _grow(expr: ClassExpr, n: int, max_order: int, cache: SliceCache) -> Iterator[bytes]:
    """The extensions of the order-(n-1) slice: those its row admits, or else
    those that `member` accepts.

    Every lower order is asked for first, bottom up, each through class_slice,
    so every build finds the orders below it cached: no recursion in n.
    """
    if n == 0:
        return {b""} if member(expr, EMPTY, max_order, cache) else set()
    for m in range(n):
        below = class_slice(expr, m, max_order, cache)
    admits = _RULES[type(expr)].admits
    if admits:
        return _extensions(below.members, n, partial(admits, expr))
    candidates, probes = tee(_extensions(below.members, n))
    return compress(candidates, (member(expr, p, max_order, cache) for p in _perms(probes)))


def basis_up_to(expr: ClassExpr, max_len: int, max_order: int = MAX_ORDER) -> set[Permutation]:
    """All containment-minimal non-members of length <= max_len.

    The empty permutation is one exactly when the class is empty.  Deleting the
    last entry of a longer one leaves a member, so the length-n elements are
    the extensions of the order-(n-1) slice with all n one-point deletions in
    it that `member` rejects.  A length past the order cap or the candidate
    limit is refused up front, before the loop over lengths.
    """
    if max_len:
        top = class_slice(expr, max_len - 1, max_order)
        _check_work(max_len, len(top) * max_len, MAX_CANDIDATES, "growth candidates")
    basis = set() if member(expr, EMPTY, max_order) else {EMPTY}
    for n in range(1, max_len + 1):
        prev = class_slice(expr, n - 1, max_order).members
        minimal = (
            vals
            for vals in _extensions(prev, n)
            if all((vals[:i] + vals[i + 1 :]).translate(_DOWN[vals[i]]) in prev for i in range(n))
        )
        basis.update(p for p in _perms(minimal) if not member(expr, p, max_order))
    return basis


def _split(
    factors: Sequence[ClassExpr], n: int, max_order: int, cache: SliceCache
) -> tuple[AbstractSet[bytes], AbstractSet[bytes]]:
    """(left, acc): the first factor's members and the partial product of the
    others, folded right to left from the same batches in one loop.  The pair
    limit of each level is checked before its first batch."""
    acc = class_slice(factors[-1], n, max_order, cache).members
    for i in reversed(range(len(factors) - 1)):
        left = class_slice(factors[i], n, max_order, cache).members
        _check_work(n, len(left) * len(acc), MAX_PAIRS, "product pairs")
        if i:
            acc = set(chain.from_iterable(_batches(left, acc, n)))
    return left, acc


def _batches(left: Iterable[bytes], acc: Iterable[bytes], n: int) -> Iterator[Iterable[bytes]]:
    """The products a o b on byte strings, one batch per a in left, in the
    order of left.  A batch maps every b to a o b through a 256-byte table with
    table[v] = a(v), so the loop over pairs runs inside bytes.translate."""
    pad = bytes(MAX_SLICE_ORDER - n)
    return (map(bytes.translate, acc, repeat(b"\0" + a + pad)) for a in left)


def _inverses(members: Iterable[bytes], n: int) -> Iterator[bytes]:
    """Each b^-1, of order n: maketrans(b, 1..n) maps b(i) to i, so cut to 1..n it is b^-1."""
    ident = _BYTES[1 : n + 1]
    return map(itemgetter(slice(1, n + 1)), map(bytes.maketrans, members, repeat(ident)))


def _compose_slice(expr: Comp, n: int, max_order: int, cache: SliceCache) -> Iterable[bytes]:
    return chain.from_iterable(_batches(*_split(expr.children, n, max_order, cache), n))


def _per_member_pays(rest: int, batches_left: int) -> bool:
    """Each member left costs at most |acc| tests; each batch left, |acc| pairs."""
    return rest < batches_left


def first_non_product(
    expr: Comp, lhs: ClassSlice, max_order: int = MAX_ORDER
) -> Optional[Permutation]:
    """The lexicographically first member of the slice lhs that is not in the
    product class expr, or None.

    With A the first factor's slice and B the others' partial product, each
    batch a o B is struck from a copy of the members until none is left, or
    fewer than the batches left; each one left is then decided alone, in byte
    order: p is in A o B when p o b^-1 is in A for some b in B (B^-1 from
    `_inverses`).  Memory: the members, B and B^-1, never A o B.
    """
    if not lhs:
        return None
    n = lhs.order
    left, acc = _split(expr.children, n, max_order, _GLOBAL_CACHE)
    rest = set(lhs.members)
    for done, batch in enumerate(_batches(left, acc, n)):
        if _per_member_pays(len(rest), len(left) - done):
            break
        rest.difference_update(batch)
        if not rest:
            return None
    else:
        return next(_perms([min(rest)]))
    ordered = sorted(rest)
    tests = _batches(ordered, list(_inverses(acc, n)), n)
    return next(_perms(compress(ordered, map(left.isdisjoint, tests))), None)


def count(expr: ClassExpr, n_max: int, max_order: int = MAX_ORDER) -> list[int]:
    """Member counts for orders 1..n_max."""
    return [len(class_slice(expr, n, max_order)) for n in range(1, n_max + 1)]


def slice_cache() -> SliceCache:
    """The process-wide slice cache (exposed for cache-bypassing checks)."""
    return _GLOBAL_CACHE


class _Rule(NamedTuple):
    """A node type's semantics: `member(expr, p, max_order, cache)`, and
    `slice(expr, n, max_order, cache)` deriving the order-n members from the
    children's slices (None: grown from order n-1).  Both recurse through the
    module-level names, passing the order cap on unchanged.

    A grown row may set `admits(expr, q)`: for the byte string q of a member of
    order n-1, the admitted new last entries j (an iterable; values >= j shift
    up), those whose child is a member.  Growth then emits exactly those
    children, with no deletion test and no `member` call; it must be the
    class's exact rule."""

    member: Callable[..., bool]
    slice: Optional[Callable[..., Iterable[bytes]]] = None
    admits: Optional[Callable[[ClassExpr, bytes], Iterable[int]]] = None


# _FLIP maps each value v to 255 - v: decreasing subsequences become increasing ones.
_FLIP = _BYTES[::-1]


def _inc_k_admits(e: exprs.IncK | exprs.Inc, q: bytes) -> range:
    """Ik(k) (West 1996): a new last entry j closes a decreasing subsequence of
    length k+1 exactly when some length-k one ends at a value >= j.  So the
    admitted j exceed c, the largest value ending a length-k decreasing
    subsequence of q (0 if there is none): 255 minus the k-th patience tail of
    q flipped.  Ik(0) has no member past order 0."""
    if not e.k:
        return range(0)
    tails = _patience(q.translate(_FLIP))
    c = 255 - tails[e.k - 1] if len(tails) >= e.k else 0
    return range(c + 1, len(q) + 2)


def _dec_k_admits(e: exprs.DecK | exprs.Dec, q: bytes) -> range:
    """Dk(k), the mirror of Ik(k): the admitted j are at most d, the k-th patience
    tail of q, the smallest value ending a length-k increasing subsequence (n if none)."""
    if not e.k:
        return range(0)
    tails = _patience(q)
    d = tails[e.k - 1] if len(tails) >= e.k else len(q) + 1
    return range(1, d + 1)


def _complements(members: Iterable[bytes], n: int) -> Iterator[bytes]:
    """cpl(C) = δ o C, δ = n...21: one table, table[v] = δ(v) = n+1-v, per order."""
    delta = b"\0" + _BYTES[n:0:-1] + bytes(MAX_SLICE_ORDER - n)
    return map(bytes.translate, members, repeat(delta))


def _mapped(f: Callable[[Permutation], Permutation], image: Callable[..., Iterator]) -> _Rule:
    """rev/cpl/inv: the child's image under the involution f; image(members, n)
    maps its slice's bytes, and `member` keeps Permutations (Av takes any order)."""
    return _Rule(
        lambda e, p, *args: member(e.child, f(p), *args),
        lambda e, n, *args: image(class_slice(e.child, n, *args).members, n),
    )


def _boolean(quantifier, combine) -> _Rule:
    """and/or: p lies in all/any of the children; the slice combines theirs."""
    return _Rule(
        lambda e, p, *args: quantifier(member(c, p, *args) for c in e.children),
        lambda e, n, *args: combine(*(class_slice(c, n, *args).members for c in e.children)),
    )


def _layered(accept: Callable[[ClassExpr, tuple[int, ...]], bool]) -> _Rule:
    """L/Lk/F2: layered, with layer lengths that accept(expr, lengths) admits.

    A layered q of order n-1 has at most two layered children (West 1996): the
    new last entry j = n opens a layer of length 1, and j = q[-1] (values >= j
    shift up) extends the last layer by one.  Each is kept when accept admits
    its lengths."""

    def rule(e: ClassExpr, p: Permutation, *_) -> bool:
        lengths = structure.layers(p)
        return lengths is not None and accept(e, lengths)

    def admits(e: ClassExpr, q: bytes) -> list[int]:
        lengths = structure.layers(q)
        out = [len(q) + 1] if accept(e, lengths + (1,)) else []
        if q and accept(e, lengths[:-1] + (lengths[-1] + 1,)):
            out.append(q[-1])
        return out

    return _Rule(rule, admits=admits)


def _part_tests(e: ClassExpr, max_order: int, cache) -> list[structure.PartTest]:
    """V/H/merge: one membership test per child, for the split searches;
    children with the same canonical rendering share one test object."""
    tests: dict[str, structure.PartTest] = {}
    return [
        tests.setdefault(canonical_render(c), partial(member, c, max_order=max_order, cache=cache))
        for c in e.children
    ]


def _merge_member(e: exprs.Merge, p: Permutation, max_order: int, cache) -> bool:
    if len(p) > max_order:
        raise ResourceLimitError(f"merge membership at order {len(p)} exceeds cap {max_order}")
    return structure.merge_split(p, _part_tests(e, max_order, cache)) is not None


# I and D are Ik(1) and Dk(1): they share these rows, which read k = 1 off them.
_INC_K = _Rule(lambda e, p, *_: lds(p) <= e.k, admits=_inc_k_admits)
_DEC_K = _Rule(lambda e, p, *_: lis(p) <= e.k, admits=_dec_k_admits)

_RULES: dict[type, _Rule] = {
    exprs.AllPerms: _Rule(lambda e, p, *_: True),
    exprs.Inc: _INC_K,
    exprs.Dec: _DEC_K,
    exprs.IncK: _INC_K,
    exprs.DecK: _DEC_K,
    exprs.LayeredAll: _layered(lambda e, lengths: True),
    exprs.LayeredK: _layered(lambda e, lengths: len(lengths) <= e.k),
    exprs.FibLayered: _layered(lambda e, lengths: all(l <= 2 for l in lengths)),
    exprs.VertK: _Rule(lambda e, p, *_: _descents(p) <= e.k - 1),
    exprs.HorizK: _Rule(lambda e, p, *_: _descents(inverse(p)) <= e.k - 1),
    exprs.Av: _Rule(lambda e, p, *_: all(contains(p, pat) is None for pat in e.patterns)),
    exprs.Vert: _Rule(
        lambda e, p, *args: structure.vertical_split(p, _part_tests(e, *args)) is not None
    ),
    exprs.Horiz: _Rule(
        lambda e, p, *args: structure.horizontal_split(p, _part_tests(e, *args)) is not None
    ),
    exprs.Merge: _Rule(_merge_member),
    exprs.Comp: _Rule(lambda e, p, *args: p in class_slice(e, len(p), *args), _compose_slice),
    exprs.And: _boolean(all, frozenset.intersection),
    exprs.Or: _boolean(any, frozenset.union),
    exprs.Rev: _mapped(reverse, lambda members, n: map(itemgetter(slice(None, None, -1)), members)),
    exprs.Cpl: _mapped(complement, _complements),
    exprs.Inv: _mapped(inverse, _inverses),
}
