"""Structural decompositions and searches: layers, blocks, colorings, splits.

Every search returns its lexicographically first witness (colorings by
backtracking, V/H splits by one greedy pass), so outputs are reproducible.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .exprs import ClassExpr, Inc
from .perms import (
    EMPTY,
    Permutation,
    complement,
    contains,
    direct_sum_all,
    decreasing,
    pattern_of,
)

if TYPE_CHECKING:
    from .algebra import Config, SliceCache


class NotLayeredError(ValueError):
    """Raised when an operation requires a layered permutation."""


class SplitContractError(RuntimeError):
    """A split guaranteed to exist by theory was not found; signals a bug."""


@dataclass(frozen=True)
class LayerShape:
    """Left-to-right layer lengths of a layered permutation."""

    lengths: tuple[int, ...]

    def __post_init__(self):
        if any(l < 1 for l in self.lengths):
            raise ValueError("layer lengths must be positive")

    def realize(self) -> Permutation:
        return direct_sum_all(decreasing(l) for l in self.lengths)

    def to_json(self) -> list[int]:
        return list(self.lengths)


@dataclass(frozen=True)
class Block:
    """A contiguous run of consecutive values; direction 'inc' or 'dec'."""

    start: int  # 1-based position
    length: int
    direction: str

    def to_json(self) -> dict:
        return {"start": self.start, "len": self.length, "dir": self.direction}


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[Block, ...]

    def to_json(self) -> list[dict]:
        return [b.to_json() for b in self.blocks]


@dataclass(frozen=True)
class Coloring:
    """Per-position part assignment (1-based part indices)."""

    assignment: tuple[int, ...]

    def part_positions(self, part: int) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.assignment, start=1) if c == part)


def layers(p: Permutation) -> Optional[LayerShape]:
    """The unique layer shape of p if p is a sum of decreasing runs, else None."""
    vals = p.values
    lengths = []
    base = 0
    i = 0
    n = len(vals)
    while i < n:
        size = vals[i] - base
        if size < 1 or i + size > n:
            return None
        for off in range(size):
            if vals[i + off] != base + size - off:
                return None
        lengths.append(size)
        base += size
        i += size
    return LayerShape(tuple(lengths))


def colayers(p: Permutation) -> Optional[LayerShape]:
    """Layer shape of the complement; present exactly when p is co-layered."""
    return layers(complement(p))


def _is_block(vals: tuple[int, ...], i: int, j: int) -> bool:
    # positions i..j inclusive, 0-based
    if j == i:
        return True
    step = vals[i + 1] - vals[i]
    if step not in (1, -1):
        return False
    return all(vals[t + 1] - vals[t] == step for t in range(i, j))


def min_blocks(p: Permutation) -> tuple[int, BlockDecomposition]:
    """A minimum decomposition of p into concatenated blocks, leftmost-longest first."""
    vals = p.values
    n = len(vals)
    if n == 0:
        return 0, BlockDecomposition(())
    INF = n + 1
    best = [INF] * (n + 1)
    best[n] = 0
    for i in range(n - 1, -1, -1):
        for j in range(i, n):
            if _is_block(vals, i, j) and 1 + best[j + 1] < best[i]:
                best[i] = 1 + best[j + 1]
    blocks = []
    i = 0
    while i < n:
        length = max(
            j - i + 1
            for j in range(i, n)
            if _is_block(vals, i, j) and 1 + best[j + 1] == best[i]
        )
        direction = "dec" if length > 1 and vals[i + 1] < vals[i] else "inc"
        blocks.append(Block(i + 1, length, direction))
        i += length
    return best[0], BlockDecomposition(tuple(blocks))


def gamma_pattern(c: int) -> Permutation:
    """The (c+1)-block 2143...(2c+2)(2c+1)."""
    if c < 0:
        raise ValueError("c must be nonnegative")
    vals = []
    for i in range(c + 1):
        vals += [2 * i + 2, 2 * i + 1]
    return Permutation(vals)


def normalize_short_layers(p: Permutation, threshold: int) -> Permutation:
    """Flip every layer of length <= threshold into an increasing run, in place."""
    shape = layers(p)
    if shape is None:
        raise NotLayeredError(f"{p} is not layered")
    parts = []
    for length in shape.lengths:
        if length <= threshold:
            parts.append(Permutation(range(1, length + 1)))
        else:
            parts.append(decreasing(length))
    return direct_sum_all(parts)


def is_close(a: Permutation, b: Permutation, c: int, l: int) -> bool:
    """True iff |a(i) - b(i)| <= c for all but at most l positions."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    exceptions = sum(1 for x, y in zip(a.values, b.values) if abs(x - y) > c)
    return exceptions <= l


def _member_predicates(
    constraints: Sequence[ClassExpr],
    config: Optional[Config] = None,
    cache: Optional[SliceCache] = None,
) -> list[Callable[[Permutation], bool]]:
    """One membership test per constraint; None means DEFAULT_CONFIG, the global cache."""
    from .algebra import DEFAULT_CONFIG, member

    config = DEFAULT_CONFIG if config is None else config
    return [lambda q, c=c: member(c, q, config, cache) for c in constraints]


def coloring_search(
    p: Permutation, predicates: Sequence[Callable[[Permutation], bool]]
) -> Optional[Coloring]:
    """First k-coloring (lexicographic in the assignment) whose parts all satisfy
    their predicate.  Predicates must be downward closed, which lets partial
    parts be tested for pruning."""
    k = len(predicates)
    n = len(p)
    vals = p.values
    parts: list[list[int]] = [[] for _ in range(k)]
    assignment: list[int] = []

    def ok(part: int) -> bool:
        return predicates[part](pattern_of(parts[part]))

    def extend(i: int) -> bool:
        if i == n:
            return True
        for part in range(k):
            parts[part].append(vals[i])
            if ok(part):
                assignment.append(part + 1)
                if extend(i + 1):
                    return True
                assignment.pop()
            parts[part].pop()
        return False

    if not all(pred(EMPTY) for pred in predicates):
        # An empty part must be admissible for every constraint class.
        return None
    if extend(0):
        return Coloring(tuple(assignment))
    return None


def merge_split(
    p: Permutation,
    constraints: Sequence[ClassExpr],
    config: Optional[Config] = None,
    cache: Optional[SliceCache] = None,
) -> Optional[Coloring]:
    """Witness coloring for membership of p in the merge of the constraint classes."""
    return coloring_search(p, _member_predicates(constraints, config, cache))


def _compositions(total: int, parts: int):
    """All weak compositions of total into the given number of parts, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _greedy_cuts(
    n: int, preds: Sequence[Callable[[Permutation], bool]], piece: Callable[[int, int], Permutation]
) -> Optional[tuple[int, ...]]:
    """The lexicographically first cuts 0 <= c_1 <= ... <= c_{k-1} <= n with each
    piece(c_{i-1}, c_i) accepted by preds[i] (c_0 = 0, c_k = n), or None, with
    O(n + k) calls.  Parts are taken from the right, each as large as possible:
    the predicates are downward closed, so by induction every greedy cut is at
    most the same cut of any valid vector."""
    end = n
    starts = []
    for pred in reversed(preds):
        start = end
        while start > 0 and pred(piece(start - 1, end)):
            start -= 1
        if start == end and not pred(EMPTY):
            return None
        starts.append(start)
        end = start
    return None if end else tuple(reversed(starts[:-1]))


def vertical_split(
    p: Permutation,
    constraints: Sequence[ClassExpr],
    config: Optional[Config] = None,
    cache: Optional[SliceCache] = None,
) -> Optional[tuple[int, ...]]:
    """Cut positions splitting p into consecutive segments lying in the constraint
    classes, or None.  Returns the k-1 positions after which cuts fall, the
    lexicographically first such tuple."""
    preds = _member_predicates(constraints, config, cache)
    return _greedy_cuts(len(p), preds, lambda lo, hi: pattern_of(p.values[lo:hi]))


def horizontal_split(
    p: Permutation,
    constraints: Sequence[ClassExpr],
    config: Optional[Config] = None,
    cache: Optional[SliceCache] = None,
) -> Optional[tuple[int, ...]]:
    """Value thresholds splitting p into stacked consecutive-value parts lying in
    the constraint classes, or None.  Returns the k-1 cut values, the
    lexicographically first such tuple."""
    preds = _member_predicates(constraints, config, cache)
    return _greedy_cuts(len(p), preds, lambda lo, hi: pattern_of([v for v in p if lo < v <= hi]))


def jv_split(
    p: Permutation, alpha: Permutation, beta: Permutation, gamma: Permutation
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split p into value sequences (a, c) such that a avoids alpha+beta, c avoids
    beta+gamma, and no element of a follows and exceeds an element of c.

    Requires p to avoid the direct sum alpha+beta+gamma; existence of the split
    is then guaranteed, so exhausting the search raises SplitContractError.
    Colorings are searched lexicographically with 'a' tried before 'c'.
    """
    from .perms import direct_sum

    whole = direct_sum(direct_sum(alpha, beta), gamma)
    if contains(p, whole) is not None:
        raise ValueError(f"{p} contains {whole}; precondition violated")
    ab = direct_sum(alpha, beta)
    bg = direct_sum(beta, gamma)
    vals = p.values
    n = len(vals)
    a_part: list[int] = []
    c_part: list[int] = []

    def extend(i: int) -> bool:
        if i == n:
            return True
        v = vals[i]
        # label 'a': every earlier c element must not be smaller than v
        if all(cv > v for cv in c_part):
            a_part.append(v)
            if contains(pattern_of(a_part), ab) is None and extend(i + 1):
                return True
            a_part.pop()
        c_part.append(v)
        if contains(pattern_of(c_part), bg) is None and extend(i + 1):
            return True
        c_part.pop()
        return False

    if not extend(0):
        raise SplitContractError(f"no witness split for {p}; the guarantee failed")
    return tuple(a_part), tuple(c_part)


def alternating_superpattern(p: Permutation) -> Permutation:
    """An alternating member of the two-range interleaving class containing p,
    of length at most 2|p|+1."""
    n = len(p)
    if n == 0:
        return EMPTY
    cuts = horizontal_split(p, [Inc(), Inc()])
    if cuts is None:
        raise ValueError(f"{p} is not an interleaving of two stacked increasing runs")
    if _is_alternating(p):
        return p
    # p is determined by its word over {low, high}: its low values rise, its
    # high values rise, and every low value is below every high one.  The
    # candidate reads low, high, low, high, ... with the same properties, so
    # sending the i-th letter of p's word to the i-th (low, high) pair of the
    # candidate embeds p.
    candidate = _alternating(2 * n + 1)
    if contains(candidate, p) is None:
        raise SplitContractError(f"{candidate} does not contain {p}")
    return candidate


def _alternating(m: int) -> Permutation:
    """The alternating permutation 1 (t+2) 2 (t+3) ... of odd length m = 2t+1."""
    t = m // 2
    vals = []
    for i in range(1, t + 1):
        vals += [i, t + 1 + i]
    if m % 2:
        vals.append(t + 1)
    return Permutation(vals)


def _is_alternating(q: Permutation) -> bool:
    vals = q.values
    return all(
        vals[i] > vals[i - 1] if i % 2 else (i == 0 or vals[i] < vals[i - 1])
        for i in range(len(vals))
    )


def deletion_distance_to(
    p: Permutation, expr: ClassExpr, max_del: int
) -> Optional[int]:
    """Smallest number d <= max_del of deletions taking p into the class, or None."""
    (pred,) = _member_predicates([expr])
    vals = p.values
    n = len(vals)
    for d in range(0, min(max_del, n) + 1):
        for cut in itertools.combinations(range(n), d):
            removed = set(cut)
            rest = [vals[i] for i in range(n) if i not in removed]
            if pred(pattern_of(rest)):
                return d
    return None
