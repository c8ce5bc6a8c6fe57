"""Structural decompositions and searches on permutations: layers, block
counts, colorings, splits.

The merge, vertical and horizontal split searches take one membership test
per part, a `Permutation -> bool` callable that must be downward closed; the
module knows nothing of class expressions.  Every search returns its
lexicographically first witness (colorings by backtracking, V/H splits by one
greedy pass), so outputs are reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .perms import (
    EMPTY,
    Permutation,
    contains,
    decreasing,
    direct_sum,
    direct_sum_all,
    pattern_of,
)

# A membership test for one part of a split; it must be downward closed.
PartTest = Callable[[Permutation], bool]


class NotLayeredError(ValueError):
    """Raised when an operation requires a layered permutation."""


class SplitContractError(RuntimeError):
    """A split guaranteed to exist by theory was not found; signals a bug."""


@dataclass(frozen=True)
class Coloring:
    """Per-position part assignment (1-based part indices)."""

    assignment: tuple[int, ...]


def layers(p: Iterable[int]) -> Optional[tuple[int, ...]]:
    """The left-to-right layer lengths of p, a Permutation or any iterable of
    its values (such as their bytes), if p is a sum of decreasing runs, else
    None.  One pass: each layer starts above every earlier value and steps down
    by one to the least value it may hold, one more than the entries before it."""
    lengths = []
    base = top = nxt = 0  # entries before the layer, its first value, the next value it needs
    for v in p:
        if nxt:
            if v != nxt:
                return None
        elif v > base:
            top = v
        else:
            return None
        if v == base + 1:
            lengths.append(top - base)
            base, nxt = top, 0
        else:
            nxt = v - 1
    return None if nxt else tuple(lengths)


def min_blocks(p: Permutation) -> int:
    """The least number of blocks (contiguous runs of consecutive values,
    increasing or decreasing) that p concatenates from: n minus the number of
    unit steps |p(i+1) - p(i)| = 1.

    Two unit steps in a row never change sign, as that would repeat a value,
    so each maximal run of unit steps is a block.  No block spans any other
    adjacent pair, so every such pair is a cut, and the maximal runs are a
    least decomposition."""
    vals = p.values
    return len(vals) - sum(1 for a, b in zip(vals, vals[1:]) if abs(a - b) == 1)


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
    lengths = layers(p)
    if lengths is None:
        raise NotLayeredError(f"{p} is not layered")
    parts = []
    for length in lengths:
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


def merge_split(p: Permutation, tests: Sequence[PartTest]) -> Optional[Coloring]:
    """First k-coloring of p (lexicographic in the assignment) whose parts all
    pass their test, the witness for membership in a merge; or None.  Tests
    must be downward closed, which lets partial parts be tested for pruning.
    Empty parts with the same test object are interchangeable, so an entry
    tries only the first of them: the first coloring puts it there if any
    coloring puts it in one of them."""
    k = len(tests)
    n = len(p)
    vals = p.values
    parts: list[list[int]] = [[] for _ in range(k)]
    assignment: list[int] = []

    def ok(part: int) -> bool:
        return tests[part](pattern_of(parts[part]))

    def extend(i: int) -> bool:
        if i == n:
            return True
        tried: list[PartTest] = []  # tests of the empty parts tried for this entry
        for part in range(k):
            if not parts[part]:
                if any(t is tests[part] for t in tried):
                    continue
                tried.append(tests[part])
            parts[part].append(vals[i])
            if ok(part):
                assignment.append(part + 1)
                if extend(i + 1):
                    return True
                assignment.pop()
            parts[part].pop()
        return False

    if not all(test(EMPTY) for test in tests):
        # A downward-closed test that rejects the empty part rejects every part.
        return None
    if extend(0):
        return Coloring(tuple(assignment))
    return None


def _compositions(total: int, parts: int):
    """All weak compositions of total into the given number of parts, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _greedy_cuts(
    n: int, tests: Sequence[PartTest], piece: Callable[[int, int], Permutation]
) -> Optional[tuple[int, ...]]:
    """The lexicographically first cuts 0 <= c_1 <= ... <= c_{k-1} <= n with each
    piece(c_{i-1}, c_i) passing tests[i] (c_0 = 0, c_k = n), or None, with
    O(n + k) calls.  Parts are taken from the right, each as large as possible:
    the tests are downward closed, so by induction every greedy cut is at most
    the same cut of any valid vector."""
    end = n
    starts = []
    for test in reversed(tests):
        start = end
        while start > 0 and test(piece(start - 1, end)):
            start -= 1
        if start == end and not test(EMPTY):
            return None
        starts.append(start)
        end = start
    return None if end else tuple(reversed(starts[:-1]))


def vertical_split(p: Permutation, tests: Sequence[PartTest]) -> Optional[tuple[int, ...]]:
    """Cut positions splitting p into consecutive segments passing their tests,
    or None.  Returns the k-1 positions after which cuts fall, the
    lexicographically first such tuple."""
    return _greedy_cuts(len(p), tests, lambda lo, hi: pattern_of(p.values[lo:hi]))


def horizontal_split(p: Permutation, tests: Sequence[PartTest]) -> Optional[tuple[int, ...]]:
    """Value thresholds splitting p into stacked consecutive-value parts passing
    their tests, or None.  Returns the k-1 cut values, the lexicographically
    first such tuple."""
    return _greedy_cuts(len(p), tests, lambda lo, hi: pattern_of([v for v in p if lo < v <= hi]))


def jv_split(
    p: Permutation, alpha: Permutation, beta: Permutation, gamma: Permutation
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split p into value sequences (a, c) such that a avoids alpha+beta, c avoids
    beta+gamma, and no element of a follows and exceeds an element of c.

    Requires p to avoid the direct sum alpha+beta+gamma; existence of the split
    is then guaranteed, so exhausting the search raises SplitContractError.
    Colorings are searched lexicographically with 'a' tried before 'c', by
    backtracking on an explicit stack of labels, one per labelled entry.
    """
    whole = direct_sum(direct_sum(alpha, beta), gamma)
    if contains(p, whole) is not None:
        raise ValueError(f"{p} contains {whole}; precondition violated")
    ab = direct_sum(alpha, beta)
    bg = direct_sum(beta, gamma)
    vals = p.values
    a_part: list[int] = []
    c_part: list[int] = []
    in_a: list[bool] = []  # the label of each entry so far, True for 'a'
    try_a = True
    while len(in_a) < len(vals):
        v = vals[len(in_a)]
        # label 'a': every earlier c element must not be smaller than v
        a_ok = try_a and all(cv > v for cv in c_part)
        if a_ok and contains(pattern_of(a_part + [v]), ab) is None:
            a_part.append(v)
            in_a.append(True)
        elif contains(pattern_of(c_part + [v]), bg) is None:
            c_part.append(v)
            in_a.append(False)
        else:
            # Neither label works: unlabel back to the last 'a' and try 'c' there.
            while in_a and not in_a[-1]:
                in_a.pop()
                c_part.pop()
            if not in_a:
                raise SplitContractError(f"no witness split for {p}; the guarantee failed")
            in_a.pop()
            a_part.pop()
            try_a = False
            continue
        try_a = True
    return tuple(a_part), tuple(c_part)
