"""Finite permutations in one-line notation and the primitive operations on them.

A permutation of order n is stored as the tuple (p(1), ..., p(n)) with values
1..n.  All public surfaces are 1-based; the empty permutation is a first-class
value rendered as "e".
"""
from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence


@dataclass(frozen=True, order=True, slots=True)
class Permutation:
    """A bijection on {1, ..., n} in one-line notation."""

    values: tuple[int, ...]

    def __init__(self, values: Iterable[int]):
        vals = tuple(values)
        if sorted(vals) != list(range(1, len(vals) + 1)):
            raise ValueError(f"not a permutation of 1..{len(vals)}: {_preview(vals)}")
        object.__setattr__(self, "values", vals)

    @classmethod
    def _trusted(cls, values: tuple[int, ...]) -> "Permutation":
        """Wrap a tuple that is a permutation of 1..n by construction, unvalidated."""
        p = object.__new__(cls)
        object.__setattr__(p, "values", values)
        return p

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __call__(self, i: int) -> int:
        """Value at 1-based position i."""
        if not 1 <= i <= len(self.values):
            raise IndexError(f"position {i} out of range 1..{len(self.values)}")
        return self.values[i - 1]

    def __repr__(self) -> str:
        return f"Permutation({to_text(self)!r})"

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class Occurrence:
    """Positions (1-based, strictly increasing) of a pattern occurrence in a host."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError(f"indices not strictly increasing: {self.indices!r}")

    @classmethod
    def _trusted(cls, indices: tuple[int, ...]) -> "Occurrence":
        """Wrap indices that increase by construction, unchecked."""
        o = object.__new__(cls)
        object.__setattr__(o, "indices", indices)
        return o


EMPTY = Permutation(())

_PREVIEW_LEN = 16  # items an error message repeats; longer inputs are cut


def _preview(seq: Sequence) -> str:
    return repr(seq[:_PREVIEW_LEN]) + ("..." if len(seq) > _PREVIEW_LEN else "")


def identity(n: int) -> Permutation:
    """The increasing permutation 12...n."""
    return Permutation(range(1, n + 1))


def decreasing(n: int) -> Permutation:
    """The decreasing permutation n...21."""
    return Permutation(range(n, 0, -1))


def from_text(text: str) -> Permutation:
    """Parse one-line notation: "e", compact digits ("3127645"), or spaced ints."""
    text = text.strip()
    if text == "e":
        return EMPTY
    if not text:
        raise ValueError("empty permutation literal (use 'e')")
    if any(ch.isspace() for ch in text):
        return Permutation(int(part) for part in text.split())
    if not text.isdigit():
        raise ValueError(f"bad permutation literal: {_preview(text)}")
    return Permutation(int(ch) for ch in text)


def to_text(p: Permutation | Sequence[int]) -> str:
    """Render one-line notation of a permutation or of its values; compact
    digits for n <= 9, spaced otherwise."""
    if len(p) == 0:
        return "e"
    return ("" if len(p) <= 9 else " ").join(map(str, p))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The composition p after q: result(i) = p(q(i))."""
    if len(p) != len(q):
        raise ValueError(f"cannot compose orders {len(p)} and {len(q)}")
    pv = p.values
    return Permutation._trusted(tuple([pv[j - 1] for j in q.values]))


def compose_all(perms: Sequence[Permutation]) -> Permutation:
    """Left-to-right composition p1 . p2 . ... . pk."""
    if not perms:
        return EMPTY
    out = perms[0]
    for q in perms[1:]:
        out = compose(out, q)
    return out


def inverse(p: Permutation) -> Permutation:
    pos = [0] * len(p)
    for i, v in enumerate(p.values, start=1):
        pos[v - 1] = i
    return Permutation._trusted(tuple(pos))


def reverse(p: Permutation) -> Permutation:
    return Permutation._trusted(p.values[::-1])


def complement(p: Permutation) -> Permutation:
    n = len(p)
    return Permutation._trusted(tuple([n - v + 1 for v in p.values]))


def direct_sum(p: Permutation, q: Permutation) -> Permutation:
    k = len(p)
    return Permutation(p.values + tuple(v + k for v in q.values))


def direct_sum_all(parts: Iterable[Permutation]) -> Permutation:
    out = EMPTY
    for part in parts:
        out = direct_sum(out, part)
    return out


def pattern_of(values: Sequence[int]) -> Permutation:
    """The permutation order-isomorphic to an arbitrary sequence of distinct numbers."""
    ranks = {v: r for r, v in enumerate(sorted(values), start=1)}
    if len(ranks) == len(values):  # distinct values: the ranks are a permutation
        return Permutation._trusted(tuple([ranks[v] for v in values]))
    return Permutation(ranks[v] for v in values)


@functools.lru_cache
def _neighbours(pat: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """For each pattern index t, the two earlier indices that bound its value
    window: the one with the nearest smaller value and the one with the nearest
    larger value.  Indices are offset by 2 into contains' matched values; 0
    stands for "none smaller" (value 0) and 1 for "none larger" (value n+1)."""
    out = []
    seen: list[int] = []  # the earlier values, sorted
    at = [0] * (len(pat) + 1)  # at[v]: the offset index of value v
    for t, v in enumerate(pat):
        k = bisect.bisect_left(seen, v)
        out.append((at[seen[k - 1]] if k else 0, at[seen[k]] if k < len(seen) else 1))
        seen.insert(k, v)
        at[v] = t + 2
    return tuple(out)


def contains(host: Permutation, pattern: Permutation) -> Optional[Occurrence]:
    """Lexicographically smallest occurrence of pattern in host, or None.

    Backtracking over positions with value-window pruning, on an explicit
    stack, so a long pattern needs no deep recursion; the first complete match
    found by always extending with the smallest next position is the
    lexicographically smallest one.  The matched prefix is order-isomorphic to
    the pattern's, so the window for index t is bounded by just two matched
    values: those of its nearest smaller and nearest larger earlier neighbours.
    """
    m, n = len(pattern), len(host)
    if m > n:
        return None
    bounds = _neighbours(pattern.values)
    hv = host.values
    matched = [0, n + 1]  # the sentinels, then the matched host values
    positions: list[int] = []  # the host index of each matched value
    t = start = 0  # the pattern index to match next, and the first position to try
    while t < m:
        below, above = bounds[t]
        lo, hi = matched[below], matched[above]
        for j in range(start, n - m + t + 1):
            if lo < hv[j] < hi:
                matched.append(hv[j])
                positions.append(j)
                t, start = t + 1, j + 1
                break
        else:
            if not t:
                return None
            matched.pop()
            t, start = t - 1, positions.pop() + 1
    return Occurrence._trusted(tuple(j + 1 for j in positions))


def greedy_increasing_chains(p: Permutation) -> list[list[int]]:
    """Partition positions of p into increasing chains by the leftmost-eligible rule.

    Each element is appended to the leftmost chain whose last value is smaller,
    else it starts a new chain.  Produces exactly lds(p) chains, with chain tail
    values strictly decreasing left to right at every step.
    """
    chains: list[list[int]] = []
    tails: list[int] = []
    for i, v in enumerate(p.values, start=1):
        for c, tail in enumerate(tails):
            if tail < v:
                chains[c].append(i)
                tails[c] = v
                break
        else:
            chains.append([i])
            tails.append(v)
    return chains


def _patience(values: Iterable[int]) -> int:
    """Length of a longest increasing subsequence of a value sequence."""
    piles: list[int] = []
    for v in values:
        k = bisect.bisect_left(piles, v)
        if k == len(piles):
            piles.append(v)
        else:
            piles[k] = v
    return len(piles)


def lis(p: Permutation) -> int:
    """Length of a longest increasing subsequence (patience sorting)."""
    return _patience(p.values)


def lds(p: Permutation) -> int:
    """Length of a longest decreasing subsequence (patience sorting, right to left)."""
    return _patience(reversed(p.values))


def all_perms(n: int) -> Iterator[Permutation]:
    """All permutations of order n in lexicographic order."""
    yield from map(Permutation._trusted, itertools.permutations(range(1, n + 1)))
