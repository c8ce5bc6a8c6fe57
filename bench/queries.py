"""The query-stream workload: seeded CLI queries and their expected answers.

Nothing here imports permclass.  Every expected answer is derived from how the
query was built or from a known result, using plain tuples:

- member: the permutation is built inside the class, or built around a pattern
  that no member of the class contains;
- count: Catalan, Fibonacci, n, 2^n - n and the large Schroeder numbers;
- enumerate: the known count, plus a direct test of each listed member;
- include: verdicts worked out by hand for a fixed list of inclusions;
- decompose: factors recomposed by tuple composition and tested for their classes;
- basis: known bases.

Query cost must not depend on the seed, or the wall time would vary from seed
to seed: every pool item is asked a fixed number of times, with orders spread
deterministically.  The seed picks the permutations and the interleaving.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

Perm = tuple[int, ...]


@dataclass(frozen=True)
class Query:
    kind: str
    argv: tuple[str, ...]  # after "--format json"
    code: int  # expected exit code
    expected: dict  # exact JSON payload, or the facts checked for enumerate/decompose


# --- permutations as plain tuples -------------------------------------------


def dec(n: int) -> Perm:
    return tuple(range(n, 0, -1))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p, start=1):
        out[v - 1] = i
    return tuple(out)


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p(q(i)), the composition order of class products."""
    return tuple(p[j - 1] for j in q)


def lds(p: Perm) -> int:
    best: list[int] = []
    for i, v in enumerate(p):
        best.append(1 + max((best[j] for j in range(i) if p[j] > v), default=0))
    return max(best, default=0)


def descents(p: Perm) -> int:
    return sum(a > b for a, b in zip(p, p[1:]))


def layer_lengths(p: Perm) -> Optional[list[int]]:
    """Layer lengths when p is a sum of decreasing runs, else None."""
    out, i = [], 0
    while i < len(p):
        size = p[i] - i
        if size < 1 or tuple(p[i : i + size]) != tuple(range(p[i], i, -1)):
            return None
        out.append(size)
        i += size
    return out


def contains(p: Perm, pattern: Perm) -> bool:
    m = len(pattern)
    for idx in itertools.combinations(range(len(p)), m):
        vals = [p[i] for i in idx]
        ranks = sorted(vals)
        if all(ranks.index(v) + 1 == pattern[t] for t, v in enumerate(vals)):
            return True
    return False


def place(values: list[int], pattern: Perm) -> list[int]:
    """The values arranged in the relative order of the pattern."""
    ordered = sorted(values)
    return [ordered[v - 1] for v in pattern]


def chains(rng: random.Random, n: int, k: int) -> Perm:
    """A union of k increasing sequences, so no decreasing subsequence is longer than k."""
    colour_of_value = [rng.randrange(k) for _ in range(n)]
    colour_at_position = colour_of_value[:]
    rng.shuffle(colour_at_position)
    runs = [iter([v + 1 for v in range(n) if colour_of_value[v] == c]) for c in range(k)]
    return tuple(next(runs[c]) for c in colour_at_position)


def ascending_runs(rng: random.Random, n: int, k: int) -> Perm:
    """A concatenation of k increasing runs: at most k - 1 descents."""
    label = [rng.randrange(k) for _ in range(n)]
    return tuple(v for c in range(k) for v in range(1, n + 1) if label[v - 1] == c)


def separable(rng: random.Random, n: int) -> Perm:
    if n == 1:
        return (1,)
    a = rng.randint(1, n - 1)
    left, right = separable(rng, a), separable(rng, n - a)
    if rng.random() < 0.5:
        return left + tuple(v + a for v in right)
    return tuple(v + n - a for v in left) + right


def skew_merged(rng: random.Random, n: int) -> Perm:
    """An increasing sequence merged with a decreasing one."""
    size = rng.randint(0, n)
    up_values = sorted(rng.sample(range(1, n + 1), size))
    down_values = sorted(set(range(1, n + 1)) - set(up_values), reverse=True)
    up_positions = set(rng.sample(range(n), size))
    ups, downs = iter(up_values), iter(down_values)
    return tuple(next(ups) if i in up_positions else next(downs) for i in range(n))


def concatenated(rng: random.Random, n: int, parts: list[Callable]) -> Perm:
    """Consecutive segments whose patterns are drawn from the part classes."""
    cuts = sorted(rng.randint(0, n) for _ in range(len(parts) - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    values = list(range(1, n + 1))
    rng.shuffle(values)
    out: list[int] = []
    for size, part in zip(sizes, parts):
        chunk, values = values[:size], values[size:]
        out += place(chunk, part(rng, size)) if size else []
    return tuple(out)


def stacked(rng: random.Random, n: int, parts: list[Callable]) -> Perm:
    """Consecutive value ranges, bottom first, interleaved in position."""
    return inverse(concatenated(rng, n, [lambda r, m, f=f: inverse(f(r, m)) for f in parts]))


def plant(rng: random.Random, n: int, pattern: Perm) -> Perm:
    """A random permutation of order n that contains the pattern."""
    positions = sorted(rng.sample(range(n), len(pattern)))
    chosen = rng.sample(range(1, n + 1), len(pattern))
    out = [0] * n
    for pos, v in zip(positions, place(chosen, pattern)):
        out[pos] = v
    rest = list(set(range(1, n + 1)) - set(chosen))
    rng.shuffle(rest)
    it = iter(rest)
    return tuple(v or next(it) for v in out)


def identity_gen(rng, n):
    return tuple(range(1, n + 1))


def chains_gen(k):
    return lambda rng, n: chains(rng, n, k)


def product_gen(left, right):
    return lambda rng, n: compose(left(rng, n), right(rng, n))


def hk_gen(k):
    return lambda rng, n: inverse(ascending_runs(rng, n, k))


def vk_gen(k):
    return lambda rng, n: ascending_runs(rng, n, k)


# --- pools -------------------------------------------------------------------
# The mix is a synthetic coverage choice, not measured traffic: nothing records
# how the CLI or the library is used.  Every subcommand appears, and each pool
# holds one item per code path of permclass that its query type can take.
#
# Items whose queries read the slice cache (product members, count, enumerate
# and include) are asked READ_TIMES times per pass; the others OTHER_TIMES
# times.  That makes about three quarters of the queries warm cache lookups, so
# the median query, and with it op_p50_ms, is a lookup.  Within each group
# every item is asked equally often.  The totals put 21 queries beyond the
# nearest-rank p99, about ten more than the queries that build a large slice,
# so op_p99_ms falls among warm queries; with half as many it sat at the edge
# of the builds and jumped between runs.

READ_TIMES = 88
OTHER_TIMES = 44

# Member pool items: (class text, member builder, patterns no member contains,
# lowest order, highest order).  Class texts are in the grammar's canonical
# form, so the CLI echoes them unchanged.  An upper bound on the longest
# decreasing subsequence (lds) of members gives the decreasing pattern: V and H
# of parts with lds <= a and <= b have lds <= a + b, and comp(Ik(k),Ik(l)) lies
# inside Ik(kl).

# One class per membership test that needs no slice: lds, descents, descents of
# the inverse, pattern containment, the vertical and the horizontal split.  The
# orders run to 30, where these tests cost most.
LONG_MEMBERS = (
    ("Ik(3)", chains_gen(3), (dec(4),), 10, 30),
    ("Vk(2)", vk_gen(2), (dec(3),), 10, 30),
    ("Hk(2)", hk_gen(2), (dec(3),), 10, 30),
    ("Av(2413,3142)", separable, ((2, 4, 1, 3), (3, 1, 4, 2)), 10, 24),
    ("V(Av(321),I)", lambda r, n: concatenated(r, n, [chains_gen(2), identity_gen]), (dec(4),), 10, 30),
    ("H(Ik(2),Ik(2))", lambda r, n: stacked(r, n, [chains_gen(2)] * 2), (dec(5),), 10, 30),
)

# The merge split, and a product of each kind of child slice: filtered from
# S_n, and built by the vertical and horizontal generators.  Products and
# merges are capped at order 8; comp(Ik(2),Ik(2)) stops at 7, because its cold
# order-8 slice takes over a second to build.
SMALL_MEMBERS = (
    ("merge(I,D)", skew_merged, ((2, 1, 4, 3), (3, 4, 1, 2)), 5, 8),
    ("comp(Ik(2),Ik(2))", product_gen(chains_gen(2), chains_gen(2)), (dec(5),), 5, 7),
    ("comp(Vk(2),Hk(2))", product_gen(vk_gen(2), hk_gen(2)), (dec(5),), 5, 8),
)


def _catalan(n: int) -> int:
    c = 1
    for i in range(n):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def _fibonacci(n: int) -> int:
    a, b = 1, 2
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def _schroeder(n: int) -> int:
    """Large Schroeder numbers, which count separable permutations of order n."""
    r = [1, 2]
    for m in range(2, n):
        r.append((3 * (2 * m - 1) * r[m - 1] - (m - 2) * r[m - 2]) // (m + 1))
    return r[n - 1]


SEQUENCES = {
    "Ik(2)": _catalan,
    "F2": _fibonacci,
    "Lk(2)": lambda n: n,
    "Vk(2)": lambda n: 2**n - n,
    "Hk(2)": lambda n: 2**n - n,
    "Av(2413,3142)": _schroeder,
}

PREDICATES: dict[str, Callable[[Perm], bool]] = {
    "Ik(2)": lambda p: lds(p) <= 2,
    "F2": lambda p: (lay := layer_lengths(p)) is not None and max(lay, default=0) <= 2,
    "Lk(2)": lambda p: (lay := layer_lengths(p)) is not None and len(lay) <= 2,
    "Vk(2)": lambda p: descents(p) <= 1,
    "Hk(2)": lambda p: descents(inverse(p)) <= 1,
    "Av(2413,3142)": lambda p: not contains(p, (2, 4, 1, 3)) and not contains(p, (3, 1, 4, 2)),
}

# One class per way a slice is built: filtering S_n by lds and by pattern
# containment, the layered generator (two classes, with the Fibonacci and the
# linear counts) and the vertical and horizontal generators.
# (class text, largest order counted, order enumerated): the slices filtered
# from S_n stop where a cold build takes a few tenths of a second (one order
# more takes seconds); the generated ones go to the default enumeration cap,
# 11, and enumerate at most a few hundred members.
COUNT_CLASSES = (
    ("Ik(2)", 8, 7),
    ("Av(2413,3142)", 7, 6),
    ("F2", 11, 10),
    ("Lk(2)", 11, 10),
    ("Vk(2)", 10, 8),
    ("Hk(2)", 10, 8),
)


def _first_with_lds3(n: int) -> list[int]:
    return list(range(1, n - 2)) + [n, n - 1, n - 2]


# (lhs, rhs, max order, order -> witness), by hand: a verdict that holds with the
# product on each side, and two that fail, so the witness search runs.  Order 5
# keeps a warm include below the cold slice builds in latency (at order 6 it
# takes about 10 ms), so op_p99_ms reports the builds.
# - Ik(3) is inside comp(Ik(2),Ik(2)) (k + l - 1 chains), which is inside Ik(4);
# - Ik(3) in Ik(2) fails first at 12..(n-3) n (n-1) (n-2);
# - Ik(2) in Vk(2) fails first at 2143, then 13254.
INCLUDES = (
    ("Ik(3)", "comp(Ik(2),Ik(2))", 5, {}),
    ("comp(Ik(2),Ik(2))", "Ik(4)", 5, {}),
    ("Ik(3)", "Ik(2)", 5, {n: _first_with_lds3(n) for n in range(3, 6)}),
    ("Ik(2)", "Vk(2)", 5, {4: [2, 1, 4, 3], 5: [1, 3, 2, 5, 4]}),
)

# One class per membership test that basis_up_to calls: lds, descents, layers.
BASES = (
    ("Ik(2)", 5, [(3, 2, 1)]),
    ("Vk(2)", 5, [(3, 2, 1), (2, 1, 4, 3), (3, 1, 4, 2)]),
    ("F2", 5, [(2, 3, 1), (3, 1, 2), (3, 2, 1)]),
)

# One per decomposition method: (method, -k, -l, target builder, factor classes).
DECOMPOSES = (
    ("vkhk", 2, None, chains_gen(2), ("Vk(2)", "Hk(2)")),
    ("ikil", 2, 2, chains_gen(3), ("Ik(2)", "Ik(2)")),
    ("l4", 4, None, lambda r, n: layered(r, n, 4), ("Lk(3)", "Lk(2)", "Lk(3)")),
)


def layered(rng: random.Random, n: int, k: int) -> Perm:
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(k, n) - 1)))
    out: list[int] = []
    for a, b in zip([0] + cuts, cuts + [n]):
        out += range(b, a, -1)
    return tuple(out)


def factor_predicate(cls: str) -> Callable[[Perm], bool]:
    kind, k = cls[:2], int(cls[3:-1])
    if kind == "Vk":
        return lambda p: descents(p) <= k - 1
    if kind == "Hk":
        return lambda p: descents(inverse(p)) <= k - 1
    if kind == "Ik":
        return lambda p: lds(p) <= k
    return lambda p: (lay := layer_lengths(p)) is not None and len(lay) <= k


# --- the stream --------------------------------------------------------------


def _perm_arg(p: Perm) -> str:
    return " ".join(map(str, p))


def _orders(lo: int, hi: int, pairs: int) -> list[int]:
    """pairs orders spread evenly from lo to hi."""
    return [lo + round(i * (hi - lo) / max(pairs - 1, 1)) for i in range(pairs)]


def generate(seed: int) -> list[Query]:
    """The query stream for one pass; equal seeds give equal streams.

    Member queries come in pairs at one order: a member by construction, and a
    permutation built around a pattern that no member contains.  The first
    query that builds each cached slice comes first, in pool order, so which
    query pays for a build does not depend on the seed; the rest of the stream
    is shuffled.
    """
    rng = random.Random(seed)
    head: list[Query] = []
    tail: list[Query] = []
    for cls, build, avoided, lo, hi in LONG_MEMBERS + SMALL_MEMBERS:
        reads = cls.startswith("comp(")
        times = READ_TIMES if reads else OTHER_TIMES
        built: set[int] = set()
        for i, n in enumerate(_orders(lo, hi, times // 2)):
            for is_member in (True, False):
                p = build(rng, n) if is_member else plant(rng, n, avoided[i % len(avoided)])
                query = Query("member", ("member", "--class", cls, "--perm", _perm_arg(p)), 0,
                              {"class": cls, "perm": list(p), "member": is_member})
                (head if reads and n not in built else tail).append(query)
                built.add(n)
    repeated: list[Query] = []
    for cls, max_n, n in COUNT_CLASSES:
        seq = SEQUENCES[cls]
        repeated.append(Query("count", ("count", "--class", cls, "--max-n", str(max_n)), 0,
                              {"class": cls, "max_n": max_n, "counts": [seq(m) for m in range(1, max_n + 1)]}))
        repeated.append(Query("enumerate", ("enumerate", "--class", cls, "-n", str(n)), 0,
                              {"class": cls, "n": n, "count": seq(n)}))
    for lhs, rhs, max_n, witnesses in INCLUDES:
        results = {str(n): {"status": "fails", "witness": witnesses[n]} if n in witnesses else {"status": "holds"}
                   for n in range(1, max_n + 1)}
        repeated.append(Query("include", ("include", "--lhs", lhs, "--rhs", rhs, "--max-n", str(max_n)),
                              1 if witnesses else 0, {"lhs": lhs, "rhs": rhs, "results": results}))
    for query in repeated:
        head.append(query)
        tail += [query] * (READ_TIMES - 1)
    for cls, max_len, basis in BASES:
        expected = [list(b) for b in sorted(basis, key=lambda b: (len(b), b))]
        tail += [Query("basis", ("basis", "--class", cls, "--max-len", str(max_len)), 0,
                       {"class": cls, "max_len": max_len, "basis": expected})] * OTHER_TIMES
    for method, k, l, build, classes in DECOMPOSES:
        for n in _orders(6, 16, OTHER_TIMES):
            p = build(rng, n)
            argv = ("decompose", "--method", method, "--perm", _perm_arg(p), "-k", str(k))
            if l is not None:
                argv += ("-l", str(l))
            tail.append(Query("decompose", argv, 0, {"target": list(p), "classes": list(classes)}))
    rng.shuffle(tail)
    return head + tail


def check(query: Query, code: int, stdout: str) -> Optional[str]:
    """None when the CLI answered the query correctly, else what is wrong."""
    if code != query.code:
        return f"exit code {code}, expected {query.code}"
    try:
        got = json.loads(stdout)
    except ValueError:
        return f"output is not JSON: {stdout[:80]!r}"
    want = query.expected
    if query.kind == "enumerate":
        return _check_enumerate(got, want)
    if query.kind == "decompose":
        return _check_decompose(got, want)
    return None if got == want else f"got {_short(got)}, expected {_short(want)}"


def _check_enumerate(got: dict, want: dict) -> Optional[str]:
    if got.get("class") != want["class"] or got.get("n") != want["n"]:
        return f"echoed {got.get('class')!r} at {got.get('n')!r}"
    members = [tuple(m) for m in got.get("members", [])]
    if len(members) != want["count"]:
        return f"{len(members)} members, expected {want['count']}"
    if members != sorted(set(members)):
        return "members not distinct and in lexicographic order"
    test = PREDICATES[want["class"]]
    full = tuple(range(1, want["n"] + 1))
    bad = next((m for m in members if tuple(sorted(m)) != full or not test(m)), None)
    return None if bad is None else f"{list(bad)} is not a member of order {want['n']}"


def _check_decompose(got: dict, want: dict) -> Optional[str]:
    if got.get("target") != want["target"]:
        return f"target {got.get('target')}, expected {want['target']}"
    factors = got.get("factors", [])
    classes = [f.get("class") for f in factors]
    if classes != want["classes"]:
        return f"factor classes {classes}, expected {want['classes']}"
    product = None
    for f in factors:
        p = tuple(f["perm"])
        if not factor_predicate(f["class"])(p):
            return f"factor {list(p)} is not in {f['class']}"
        product = p if product is None else compose(product, p)
    if list(product) != want["target"]:
        return f"factors recompose to {list(product)}, not the target"
    return None


def _short(obj) -> str:
    text = json.dumps(obj, sort_keys=True)
    return text if len(text) <= 160 else text[:157] + "..."
