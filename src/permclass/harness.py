"""Exhaustive finite-order verification of inclusions, equalities, closures,
counts and searches, exposed as a registry of named checks.

Verdicts never extrapolate: a check passing for every tested order is reported
as verified up to that cap, nothing more.
"""
from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import factor, structure
from .algebra import (
    MAX_ORDER,
    ResourceLimitError,
    _batches,
    basis_up_to,
    class_slice,
    count,
    first_non_product,
    member,
    member_independent,
)
from .exprs import (
    Av,
    ClassExpr,
    Comp,
    FibLayered,
    HorizK,
    Inc,
    IncK,
    LayeredK,
    VertK,
    parse_class,
    render,
)
from .perms import (
    Permutation,
    all_perms,
    contains,
    decreasing,
    direct_sum,
    from_text,
    identity,
    lds,
    to_text,
)


@dataclass(frozen=True)
class Verdict:
    status: str  # "holds" | "fails" | "skipped"
    witness: Optional[Permutation] = None
    reason: Optional[str] = None

    def to_json(self) -> dict:
        out: dict = {"status": self.status}
        if self.witness is not None:
            out["witness"] = list(self.witness.values)
        if self.reason is not None:
            out["reason"] = self.reason
        return out


@dataclass
class InclusionReport:
    """Per-order verdicts for an inclusion or an equality of class slices."""

    lhs: ClassExpr
    rhs: ClassExpr
    results: dict[int, Verdict] = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return all(v.status == "holds" for v in self.results.values())

    @property
    def failed_orders(self) -> list[int]:
        return [n for n, v in self.results.items() if v.status == "fails"]

    @property
    def skipped_orders(self) -> list[int]:
        return [n for n, v in self.results.items() if v.status == "skipped"]

    def to_json(self) -> dict:
        return {
            "lhs": render(self.lhs),
            "rhs": render(self.rhs),
            "results": {str(n): v.to_json() for n, v in sorted(self.results.items())},
        }


@dataclass
class SuiteResult:
    name: str
    parameters: dict
    status: str  # "pass" | "fail" | "skip"
    counterexamples: list[str]
    elapsed: float
    reason: Optional[str] = None  # why a skipped check skipped

    def to_json(self) -> dict:
        # Elapsed time is omitted so equal inputs give identical bytes; reason too.
        return {
            "name": self.name,
            "parameters": self.parameters,
            "status": self.status,
            "counterexamples": self.counterexamples,
        }


@dataclass
class MSearchReport:
    """Finite evidence about the largest m with the m-chain class inside the
    composition of the k- and l-chain classes."""

    k: int
    l: int
    per_m: dict[int, InclusionReport] = field(default_factory=dict)

    def counterexample(self, m: int) -> Optional[tuple[int, Permutation]]:
        report = self.per_m[m]
        for n in sorted(report.failed_orders):
            return n, report.results[n].witness
        return None

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "l": self.l,
            "per_m": {str(m): r.to_json() for m, r in sorted(self.per_m.items())},
        }


def _per_order(
    report: InclusionReport, n_range: Iterable[int], verdict: Callable[[int], Verdict]
) -> InclusionReport:
    """Record verdict(n) for each order; a resource cap hit makes that order
    skipped."""
    for n in n_range:
        try:
            report.results[n] = verdict(n)
        except ResourceLimitError as exc:
            report.results[n] = Verdict("skipped", reason=str(exc))
    return report


def check_inclusion(
    lhs: ClassExpr,
    rhs: ClassExpr,
    n_range: Iterable[int],
    max_order: int = MAX_ORDER,
) -> InclusionReport:
    """For each order, test every LHS member for RHS membership; the earliest
    (lexicographic) witness is reported on failure and re-verified cache-free.

    Into a product the LHS slice is streamed against the products, which are
    never stored, until fewer members are left than batches; each one left is
    then tested alone (`first_non_product`).  Any other RHS is asked about
    each member in order, up to the first failure."""

    def verdict(n: int) -> Verdict:
        lhs_slice = class_slice(lhs, n, max_order)
        if isinstance(rhs, Comp):
            w = first_non_product(rhs, lhs_slice, max_order)
        else:
            w = next((p for p in lhs_slice if not member(rhs, p, max_order)), None)
        if w is None:
            return Verdict("holds")
        if member_independent(rhs, w, max_order):
            raise RuntimeError(f"witness {to_text(w)} did not re-verify; cache inconsistency")
        return Verdict("fails", witness=w)

    return _per_order(InclusionReport(lhs, rhs), n_range, verdict)


def _compare(
    lhs: ClassExpr,
    lhs_name: str,
    lhs_members: Callable[[int], Iterable[Permutation]],
    rhs: ClassExpr,
    n_range: Iterable[int],
    max_order: int,
) -> InclusionReport:
    """Set equality of lhs_members(n), named lhs_name, with the rhs slice per
    order; the witness is the lexicographically smallest element of the
    symmetric difference, and a failure's reason names the side holding it."""

    def verdict(n: int) -> Verdict:
        members = set(lhs_members(n))
        diff = members.symmetric_difference(class_slice(rhs, n, max_order))
        if not diff:
            return Verdict("holds")
        w = min(diff)
        sides = (lhs_name, render(rhs)) if w in members else (render(rhs), lhs_name)
        return Verdict("fails", witness=w, reason="in {} but not in {}".format(*sides))

    return _per_order(InclusionReport(lhs, rhs), n_range, verdict)


def check_equality(
    a: ClassExpr,
    b: ClassExpr,
    n_range: Iterable[int],
    max_order: int = MAX_ORDER,
) -> InclusionReport:
    """Slice-level set equality per order; the witness is the lexicographically
    smallest element of the symmetric difference."""
    return _compare(a, render(a), lambda n: class_slice(a, n, max_order), b, n_range, max_order)


def _inside(narrow: ClassExpr, wide: ClassExpr, n: int, max_order: int) -> bool:
    """The order-n slice of narrow lies inside wide's; False when one is refused."""
    try:
        return class_slice(narrow, n, max_order).members <= class_slice(wide, n, max_order).members
    except ResourceLimitError:
        return False


def search_m(k: int, l: int, n_max: int, max_order: int = MAX_ORDER) -> MSearchReport:
    """Finite evidence for the inclusion of m-chain classes in the composition of
    the k- and l-chain classes, for m between k+l-1 and k*l.

    m walks down from k*l, whose orders are all checked.  A narrower m holds at
    order n when m+1 holds there and its order-n slice lies inside m+1's: the
    computed subset test, so the verdict is check_inclusion's for any slices.
    The orders left (m+1 failed or was skipped, or a slice is refused) go
    through one check_inclusion call per m, and none when no order is left."""
    rhs = Comp((IncK(k), IncK(l)))
    orders = range(1, n_max + 1)
    per_m: dict[int, InclusionReport] = {}
    for m in range(k * l, k + l - 2, -1):
        lhs, wider = IncK(m), per_m.get(m + 1)
        held = [] if wider is None else [n for n in orders if wider.results[n].status == "holds"]
        read_off = {n for n in held if _inside(lhs, wider.lhs, n, max_order)}
        left = [n for n in orders if n not in read_off]
        rep = check_inclusion(lhs, rhs, left, max_order) if left else InclusionReport(lhs, rhs)
        rep.results = {n: Verdict("holds") if n in read_off else rep.results[n] for n in orders}
        per_m[m] = rep
    return MSearchReport(k, l, dict(sorted(per_m.items())))


def _all_interleavings(segments: list[tuple[int, ...]]) -> Iterable[tuple[int, ...]]:
    """Every merge of the segments preserving each segment's internal order."""
    sizes = [len(s) for s in segments]
    labels = []
    for idx, size in enumerate(sizes):
        labels.extend([idx] * size)
    for order in set(itertools.permutations(labels)):
        pointers = [0] * len(segments)
        out = []
        for lab in order:
            out.append(segments[lab][pointers[lab]])
            pointers[lab] += 1
        yield tuple(out)


def behaviour_closure(
    a_expr: ClassExpr, k: int, variant: str, n: int, max_order: int = MAX_ORDER
) -> set[Permutation]:
    """Direct construction of the order-n slice obtained by dividing members of
    the class into at most k pieces per the variant and recombining:

    - "V": arbitrary subsequences, concatenated in order;
    - "H": contiguous subsequences, interleaved every way;
    - "I": arbitrary subsequences, interleaved every way.
    """
    if variant not in ("V", "H", "I"):
        raise ValueError(f"unknown variant {variant!r}")
    out: set[Permutation] = set()
    for alpha in class_slice(a_expr, n, max_order):
        vals = alpha.values
        if variant == "H":
            for comp in structure._compositions(n, k):
                bounds = list(itertools.accumulate(comp, initial=0))
                segments = [vals[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
                out.update(map(Permutation, _all_interleavings(segments)))
            continue
        for labels in itertools.product(range(k), repeat=n):
            parts: list[list[int]] = [[] for _ in range(k)]
            for v, lab in zip(vals, labels):
                parts[lab].append(v)
            if variant == "V":
                out.add(Permutation([v for part in parts for v in part]))
            else:
                out.update(map(Permutation, _all_interleavings([tuple(part) for part in parts])))
    return out


def check_behaviour(
    a_expr: ClassExpr,
    k: int,
    variant: str,
    n_range: Iterable[int],
    max_order: int = MAX_ORDER,
) -> InclusionReport:
    """Compare the directly built recombination closure against the composition
    with the matching k-parameter atom, order by order."""
    atom = {"V": VertK, "H": HorizK, "I": IncK}[variant](k)
    direct = functools.partial(behaviour_closure, a_expr, k, variant, max_order=max_order)
    name = f"the k={k} {variant}-closure of {render(a_expr)}"
    return _compare(a_expr, name, direct, Comp((a_expr, atom)), n_range, max_order)


class UnknownCheckError(KeyError):
    pass


# ---------------------------------------------------------------------------
# Registry checks.  A check is a row of REGISTRY; its body takes the check's
# order cap (None for a check without one), which is also the max_order of
# every slice and membership search it asks for, and returns an Outcome.  A
# ResourceLimitError out of a body skips the check; run_suite derives
# everything else.
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What a check body found: failure lines, inclusion-style reports (each
    failed order is a failure, each skipped order makes the check skip) and
    notes, which are printed but never fail the check."""

    failures: list[str] = field(default_factory=list)
    reports: list[InclusionReport] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Check:
    """One registry row.  The runner adds the effective order cap to params
    under cap_key (at the end, unless params already lists that key); a check
    with cap None runs at a fixed order and reports no cap."""

    name: str
    cap: Optional[int]
    params: dict
    body: Callable[[Optional[int]], Outcome]
    cap_key: str = "max_n"


def _orders(cap: int) -> range:
    return range(1, cap + 1)


def _slice_pairs(*pairs: tuple[str, str], equal: bool = False):
    """Body checking, at orders 1..cap for each (lhs, rhs) text pair, that lhs
    lies inside rhs, or that the two are equal."""
    parsed = [(parse_class(a), parse_class(b)) for a, b in pairs]

    def body(cap: int) -> Outcome:
        check = check_equality if equal else check_inclusion
        return Outcome(reports=[check(a, b, _orders(cap), cap) for a, b in parsed])

    return body


def _failures(lines: Callable[[Optional[int]], Iterable[str]]):
    """Body whose outcome is just the failure lines that lines(cap) yields."""
    return lambda cap: Outcome(list(lines(cap)))


def _factor_failures(
    cls: ClassExpr, cap: int, decompose: Callable[[Permutation], object], label: str = ""
) -> Iterator[str]:
    """Factor every member of the class at orders 0..cap; one line per error."""
    for n in range(0, cap + 1):
        for p in class_slice(cls, n, cap):
            try:
                decompose(p)
            except (ValueError, structure.SplitContractError, factor.FactorizationError) as exc:
                yield f"{label}{to_text(p)}: {exc}"


def _filter_count_failures(cls: ClassExpr, counts: list[int], cap: int) -> Iterator[str]:
    """Compare enumerated counts with counts from filtering S_n, up to order 8."""
    for n in range(1, min(8, len(counts)) + 1):
        filtered = sum(1 for p in all_perms(n) if member(cls, p, cap))
        if filtered != counts[n - 1]:
            yield f"order {n}: filter count {filtered} != enumerated count {counts[n - 1]}"


def _counts(cls: ClassExpr, expected: Callable[[int], Iterable[int]]):
    """Body comparing the class's counts at orders 1..cap with expected(cap),
    then with counts from filtering S_n."""

    def lines(cap: int) -> Iterator[str]:
        counts = count(cls, cap, cap)
        for n, (c, e) in enumerate(zip(counts, expected(cap)), start=1):
            if c != e:
                yield f"order {n}: enumerated count {c} != {e}"
        yield from _filter_count_failures(cls, counts, cap)

    return _failures(lines)


def _fibonacci(length: int) -> Iterator[int]:
    """1, 2, 3, 5, 8, ...: the first length terms."""
    a, b = 1, 2
    for _ in range(length):
        yield a
        a, b = b, a + b


def _increasing_colorable(p: Permutation, k: int) -> bool:
    """Exhaustive left-to-right search for a cover by k increasing subsequences,
    keeping only each part's current tail."""
    vals = p.values
    n = len(vals)
    tails = [0] * k

    def extend(i: int) -> bool:
        if i == n:
            return True
        v = vals[i]
        # Parts hold disjoint values, so only empty parts (tail 0) share a
        # tail; they are interchangeable, and one of them is tried.
        tried_empty = False
        for part in range(k):
            t = tails[part]
            if t < v and (t or not tried_empty):
                tried_empty = tried_empty or not t
                tails[part] = v
                if extend(i + 1):
                    return True
                tails[part] = t
        return False

    return extend(0)


def _fact_basic_equiv(cap: int) -> Iterator[str]:
    for k in (2, 3):
        delta = decreasing(k + 1)
        for n in range(0, cap + 1):
            for p in all_perms(n):
                by_avoid = contains(p, delta) is None
                by_lds = lds(p) <= k
                by_color = _increasing_colorable(p, k)
                if not (by_avoid == by_lds == by_color):
                    yield f"k={k} {to_text(p)}: avoid={by_avoid} lds={by_lds} coloring={by_color}"
                if n <= 6 and by_color != (
                    structure.merge_split(p, [functools.partial(member, Inc())] * k) is not None
                ):
                    yield f"k={k} {to_text(p)}: coloring search disagrees with merge split"


_SYMMETRY_CORPUS = (
    "Ik(2)",
    "Lk(2)",
    "Av(321)",
    "Hk(2)",
    "Vk(2)",
    "F2",
)


def _behaviour(variant: str):
    instances = [parse_class(text) for text in ("Av(21)", "Lk(1)", "Av(321)")]
    return lambda cap: Outcome(
        reports=[check_behaviour(a, 2, variant, _orders(cap), cap) for a in instances]
    )


def _thm_ik_vkhk(cap: int) -> Outcome:
    out = Outcome()
    for k in (2, 3):
        out.failures += _factor_failures(
            IncK(k), cap, lambda p: factor.decompose_vk_hk(p, k), f"k={k} "
        )
        product = Comp((VertK(k), HorizK(k)))
        out.reports.append(check_inclusion(IncK(k), product, _orders(cap), cap))
    return out


def _thm_kl1(cap: int) -> Outcome:
    out = Outcome()
    for k, l in ((2, 2), (2, 3), (3, 2)):
        out.failures += _factor_failures(
            IncK(k + l - 1), cap, lambda p: factor.decompose_ik_il(p, k, l), f"(k,l)=({k},{l}) "
        )
        product = Comp((IncK(k), IncK(l)))
        out.reports.append(check_inclusion(IncK(k + l - 1), product, _orders(min(cap, 6)), cap))
    return out


def _search_m_2_2(cap: int) -> Outcome:
    """m=3 must hold at every order; m=4 is reported in a note that never fails
    the check.  Unless m=3 failed, an order refused for either m skips the
    check, and the note names only orders that were searched."""
    report = search_m(2, 2, cap, cap)
    m_low, m_high = report.per_m[3], report.per_m[4]
    bad = [
        f"m=3 fails at order {n}: {to_text(m_low.results[n].witness)}"
        for n in m_low.failed_orders
    ]
    refused = [(n, rep.results[n].reason) for rep in (m_low, m_high) for n in rep.skipped_orders]
    if refused and not bad:
        raise ResourceLimitError(min(refused, key=lambda hit: hit[0])[1])
    hit = report.counterexample(4)
    if hit is not None:
        note = f"m=4 counterexample at order {hit[0]}: {to_text(hit[1])}"
    else:
        searched = min(m_high.skipped_orders, default=cap + 1) - 1
        note = f"m=4: no counterexample found up to order {searched}"
    return Outcome(bad, notes=[note])


def _thm_l4(k: int):
    return lambda cap: _factor_failures(
        LayeredK(k), cap, lambda p: factor.decompose_l4(p, k), f"k={k} "
    )


_L2_GROUP = parse_class("or(Lk(2),rev(Lk(2)))")


def _lemma_l2_group(cap: int) -> Outcome:
    """The union is a group: a nonempty finite set of permutations closed under
    composition holds each g's powers, so the identity g^k and the inverse
    g^(k-1) as well.  Lk(2) alone is not closed, already at order 3."""
    product = Comp((_L2_GROUP, _L2_GROUP))
    out = Outcome(reports=[check_inclusion(product, _L2_GROUP, _orders(cap), cap)])
    out.failures += [
        f"order {n}: {to_text(identity(n))} (missing identity)"
        for n in _orders(cap)
        if identity(n) not in class_slice(_L2_GROUP, n, cap)
    ]
    two_layer = LayeredK(2)
    products = class_slice(Comp((two_layer, two_layer)), 3, cap)
    if products.members <= class_slice(two_layer, 3, cap).members:
        out.failures.append("two-layer class unexpectedly closed under products at order 3")
    return out


def _thm52(alpha: str, beta_len: int, gamma: str):
    a, g = from_text(alpha), from_text(gamma)
    avoided = Av((direct_sum(direct_sum(a, decreasing(beta_len)), g),))
    return lambda cap: _factor_failures(
        avoided, cap, lambda p: factor.decompose_thm52(p, a, beta_len, g)
    )


_H2_BASIS = tuple(map(from_text, ("321", "2143", "2413")))


def _basis_h(cap: int) -> Iterator[str]:
    basis = basis_up_to(HorizK(2), cap, cap)
    expected = {p for p in _H2_BASIS if len(p) <= cap}
    if basis != expected:
        yield f"basis {sorted(map(to_text, basis))} != {sorted(map(to_text, expected))}"


def _lemma_blocks(cap: int) -> Iterator[str]:
    """min_blocks(p o q) <= min_blocks(p) * min_blocks(q) over S_n x S_n, with
    p the outer loop; the products come from the engine's byte-string pair loop."""
    for n in range(0, cap + 1):
        counts = {bytes(p.values): structure.min_blocks(p) for p in all_perms(n)}
        for (p, bp), batch in zip(counts.items(), _batches(counts, counts, n)):
            for (q, bq), pq in zip(counts.items(), batch):
                if counts[pq] > bp * bq:
                    yield (
                        f"{to_text(Permutation(p))} o {to_text(Permutation(q))} = "
                        f"{to_text(Permutation(pq))}: {counts[pq]} > {bp} * {bq}"
                    )


def _close_n_sigma(cap: int) -> Iterator[str]:
    for n in range(1, cap + 1):
        for p in class_slice(parse_class("L"), n, cap):
            for t in (2, 3):
                flat = structure.normalize_short_layers(p, t)
                if not structure.is_close(p, flat, t, 0):
                    yield f"{to_text(p)} vs {to_text(flat)} not ({t},0)-close"


def _thm_l_gamma_far(cap: Optional[int]) -> Iterator[str]:
    gamma = structure.gamma_pattern(1)  # 2143
    target = direct_sum(decreasing(4), decreasing(4))
    for p in all_perms(8):
        if structure.is_close(p, target, 1, 1) and contains(p, gamma) is None:
            yield f"{to_text(p)} avoids {to_text(gamma)} yet is (1,1)-close to target"


def _prop_vh_blockbound(cap: int) -> Iterator[str]:
    eta = from_text("14253")
    for n in range(1, cap + 1):
        for p in class_slice(HorizK(2), n, cap):
            if contains(p, eta) is None and (blocks := structure.min_blocks(p)) > 6:
                yield f"{to_text(p)} needs {blocks} blocks"


REGISTRY: dict[str, Check] = {check.name: check for check in (
    Check("fact-basic-equiv", 8, {"k": [2, 3]}, _failures(_fact_basic_equiv)),
    Check("lemma-kl", 6, {"k,l": "2,3 pairs"}, _slice_pairs(*[
        (f"comp(Ik({k}),Ik({l}))", f"Ik({k * l})") for k, l in itertools.product((2, 3), repeat=2)
    ])),
    Check("lemma-extrakl", 6, {}, _slice_pairs(
        ("comp(merge(I,D),merge(I,D))", "merge(Ik(2),Dk(2))"),
    )),
    Check("lemma-basicsym", 6, {"corpus": list(_SYMMETRY_CORPUS)}, _slice_pairs(*[
        pair
        for a in _SYMMETRY_CORPUS
        for pair in ((f"rev({a})", f"comp({a},Av(12))"), (f"cpl({a})", f"comp(Av(12),{a})"))
    ], equal=True)),
    Check("lemma-VH-invert", 6, {}, _slice_pairs(
        ("Hk(2)", "inv(V(inv(I),inv(I)))"),
        ("H(I,D)", "inv(V(inv(I),inv(D)))"),
        ("H(Av(321),I)", "inv(V(inv(Av(321)),inv(I)))"),
        equal=True,
    )),
    Check("lemma-behaviour-H", 5, {"variant": "H"}, _behaviour("H")),
    Check("lemma-behaviour-V", 5, {"variant": "V"}, _behaviour("V")),
    Check("lemma-behaviour-I", 5, {"variant": "I"}, _behaviour("I")),
    Check("lemma-important", 6, {}, _slice_pairs(
        ("merge(I,I)", "comp(V(I,I),Hk(2))"),
        ("merge(I,D)", "comp(V(I,D),Hk(2))"),
    )),
    Check("thm-Ik-VkHk", 7, {"k": [2, 3]}, _thm_ik_vkhk),
    Check("thm-k+l-1", 7, {"pairs": [[2, 2], [2, 3], [3, 2]]}, _thm_kl1),
    Check("search-m-2-2", 9, {"k": 2, "l": 2}, _search_m_2_2),
    Check("thm-L4", 10, {"k": 4}, _failures(_thm_l4(4))),
    Check("thm-L4-k5", 10, {"k": 5}, _failures(_thm_l4(5))),
    Check("lemma-L2-group", 8, {}, _lemma_l2_group),
    Check("count-L2", 12, {}, _counts(LayeredK(2), lambda cap: range(1, cap + 1))),
    Check("count-F2", 20, {}, _counts(FibLayered(), _fibonacci)),
    Check("thm52-111", 7, {"alpha": "1", "beta_len": 1, "gamma": "1"},
          _failures(_thm52("1", 1, "1"))),
    Check("thm52-21-1-21", 6, {"alpha": "21", "beta_len": 1, "gamma": "21"},
          _failures(_thm52("21", 1, "21"))),
    Check("basis-H-size3", 6, {}, _failures(_basis_h), cap_key="max_len"),
    Check("lemma-blocks", 6, {}, _failures(_lemma_blocks)),
    # The record has always listed max_n first here.
    Check("close-N-sigma", 8, {"max_n": None, "thresholds": [2, 3]}, _failures(_close_n_sigma)),
    Check("thm-L-gamma-far", None, {"c": 1, "l": 1, "order": 8}, _failures(_thm_l_gamma_far)),
    Check("prop-VH-blockbound", 8, {"eta_length": 5}, _failures(_prop_vh_blockbound)),
)}


def _run_check(check: Check, n_cap: Optional[int]) -> SuiteResult:
    started = time.perf_counter()
    cap = check.cap if check.cap is None or n_cap is None else min(check.cap, n_cap)
    params = dict(check.params)
    if cap is not None:
        params[check.cap_key] = cap
    try:
        out = check.body(cap)
    except ResourceLimitError as exc:
        out, skipped = Outcome(), [str(exc)]
    else:
        skipped = [rep.results[n].reason for rep in out.reports for n in rep.skipped_orders]
    # An inclusion's witness lies in its lhs; an equality's reason names its side.
    lines = [
        f"order {n}: {to_text(v.witness)} "
        + (v.reason or f"in {render(rep.lhs)} but not in {render(rep.rhs)}")
        for rep in out.reports
        for n, v in rep.results.items()
        if v.status == "fails"
    ]
    status = "fail" if lines or out.failures else "skip" if skipped else "pass"
    reason = skipped[0] if status == "skip" else None
    lines += out.failures + out.notes
    return SuiteResult(check.name, params, status, lines, time.perf_counter() - started, reason)


def run_suite(names: Sequence[str], n_cap: Optional[int] = None) -> list[SuiteResult]:
    """Run named registry checks one after another, each under its own order
    cap, clamped to n_cap; results come back in the requested order."""
    unknown = [name for name in names if name not in REGISTRY]
    if unknown:
        raise UnknownCheckError(f"unknown check name(s): {', '.join(unknown)}")
    return [_run_check(REGISTRY[name], n_cap) for name in names]
