"""Exhaustive finite-order verification of inclusions, equalities, closures,
counts and searches, exposed as a registry of named checks.

Verdicts never extrapolate: a check passing for every tested order is reported
as verified up to that cap, nothing more.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import AbstractSet, Callable, Iterable, Iterator, Optional, Sequence

from . import factor, structure
from .algebra import (
    Config,
    DEFAULT_CONFIG,
    ResourceLimitError,
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
    compose,
    contains,
    decreasing,
    direct_sum,
    from_text,
    identity,
    inverse,
    lds,
    pattern_of,
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
    """Per-order verdicts for an inclusion, an equality or a closure of class
    slices (a closure report has the class on both sides)."""

    lhs: ClassExpr
    rhs: ClassExpr
    results: dict[int, Verdict] = field(default_factory=dict)
    timings: dict[int, float] = field(default_factory=dict)

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

    def to_json(self) -> dict:
        # Elapsed time is deliberately omitted so equal inputs give identical bytes.
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
    """Record verdict(n) and its timing for each order; a resource cap hit
    makes that order skipped."""
    for n in n_range:
        start = time.perf_counter()
        try:
            report.results[n] = verdict(n)
        except ResourceLimitError as exc:
            report.results[n] = Verdict("skipped", reason=str(exc))
        report.timings[n] = time.perf_counter() - start
    return report


def check_inclusion(
    lhs: ClassExpr,
    rhs: ClassExpr,
    n_range: Iterable[int],
    config: Config = DEFAULT_CONFIG,
) -> InclusionReport:
    """For each order, test every LHS member for RHS membership; the earliest
    (lexicographic) witness is reported on failure and re-verified cache-free.

    Into a product the LHS slice is streamed against the products, which are
    never stored; any other RHS is asked about each member in order, up to the
    first failure."""

    def verdict(n: int) -> Verdict:
        members = class_slice(lhs, n, config).members
        if isinstance(rhs, Comp):
            w = first_non_product(rhs, members, n, config)
        else:
            ordered = sorted(members, key=attrgetter("values"))
            w = next((p for p in ordered if not member(rhs, p, config)), None)
        if w is None:
            return Verdict("holds")
        if member_independent(rhs, w, config):
            raise RuntimeError(f"witness {to_text(w)} did not re-verify; cache inconsistency")
        return Verdict("fails", witness=w)

    return _per_order(InclusionReport(lhs, rhs), n_range, verdict)


def _compare(
    lhs: ClassExpr,
    lhs_members: Callable[[int], AbstractSet[Permutation]],
    rhs: ClassExpr,
    n_range: Iterable[int],
    config: Config,
) -> InclusionReport:
    """Set equality of lhs_members(n) with the rhs slice per order; the witness
    is the lexicographically smallest element of the symmetric difference."""

    def verdict(n: int) -> Verdict:
        diff = lhs_members(n) ^ class_slice(rhs, n, config).members
        return Verdict("fails", witness=min(diff)) if diff else Verdict("holds")

    return _per_order(InclusionReport(lhs, rhs), n_range, verdict)


def check_equality(
    a: ClassExpr,
    b: ClassExpr,
    n_range: Iterable[int],
    config: Config = DEFAULT_CONFIG,
) -> InclusionReport:
    """Slice-level set equality per order; the witness is the lexicographically
    smallest element of the symmetric difference."""
    return _compare(a, lambda n: class_slice(a, n, config).members, b, n_range, config)


def _product_escape(members: AbstractSet[Permutation]) -> Optional[Permutation]:
    """The first product p o q of members, in lexicographic order of (p, q),
    that is not itself a member."""
    ordered = sorted(members, key=attrgetter("values"))
    products = itertools.starmap(compose, itertools.product(ordered, ordered))
    return next((r for r in products if r not in members), None)


def check_group_closure(
    expr: ClassExpr, n_range: Iterable[int], config: Config = DEFAULT_CONFIG
) -> InclusionReport:
    """Verify the slice contains the identity and is closed under inverse and
    composition; the first failing pair in lexicographic order is reported."""

    def verdict(n: int) -> Verdict:
        members = class_slice(expr, n, config).members
        if identity(n) not in members:
            return Verdict("fails", witness=identity(n), reason="missing identity")
        ordered = sorted(members, key=attrgetter("values"))
        bad_inv = next((p for p in ordered if inverse(p) not in members), None)
        if bad_inv is not None:
            return Verdict("fails", witness=bad_inv, reason="inverse escapes")
        escape = _product_escape(members)
        if escape is not None:
            return Verdict("fails", witness=escape, reason="product escapes")
        return Verdict("holds")

    return _per_order(InclusionReport(expr, expr), n_range, verdict)


def search_m(k: int, l: int, n_max: int, config: Config = DEFAULT_CONFIG) -> MSearchReport:
    """Finite evidence for the inclusion of m-chain classes in the composition of
    the k- and l-chain classes, for m between k+l-1 and k*l."""
    report = MSearchReport(k, l)
    rhs = Comp((IncK(k), IncK(l)))
    for m in range(k + l - 1, k * l + 1):
        report.per_m[m] = check_inclusion(IncK(m), rhs, range(1, n_max + 1), config)
    return report


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


def behaviour_closure(a_expr: ClassExpr, k: int, variant: str, n: int, config: Config = DEFAULT_CONFIG) -> set[Permutation]:
    """Direct construction of the order-n slice obtained by dividing members of
    the class into at most k pieces per the variant and recombining:

    - "V": arbitrary subsequences, concatenated in order;
    - "H": contiguous subsequences, interleaved every way;
    - "I": arbitrary subsequences, interleaved every way.
    """
    if variant not in ("V", "H", "I"):
        raise ValueError(f"unknown variant {variant!r}")
    out: set[Permutation] = set()
    for alpha in class_slice(a_expr, n, config).members:
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
    config: Config = DEFAULT_CONFIG,
) -> InclusionReport:
    """Compare the directly built recombination closure against the composition
    with the matching k-parameter atom, order by order."""
    atom = {"V": VertK, "H": HorizK, "I": IncK}[variant](k)
    direct = functools.partial(behaviour_closure, a_expr, k, variant, config=config)
    return _compare(a_expr, direct, Comp((a_expr, atom)), n_range, config)


class UnknownCheckError(KeyError):
    pass


# ---------------------------------------------------------------------------
# Registry checks.  A check is a row of REGISTRY; its body takes the order cap
# and the config and returns an Outcome.  run_suite derives everything else.
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
    body: Callable[[Optional[int], Config], Outcome]
    cap_key: str = "max_n"


def _orders(cap: int) -> range:
    return range(1, cap + 1)


def _widened(config: Config, cap: int) -> Config:
    """The config with the order cap raised to the check's own cap."""
    return dataclasses.replace(config, max_order=max(config.max_order, cap))


def _slice_pairs(*pairs: tuple[str, str], equal: bool = False):
    """Body checking, at orders 1..cap for each (lhs, rhs) text pair, that lhs
    lies inside rhs, or that the two are equal."""
    parsed = [(parse_class(a), parse_class(b)) for a, b in pairs]

    def body(cap: int, config: Config) -> Outcome:
        check = check_equality if equal else check_inclusion
        return Outcome(reports=[check(a, b, _orders(cap), config) for a, b in parsed])

    return body


def _failures(lines: Callable[[Optional[int], Config], Iterable[str]]):
    """Body whose outcome is just the failure lines that lines(cap, config) yields."""
    return lambda cap, config: Outcome(list(lines(cap, config)))


def _factor_failures(
    cls: ClassExpr,
    cap: int,
    config: Config,
    decompose: Callable[[Permutation, Config], object],
    label: str = "",
) -> Iterator[str]:
    """Factor every member of the class at orders 0..cap; one line per error."""
    for n in range(0, cap + 1):
        for p in class_slice(cls, n, config):
            try:
                decompose(p, config)
            except (ValueError, structure.SplitContractError, factor.FactorizationError) as exc:
                yield f"{label}{to_text(p)}: {exc}"


def _filter_count_failures(cls: ClassExpr, counts: list[int], config: Config) -> Iterator[str]:
    """Compare enumerated counts with counts from filtering S_n, up to order 8."""
    for n in range(1, min(8, len(counts)) + 1):
        filtered = sum(1 for p in all_perms(n) if member(cls, p, config))
        if filtered != counts[n - 1]:
            yield f"order {n}: filter count {filtered} != enumerated count {counts[n - 1]}"


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
        tried = set()
        for part in range(k):
            t = tails[part]
            if t < v and t not in tried:
                tried.add(t)
                tails[part] = v
                if extend(i + 1):
                    return True
                tails[part] = t
        return False

    return extend(0)


def _fact_basic_equiv(cap: int, config: Config) -> Iterator[str]:
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
                    structure.merge_split(p, [Inc()] * k) is not None
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
    return lambda cap, config: Outcome(
        reports=[check_behaviour(a, 2, variant, _orders(cap), config) for a in instances]
    )


def _thm_ik_vkhk(cap: int, config: Config) -> Outcome:
    out = Outcome()
    for k in (2, 3):
        out.failures += _factor_failures(
            IncK(k), cap, config, lambda p, c: factor.decompose_vk_hk(p, k, c), f"k={k} "
        )
        product = Comp((VertK(k), HorizK(k)))
        out.reports.append(check_inclusion(IncK(k), product, _orders(cap), config))
    return out


def _thm_kl1(cap: int, config: Config) -> Outcome:
    out = Outcome()
    for k, l in ((2, 2), (2, 3), (3, 2)):
        out.failures += _factor_failures(
            IncK(k + l - 1), cap, config,
            lambda p, c: factor.decompose_ik_il(p, k, l, c), f"(k,l)=({k},{l}) ",
        )
        product = Comp((IncK(k), IncK(l)))
        out.reports.append(check_inclusion(IncK(k + l - 1), product, _orders(min(cap, 6)), config))
    return out


def _search_m_2_2(cap: int, config: Config) -> Outcome:
    report = search_m(2, 2, cap, config)
    m_low = report.per_m[3]
    bad = [
        f"m=3 fails at order {n}: {to_text(m_low.results[n].witness)}"
        for n in m_low.failed_orders
        if n <= 8
    ]
    hit = report.counterexample(4)
    if hit is not None:
        note = f"m=4 counterexample at order {hit[0]}: {to_text(hit[1])}"
    else:
        note = f"m=4: no counterexample found up to order {cap}"
    return Outcome(bad, notes=[note])


def _thm_l4(k: int):
    return lambda cap, config: _factor_failures(
        LayeredK(k), cap, _widened(config, cap), lambda p, c: factor.decompose_l4(p, k, c), f"k={k} "
    )


def _lemma_l2_group(cap: int, config: Config) -> Iterator[str]:
    closed = check_group_closure(parse_class("or(Lk(2),rev(Lk(2)))"), _orders(cap), config)
    for n, v in closed.results.items():
        if v.status == "fails":
            yield f"order {n}: {to_text(v.witness)} ({v.reason})"
    if _product_escape(class_slice(LayeredK(2), 3, config).members) is None:
        yield "two-layer class unexpectedly closed under products at order 3"


def _count_l2(cap: int, config: Config) -> Iterator[str]:
    counts = count(LayeredK(2), cap, _widened(config, cap))
    for n, c in enumerate(counts, start=1):
        if n >= 2 and c != n:
            yield f"order {n}: enumerated count {c} != {n}"
    if counts and counts[0] != 1:
        yield f"order 1: enumerated count {counts[0]} != 1"
    yield from _filter_count_failures(LayeredK(2), counts, config)


def _count_f2(cap: int, config: Config) -> Iterator[str]:
    counts = count(FibLayered(), cap, _widened(config, cap))
    fib = [1, 2]
    while len(fib) < cap:
        fib.append(fib[-1] + fib[-2])
    for n, (c, f) in enumerate(zip(counts, fib), start=1):
        if c != f:
            yield f"order {n}: count {c} != fibonacci {f}"
    yield from _filter_count_failures(FibLayered(), counts, config)


def _thm52(alpha: str, beta_len: int, gamma: str):
    a, g = from_text(alpha), from_text(gamma)
    avoided = Av((direct_sum(direct_sum(a, decreasing(beta_len)), g),))
    return lambda cap, config: _factor_failures(
        avoided, cap, config, lambda p, c: factor.decompose_thm52(p, a, beta_len, g, c)
    )


def _basis_h(cap: int, config: Config) -> Iterator[str]:
    basis = basis_up_to(HorizK(2), cap, config)
    if len(basis) != 3:
        yield f"basis size {len(basis)} != 3: {sorted(to_text(p) for p in basis)}"
    for needed in (pattern_of((3, 2, 1)), pattern_of((2, 4, 1, 3))):
        if needed not in basis:
            yield f"expected basis element {to_text(needed)} missing"


def _lemma_blocks(cap: int, config: Config) -> Iterator[str]:
    for n in range(0, cap + 1):
        counts = {p: structure.min_blocks(p)[0] for p in all_perms(n)}
        perms = list(counts)
        for p in perms:
            bp = counts[p]
            for q in perms:
                composed = compose(p, q)
                if counts[composed] > bp * counts[q]:
                    yield (
                        f"{to_text(p)} o {to_text(q)} = {to_text(composed)}: "
                        f"{counts[composed]} > {bp} * {counts[q]}"
                    )


def _close_n_sigma(cap: int, config: Config) -> Iterator[str]:
    for n in range(1, cap + 1):
        for p in class_slice(parse_class("L"), n, config):
            for t in (2, 3):
                flat = structure.normalize_short_layers(p, t)
                if not structure.is_close(p, flat, t, 0):
                    yield f"{to_text(p)} vs {to_text(flat)} not ({t},0)-close"


def _thm_l_gamma_far(cap: Optional[int], config: Config) -> Iterator[str]:
    gamma = structure.gamma_pattern(1)  # 2143
    target = direct_sum(decreasing(4), decreasing(4))
    for p in all_perms(8):
        if structure.is_close(p, target, 1, 1) and contains(p, gamma) is None:
            yield f"{to_text(p)} avoids {to_text(gamma)} yet is (1,1)-close to target"


def _prop_vh_blockbound(cap: int, config: Config) -> Iterator[str]:
    eta = structure._alternating(5)
    for n in range(1, cap + 1):
        for p in class_slice(HorizK(2), n, config):
            if contains(p, eta) is None and structure.min_blocks(p)[0] > 6:
                yield f"{to_text(p)} needs {structure.min_blocks(p)[0]} blocks"


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
    Check("lemma-L2-group", 8, {}, _failures(_lemma_l2_group)),
    Check("count-L2", 12, {}, _failures(_count_l2)),
    Check("count-F2", 20, {}, _failures(_count_f2)),
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


def _run_check(check: Check, n_cap: Optional[int], config: Config) -> SuiteResult:
    started = time.perf_counter()
    cap = check.cap if check.cap is None or n_cap is None else min(check.cap, n_cap)
    params = dict(check.params)
    if cap is not None:
        params[check.cap_key] = cap
    out = check.body(cap, config)
    lines = [
        f"order {n}: {to_text(rep.results[n].witness)} in {render(rep.lhs)} "
        f"but not in {render(rep.rhs)}"
        for rep in out.reports
        for n in rep.failed_orders
    ]
    if lines or out.failures:
        status = "fail"
    elif any(rep.skipped_orders for rep in out.reports):
        status = "skip"
    else:
        status = "pass"
    return SuiteResult(
        check.name, params, status, lines + out.failures + out.notes, time.perf_counter() - started
    )


def run_suite(
    names: Sequence[str],
    n_cap: Optional[int] = None,
    config: Config = DEFAULT_CONFIG,
) -> list[SuiteResult]:
    """Run named registry checks one after another; results come back in the
    requested order."""
    unknown = [name for name in names if name not in REGISTRY]
    if unknown:
        raise UnknownCheckError(f"unknown check name(s): {', '.join(unknown)}")
    return [_run_check(REGISTRY[name], n_cap, config) for name in names]
