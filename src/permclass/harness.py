"""Exhaustive finite-order verification of inclusions, equalities, closures,
counts and searches, exposed as a registry of named checks.

Verdicts never extrapolate: a check passing for every tested order is reported
as verified up to that cap, nothing more.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from . import factor, structure
from .algebra import (
    Config,
    DEFAULT_CONFIG,
    ResourceLimitError,
    basis_up_to,
    class_slice,
    count,
    member,
    member_independent,
)
from .exprs import (
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
    LayeredK,
    Merge,
    Or,
    Rev,
    Vert,
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
    """Per-order verdicts for an inclusion of class slices."""

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


def check_inclusion(
    lhs: ClassExpr,
    rhs: ClassExpr,
    n_range: Iterable[int],
    config: Config = DEFAULT_CONFIG,
) -> InclusionReport:
    """For each order, test every LHS member for RHS membership; the earliest
    (lexicographic) witness is reported on failure and re-verified cache-free."""
    report = InclusionReport(lhs, rhs)
    for n in n_range:
        start = time.perf_counter()
        try:
            members = sorted(class_slice(lhs, n, config).members)
            w = next((p for p in members if not member(rhs, p, config)), None)
            if w is not None:
                if member_independent(rhs, w, config):
                    raise RuntimeError(
                        f"witness {to_text(w)} did not re-verify; cache inconsistency"
                    )
                report.results[n] = Verdict("fails", witness=w)
            else:
                report.results[n] = Verdict("holds")
        except ResourceLimitError as exc:
            report.results[n] = Verdict("skipped", reason=str(exc))
        report.timings[n] = time.perf_counter() - start
    return report


def check_equality(
    a: ClassExpr,
    b: ClassExpr,
    n_range: Iterable[int],
    config: Config = DEFAULT_CONFIG,
) -> InclusionReport:
    """Slice-level set equality per order; the witness is the lexicographically
    smallest element of the symmetric difference."""
    report = InclusionReport(a, b)
    for n in n_range:
        start = time.perf_counter()
        try:
            sa = class_slice(a, n, config).members
            sb = class_slice(b, n, config).members
            diff = sa ^ sb
            if diff:
                report.results[n] = Verdict("fails", witness=min(diff))
            else:
                report.results[n] = Verdict("holds")
        except ResourceLimitError as exc:
            report.results[n] = Verdict("skipped", reason=str(exc))
        report.timings[n] = time.perf_counter() - start
    return report


@dataclass
class ClosureReport:
    expr: ClassExpr
    results: dict[int, Verdict] = field(default_factory=dict)
    witness_pairs: dict[int, tuple[Permutation, Permutation]] = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return all(v.status == "holds" for v in self.results.values())


def check_group_closure(
    expr: ClassExpr, n_range: Iterable[int], config: Config = DEFAULT_CONFIG
) -> ClosureReport:
    """Verify the slice contains the identity and is closed under inverse and
    composition; the first failing pair in lexicographic order is reported."""
    report = ClosureReport(expr)
    for n in n_range:
        try:
            members = sorted(class_slice(expr, n, config).members)
            member_set = set(members)
            if identity(n) not in member_set:
                report.results[n] = Verdict("fails", witness=identity(n), reason="missing identity")
                continue
            bad_inv = next((p for p in members if inverse(p) not in member_set), None)
            if bad_inv is not None:
                report.results[n] = Verdict("fails", witness=bad_inv, reason="inverse escapes")
                continue
            verdict = Verdict("holds")
            for p, q in itertools.product(members, members):
                if compose(p, q) not in member_set:
                    verdict = Verdict("fails", witness=compose(p, q), reason="product escapes")
                    report.witness_pairs[n] = (p, q)
                    break
            report.results[n] = verdict
        except ResourceLimitError as exc:
            report.results[n] = Verdict("skipped", reason=str(exc))
    return report


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
    total = sum(sizes)
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
    out: set[Permutation] = set()
    for alpha in class_slice(a_expr, n, config).members:
        vals = alpha.values
        if variant == "V":
            for labels in itertools.product(range(k), repeat=n):
                parts: list[list[int]] = [[] for _ in range(k)]
                for v, lab in zip(vals, labels):
                    parts[lab].append(v)
                out.add(Permutation([v for part in parts for v in part]))
        elif variant == "H":
            for comp in structure._compositions(n, k):
                segments = []
                start = 0
                for size in comp:
                    segments.append(vals[start : start + size])
                    start += size
                for merged in _all_interleavings(segments):
                    out.add(Permutation(merged))
        elif variant == "I":
            for labels in itertools.product(range(k), repeat=n):
                parts = [[] for _ in range(k)]
                for v, lab in zip(vals, labels):
                    parts[lab].append(v)
                for merged in _all_interleavings([tuple(part) for part in parts]):
                    out.add(Permutation(merged))
        else:
            raise ValueError(f"unknown variant {variant!r}")
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
    composed = Comp((a_expr, atom))
    report = InclusionReport(a_expr, composed)
    for n in n_range:
        start = time.perf_counter()
        try:
            direct = behaviour_closure(a_expr, k, variant, n, config)
            via_comp = class_slice(composed, n, config).members
            diff = direct ^ via_comp
            if diff:
                report.results[n] = Verdict("fails", witness=min(diff))
            else:
                report.results[n] = Verdict("holds")
        except ResourceLimitError as exc:
            report.results[n] = Verdict("skipped", reason=str(exc))
        report.timings[n] = time.perf_counter() - start
    return report


class UnknownCheckError(KeyError):
    pass


def _cap(default: int, n_cap: Optional[int]) -> int:
    return default if n_cap is None else min(default, n_cap)


def _result_from_reports(
    name: str, parameters: dict, reports: Sequence[InclusionReport], started: float
) -> SuiteResult:
    counterexamples = []
    status = "pass"
    for rep in reports:
        for n in rep.failed_orders:
            status = "fail"
            counterexamples.append(
                f"order {n}: {to_text(rep.results[n].witness)} in {render(rep.lhs)} "
                f"but not in {render(rep.rhs)}"
            )
        if rep.skipped_orders and status == "pass":
            status = "skip"
    return SuiteResult(name, parameters, status, counterexamples, time.perf_counter() - started)


def _simple_result(name: str, parameters: dict, counterexamples: list[str], started: float, skipped: bool = False) -> SuiteResult:
    if counterexamples:
        status = "fail"
    elif skipped:
        status = "skip"
    else:
        status = "pass"
    return SuiteResult(name, parameters, status, counterexamples, time.perf_counter() - started)


# ---------------------------------------------------------------------------
# Registry checks.  Each takes (config, n_cap) and returns a SuiteResult.
# ---------------------------------------------------------------------------


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


def _check_fact_basic_equiv(config: Config, n_cap: Optional[int]) -> SuiteResult:
    started = time.perf_counter()
    cap = _cap(8, n_cap)
    bad: list[str] = []
    for k in (2, 3):
        delta = decreasing(k + 1)
        for n in range(0, cap + 1):
            for p in all_perms(n):
                by_avoid = contains(p, delta) is None
                by_lds = lds(p) <= k
                by_color = _increasing_colorable(p, k)
                if not (by_avoid == by_lds == by_color):
                    bad.append(
                        f"k={k} {to_text(p)}: avoid={by_avoid} lds={by_lds} coloring={by_color}"
                    )
                if n <= 6 and by_color != (
                    structure.merge_split(p, [Inc()] * k) is not None
                ):
                    bad.append(f"k={k} {to_text(p)}: coloring search disagrees with merge split")
    return _simple_result(
        "fact-basic-equiv", {"k": [2, 3], "max_n": cap}, bad, started
    )


def _check_lemma_kl(config: Config, n_cap: Optional[int]) -> SuiteResult:
    started = time.perf_counter()
    cap = _cap(6, n_cap)
    reports = [
        check_inclusion(Comp((IncK(k), IncK(l))), IncK(k * l), range(1, cap + 1), config)
        for k, l in itertools.product((2, 3), repeat=2)
    ]
    return _result_from_reports("lemma-kl", {"k,l": "2,3 pairs", "max_n": cap}, reports, started)


def _check_lemma_extrakl(config: Config, n_cap: Optional[int]) -> SuiteResult:
    started = time.perf_counter()
    cap = _cap(6, n_cap)
    merged = Merge((Inc(), Dec()))
    rep = check_inclusion(
        Comp((merged, merged)), Merge((IncK(2), DecK(2))), range(1, cap + 1), config
    )
    return _result_from_reports("lemma-extrakl", {"max_n": cap}, [rep], started)


_SYMMETRY_CORPUS = (
    "Ik(2)",
    "Lk(2)",
    "Av(321)",
    "Hk(2)",
    "Vk(2)",
    "F2",
)


def _check_lemma_basicsym(config: Config, n_cap: Optional[int]) -> SuiteResult:
    started = time.perf_counter()
    cap = _cap(6, n_cap)
    reports = []
    for text in _SYMMETRY_CORPUS:
        a = parse_class(text)
        dec = parse_class("Av(12)")
        reports.append(check_equality(Rev(a), Comp((a, dec)), range(1, cap + 1), config))
        reports.append(check_equality(Cpl(a), Comp((dec, a)), range(1, cap + 1), config))
    return _result_from_reports(
        "lemma-basicsym", {"corpus": list(_SYMMETRY_CORPUS), "max_n": cap}, reports, started
    )


def _check_lemma_vh_invert(config: Config, n_cap: Optional[int]) -> SuiteResult:
    started = time.perf_counter()
    cap = _cap(6, n_cap)
    instances: list[tuple[ClassExpr, tuple[ClassExpr, ...]]] = [
        (HorizK(2), (Inc(), Inc())),
        (Horiz((Inc(), Dec())), (Inc(), Dec())),
        (Horiz((Av((pattern_of((3, 2, 1)),)), Inc())), (Av((pattern_of((3, 2, 1)),)), Inc())),
    ]
    reports = []
    for lhs, parts in instances:
        rhs = Inv(Vert(tuple(Inv(c) for c in parts)))
        reports.append(check_equality(lhs, rhs, range(1, cap + 1), config))
    return _result_from_reports("lemma-VH-invert", {"max_n": cap}, reports, started)


def _behaviour_check(name: str, variant: str, config: Config, n_cap: Optional[int]) -> SuiteResult:
    started = time.perf_counter()
    cap = _cap(5, n_cap)
    instances = [(parse_class("Av(21)"), 2), (LayeredK(1), 2), (parse_class("Av(321)"), 2)]
    reports = [
        check_behaviour(a, k, variant, range(1, cap + 1), config) for a, k in instances
    ]
    return _result_from_reports(name, {"variant": variant, "max_n": cap}, reports, started)


def _check_lemma_important(config: Config, n_cap: Optional[int]) -> SuiteResult:
    started = time.perf_counter()
    cap = _cap(6, n_cap)
    reports = [
        check_inclusion(
            Merge((Inc(), Inc())),
            Comp((Vert((Inc(), Inc())), HorizK(2))),
            range(1, cap + 1),
            config,
        ),
        check_inclusion(
            Merge((Inc(), Dec())),
            Comp((Vert((Inc(), Dec())), HorizK(2))),
            range(1, cap + 1),
            config,
        ),
    ]
    return _result_from_reports("lemma-important", {"max_n": cap}, reports, started)


def _check_thm_ik_vkhk(config: Config, n_cap: Optional[int]) -> SuiteResult:
    started = time.perf_counter()
    cap = _cap(7, n_cap)
    bad: list[str] = []
    reports = []
    for k in (2, 3):
        for n in range(0, cap + 1):
            for p in class_slice(IncK(k), n, config):
                try:
                    factor.decompose_vk_hk(p, k, config)
                except (ValueError, factor.FactorizationError) as exc:
                    bad.append(f"k={k} {to_text(p)}: {exc}")
        reports.append(
            check_inclusion(IncK(k), Comp((VertK(k), HorizK(k))), range(1, cap + 1), config)
        )
    out = _result_from_reports("thm-Ik-VkHk", {"k": [2, 3], "max_n": cap}, reports, started)
    if bad:
        out.status = "fail"
        out.counterexamples.extend(bad)
    return out


def _check_thm_kl1(config: Config, n_cap: Optional[int]) -> SuiteResult:
    started = time.perf_counter()
    cap = _cap(7, n_cap)
    bad: list[str] = []
    for k, l in ((2, 2), (2, 3), (3, 2)):
        for n in range(0, cap + 1):
            for p in class_slice(IncK(k + l - 1), n, config):
                try:
                    factor.decompose_ik_il(p, k, l, config)
                except (ValueError, factor.FactorizationError) as exc:
                    bad.append(f"(k,l)=({k},{l}) {to_text(p)}: {exc}")
    incl_cap = min(cap, 6)
    reports = [
        check_inclusion(IncK(k + l - 1), Comp((IncK(k), IncK(l))), range(1, incl_cap + 1), config)
        for k, l in ((2, 2), (2, 3), (3, 2))
    ]
    out = _result_from_reports(
        "thm-k+l-1", {"pairs": [[2, 2], [2, 3], [3, 2]], "max_n": cap}, reports, started
    )
    if bad:
        out.status = "fail"
        out.counterexamples.extend(bad)
    return out


def _check_search_m_2_2(config: Config, n_cap: Optional[int]) -> SuiteResult:
    started = time.perf_counter()
    cap = _cap(9, n_cap)
    report = search_m(2, 2, cap, config)
    bad: list[str] = []
    m_low = report.per_m[3]
    for n in m_low.failed_orders:
        if n <= 8:
            bad.append(f"m=3 fails at order {n}: {to_text(m_low.results[n].witness)}")
    notes: list[str] = []
    hit = report.counterexample(4)
    if hit is not None:
        n, w = hit
        notes.append(f"m=4 counterexample at order {n}: {to_text(w)}")
    else:
        notes.append(f"m=4: no counterexample found up to order {cap}")
    out = _simple_result("search-m-2-2", {"k": 2, "l": 2, "max_n": cap}, bad, started)
    out.counterexamples.extend(notes)
    return out


def _thm_l4_check(name: str, k: int, config: Config, n_cap: Optional[int]) -> SuiteResult:
    started = time.perf_counter()
    cap = _cap(10, n_cap)
    wide = Config(enum_cap=max(config.enum_cap, cap), compose_merge_cap=config.compose_merge_cap)
    bad: list[str] = []
    for n in range(0, cap + 1):
        for p in class_slice(LayeredK(k), n, wide):
            try:
                factor.decompose_l4(p, k, wide)
            except (ValueError, factor.FactorizationError) as exc:
                bad.append(f"k={k} {to_text(p)}: {exc}")
    return _simple_result(name, {"k": k, "max_n": cap}, bad, started)


def _check_lemma_l2_group(config: Config, n_cap: Optional[int]) -> SuiteResult:
    started = time.perf_counter()
    cap = _cap(8, n_cap)
    union = Or((LayeredK(2), Rev(LayeredK(2))))
    closed = check_group_closure(union, range(1, cap + 1), config)
    bad = [
        f"order {n}: {to_text(v.witness)} ({v.reason})"
        for n, v in closed.results.items()
        if v.status == "fails"
    ]
    members3 = sorted(class_slice(LayeredK(2), 3, config).members)
    member_set3 = set(members3)
    escape = next(
        (
            (p, q)
            for p, q in itertools.product(members3, members3)
            if compose(p, q) not in member_set3
        ),
        None,
    )
    if escape is None:
        bad.append("two-layer class unexpectedly closed under products at order 3")
    return _simple_result("lemma-L2-group", {"max_n": cap}, bad, started)


def _check_count_l2(config: Config, n_cap: Optional[int]) -> SuiteResult:
    started = time.perf_counter()
    cap = _cap(12, n_cap)
    wide = Config(enum_cap=max(config.enum_cap, cap), compose_merge_cap=config.compose_merge_cap)
    counts = count(LayeredK(2), cap, wide)
    bad = [
        f"order {n}: generator count {c} != {n}"
        for n, c in enumerate(counts, start=1)
        if n >= 2 and c != n
    ]
    if counts and counts[0] != 1:
        bad.append(f"order 1: generator count {counts[0]} != 1")
    for n in range(1, min(8, cap) + 1):
        filtered = sum(1 for p in all_perms(n) if member(LayeredK(2), p, config))
        if filtered != counts[n - 1]:
            bad.append(f"order {n}: filter count {filtered} != generator count {counts[n - 1]}")
    return _simple_result("count-L2", {"max_n": cap}, bad, started)


def _check_count_f2(config: Config, n_cap: Optional[int]) -> SuiteResult:
    started = time.perf_counter()
    cap = _cap(20, n_cap)
    wide = Config(enum_cap=max(config.enum_cap, cap), compose_merge_cap=config.compose_merge_cap)
    counts = count(FibLayered(), cap, wide)
    fib = [1, 2]
    while len(fib) < cap:
        fib.append(fib[-1] + fib[-2])
    bad = [
        f"order {n}: count {c} != fibonacci {f}"
        for n, (c, f) in enumerate(zip(counts, fib), start=1)
        if c != f
    ]
    for n in range(1, min(8, cap) + 1):
        filtered = sum(1 for p in all_perms(n) if member(FibLayered(), p, config))
        if filtered != counts[n - 1]:
            bad.append(f"order {n}: filter count {filtered} != generator count {counts[n - 1]}")
    return _simple_result("count-F2", {"max_n": cap}, bad, started)


def _thm52_check(
    name: str,
    alpha: Permutation,
    beta_len: int,
    gamma: Permutation,
    default_cap: int,
    config: Config,
    n_cap: Optional[int],
) -> SuiteResult:
    started = time.perf_counter()
    cap = _cap(default_cap, n_cap)
    pattern = direct_sum(direct_sum(alpha, decreasing(beta_len)), gamma)
    bad: list[str] = []
    for n in range(0, cap + 1):
        for p in class_slice(Av((pattern,)), n, config):
            try:
                factor.decompose_thm52(p, alpha, beta_len, gamma, config)
            except (ValueError, structure.SplitContractError, factor.FactorizationError) as exc:
                bad.append(f"{to_text(p)}: {exc}")
    params = {"alpha": to_text(alpha), "beta_len": beta_len, "gamma": to_text(gamma), "max_n": cap}
    return _simple_result(name, params, bad, started)


def _check_basis_h(config: Config, n_cap: Optional[int]) -> SuiteResult:
    started = time.perf_counter()
    cap = _cap(6, n_cap)
    basis = basis_up_to(HorizK(2), cap, config)
    bad: list[str] = []
    if len(basis) != 3:
        bad.append(f"basis size {len(basis)} != 3: {sorted(to_text(p) for p in basis)}")
    for needed in (pattern_of((3, 2, 1)), pattern_of((2, 4, 1, 3))):
        if needed not in basis:
            bad.append(f"expected basis element {to_text(needed)} missing")
    return _simple_result("basis-H-size3", {"max_len": cap}, bad, started)


def _check_lemma_blocks(config: Config, n_cap: Optional[int]) -> SuiteResult:
    started = time.perf_counter()
    cap = _cap(6, n_cap)
    bad: list[str] = []
    for n in range(0, cap + 1):
        counts = {p: structure.min_blocks(p)[0] for p in all_perms(n)}
        perms = list(counts)
        for p in perms:
            bp = counts[p]
            for q in perms:
                composed = compose(p, q)
                if counts[composed] > bp * counts[q]:
                    bad.append(
                        f"{to_text(p)} o {to_text(q)} = {to_text(composed)}: "
                        f"{counts[composed]} > {bp} * {counts[q]}"
                    )
    return _simple_result("lemma-blocks", {"max_n": cap}, bad, started)


def _check_close_n_sigma(config: Config, n_cap: Optional[int]) -> SuiteResult:
    started = time.perf_counter()
    cap = _cap(8, n_cap)
    bad: list[str] = []
    for n in range(1, cap + 1):
        for p in class_slice(parse_class("L"), n, config):
            for t in (2, 3):
                flat = structure.normalize_short_layers(p, t)
                if not structure.is_close(p, flat, t, 0):
                    bad.append(f"{to_text(p)} vs {to_text(flat)} not ({t},0)-close")
    return _simple_result("close-N-sigma", {"max_n": cap, "thresholds": [2, 3]}, bad, started)


def _check_thm_l_gamma_far(config: Config, n_cap: Optional[int]) -> SuiteResult:
    started = time.perf_counter()
    gamma = structure.gamma_pattern(1)  # 2143
    target = direct_sum(decreasing(4), decreasing(4))
    bad: list[str] = []
    for p in all_perms(8):
        if structure.is_close(p, target, 1, 1) and contains(p, gamma) is None:
            bad.append(f"{to_text(p)} avoids {to_text(gamma)} yet is (1,1)-close to target")
    return _simple_result("thm-L-gamma-far", {"c": 1, "l": 1, "order": 8}, bad, started)


def _check_prop_vh_blockbound(config: Config, n_cap: Optional[int]) -> SuiteResult:
    started = time.perf_counter()
    cap = _cap(8, n_cap)
    bad: list[str] = []
    eta = structure._alternating(5)
    for n in range(1, cap + 1):
        for p in class_slice(HorizK(2), n, config):
            if contains(p, eta) is None and structure.min_blocks(p)[0] > 6:
                bad.append(f"{to_text(p)} needs {structure.min_blocks(p)[0]} blocks")
    return _simple_result("prop-VH-blockbound", {"eta_length": 5, "max_n": cap}, bad, started)


REGISTRY: dict[str, Callable[[Config, Optional[int]], SuiteResult]] = {
    "fact-basic-equiv": _check_fact_basic_equiv,
    "lemma-kl": _check_lemma_kl,
    "lemma-extrakl": _check_lemma_extrakl,
    "lemma-basicsym": _check_lemma_basicsym,
    "lemma-VH-invert": _check_lemma_vh_invert,
    "lemma-behaviour-H": lambda c, n: _behaviour_check("lemma-behaviour-H", "H", c, n),
    "lemma-behaviour-V": lambda c, n: _behaviour_check("lemma-behaviour-V", "V", c, n),
    "lemma-behaviour-I": lambda c, n: _behaviour_check("lemma-behaviour-I", "I", c, n),
    "lemma-important": _check_lemma_important,
    "thm-Ik-VkHk": _check_thm_ik_vkhk,
    "thm-k+l-1": _check_thm_kl1,
    "search-m-2-2": _check_search_m_2_2,
    "thm-L4": lambda c, n: _thm_l4_check("thm-L4", 4, c, n),
    "thm-L4-k5": lambda c, n: _thm_l4_check("thm-L4-k5", 5, c, n),
    "lemma-L2-group": _check_lemma_l2_group,
    "count-L2": _check_count_l2,
    "count-F2": _check_count_f2,
    "thm52-111": lambda c, n: _thm52_check(
        "thm52-111", identity(1), 1, identity(1), 7, c, n
    ),
    "thm52-21-1-21": lambda c, n: _thm52_check(
        "thm52-21-1-21", pattern_of((2, 1)), 1, pattern_of((2, 1)), 6, c, n
    ),
    "basis-H-size3": _check_basis_h,
    "lemma-blocks": _check_lemma_blocks,
    "close-N-sigma": _check_close_n_sigma,
    "thm-L-gamma-far": _check_thm_l_gamma_far,
    "prop-VH-blockbound": _check_prop_vh_blockbound,
}


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
    return [REGISTRY[name](config, n_cap) for name in names]
