import json

from permclass import algebra, factor, harness, structure
from permclass.algebra import MAX_ORDER, ClassSlice, SliceCache, class_slice, member, slice_cache
from permclass.exprs import Comp, IncK, canonical_render, parse_class, render
from permclass.harness import (
    REGISTRY,
    Check,
    Outcome,
    InclusionReport,
    MSearchReport,
    UnknownCheckError,
    Verdict,
    behaviour_closure,
    check_behaviour,
    check_equality,
    check_inclusion,
    run_suite,
    search_m,
    _increasing_colorable,
)
from permclass.perms import all_perms, compose, decreasing, from_text, identity, lds, to_text

import pytest

from test_algebra import WIDE_PRODUCT, under_a_low_recursion_limit


MANIFEST = [
    "fact-basic-equiv",
    "lemma-kl",
    "lemma-extrakl",
    "lemma-basicsym",
    "lemma-VH-invert",
    "lemma-behaviour-H",
    "lemma-behaviour-V",
    "lemma-behaviour-I",
    "lemma-important",
    "thm-Ik-VkHk",
    "thm-k+l-1",
    "search-m-2-2",
    "thm-L4",
    "thm-L4-k5",
    "lemma-L2-group",
    "count-L2",
    "count-F2",
    "thm52-111",
    "thm52-21-1-21",
    "basis-H-size3",
    "lemma-blocks",
    "close-N-sigma",
    "thm-L-gamma-far",
    "prop-VH-blockbound",
]


def test_registry_matches_manifest():
    assert sorted(REGISTRY) == sorted(MANIFEST)
    assert len(MANIFEST) == 24


def test_inclusion_holds():
    report = check_inclusion(
        parse_class("Ik(3)"), parse_class("comp(Ik(2),Ik(2))"), range(1, 6)
    )
    assert report.holds
    assert report.failed_orders == []
    assert all(v.status == "holds" for v in report.results.values())


def test_inclusion_fails_with_smallest_witness():
    report = check_inclusion(parse_class("All"), parse_class("Ik(2)"), range(1, 5))
    assert not report.holds
    assert report.results[3].witness == from_text("321")
    assert report.failed_orders == [3, 4]


def test_inclusion_skips_beyond_cap(monkeypatch):
    report = check_inclusion(parse_class("I"), parse_class("comp(I,I)"), range(1, 6), 3)
    assert report.skipped_orders == [4, 5]
    assert not report.failed_orders
    assert report.results[4].reason == "enumeration at order 4 exceeds cap 3"
    # Within the order cap, the pair limit is what stops the order: Ik(2) has
    # 14 members at order 4 and 42 at order 5.
    monkeypatch.setattr(algebra, "MAX_PAIRS", 14 * 14)
    report = check_inclusion(parse_class("Ik(3)"), parse_class("comp(Ik(2),Ik(2))"), range(1, 6))
    assert report.skipped_orders == [5]
    assert not report.failed_orders
    assert report.results[5].reason == "order 5 needs 1764 product pairs, over the limit 196"


def test_inclusion_of_an_empty_slice_holds_past_the_pair_limit(monkeypatch):
    # Past order 1 each product level has 4 or more pairs, but the RHS is never
    # touched when the LHS slice is empty.
    monkeypatch.setattr(algebra, "MAX_PAIRS", 1)
    rhs = parse_class("comp(Ik(2),Ik(2))")
    assert check_inclusion(parse_class("I"), rhs, [2]).skipped_orders == [2]
    report = check_inclusion(parse_class("Ik(0)"), rhs, range(0, 6))
    assert report.holds and sorted(report.results) == [0, 1, 2, 3, 4, 5]


def test_a_witness_that_does_not_re_verify_raises(fresh_cache):
    # A planted empty I slice makes 123 look outside comp(I,Ik(2)); the
    # cache-free re-verification finds it inside and refuses the verdict.
    slice_cache().get_or_compute(("I", 3), lambda: ClassSlice(3, frozenset()))
    with pytest.raises(RuntimeError) as exc:
        check_inclusion(parse_class("Ik(2)"), parse_class("comp(I,Ik(2))"), [3])
    assert str(exc.value) == "witness 123 did not re-verify; cache inconsistency"


def test_inclusion_past_the_product_order_limit_is_skipped():
    # Slices hold byte strings and stop at order 255, after the order cap is passed.
    report = check_inclusion(parse_class("D"), parse_class("comp(D,D)"), [256], 256)
    assert report.results[256].reason == "slice at order 256 exceeds the limit 255"


def test_inclusion_into_a_product_does_not_build_the_product():
    slice_cache().clear()
    for lhs in ("Ik(3)", "Ik(5)"):
        rhs = parse_class("comp(Ik(2),Ik(2))")
        check_inclusion(parse_class(lhs), rhs, range(0, 7))
        for n in range(0, 7):
            assert (canonical_render(rhs), n) not in slice_cache()
            assert ("Ik(2)", n) in slice_cache()


def per_member_inclusion(lhs, rhs, orders):
    """The per-member path's report: every LHS member in lexicographic order,
    asked of rhs through `member` on a fresh cache, up to the first failure."""
    cache = SliceCache()
    results = {}
    for n in orders:
        lhs_slice = class_slice(lhs, n, cache=cache)
        w = next((p for p in lhs_slice if not member(rhs, p, cache=cache)), None)
        results[str(n)] = (
            {"status": "holds"} if w is None else {"status": "fails", "witness": list(w.values)}
        )
    return {"lhs": render(lhs), "rhs": render(rhs), "results": results}


STREAMED_INCLUSIONS = [
    ("Ik(3)", "comp(Ik(2),Ik(2))"),
    ("Ik(4)", "comp(Ik(2),Ik(2))"),
    ("Ik(5)", "comp(Ik(2),Ik(2))"),
    ("Ik(2)", "comp(Vk(2),Hk(2))"),
    ("Ik(3)", "comp(Vk(3),Hk(3))"),
    ("merge(I,D)", "comp(V(I,D),Hk(2))"),
    ("Ik(3)", "comp(Ik(2),Vk(2),Hk(2))"),
    ("All", "comp(Ik(2),Vk(2),Hk(2))"),
    ("All", "comp(Vk(2),Av(231),D)"),
    ("I", "comp(Ik(0),I)"),
    ("Ik(0)", "comp(Ik(0),I)"),
    ("I", "comp(I,Av([ ]))"),
    ("comp(Ik(2),Ik(2))", "comp(Vk(2),Hk(2))"),
    ("comp(Vk(2),Hk(2))", "comp(Ik(2),Ik(2))"),
]


def test_inclusion_into_a_wide_product_runs_without_recursion(fresh_cache):
    # The product is folded and the witness re-verified in loops, so 300
    # factors need no frame each.
    rhs = parse_class(WIDE_PRODUCT)
    report = under_a_low_recursion_limit(
        lambda: check_inclusion(parse_class("Ik(2)"), rhs, range(1, 3))
    )
    assert report.results == {1: Verdict("holds"), 2: Verdict("fails", witness=from_text("21"))}


def test_streamed_inclusion_matches_per_member_scan():
    for lhs, rhs in STREAMED_INCLUSIONS:
        lhs, rhs = parse_class(lhs), parse_class(rhs)
        got = check_inclusion(lhs, rhs, range(0, 8)).to_json()
        assert got == per_member_inclusion(lhs, rhs, range(0, 8)), (render(lhs), render(rhs))
    report = check_inclusion(parse_class("Ik(5)"), parse_class("comp(Ik(2),Ik(2))"), range(0, 6))
    assert report.failed_orders == [5] and report.results[5].witness == from_text("54321")
    report = check_inclusion(parse_class("I"), parse_class("comp(I,Av([ ]))"), [0])
    assert report.results[0].witness == from_text("e")


# Ik(4) has 33,324 members at order 8 against 1,430 batches of Ik(2)∘Ik(2): the
# stream strikes most of them, then hands the rest to the per-member test.
SWITCHED_INCLUSIONS = [(lhs, rhs, range(0, 8)) for lhs, rhs in STREAMED_INCLUSIONS] + [
    ("Ik(4)", "comp(Ik(2),Ik(2))", [8])
]


def test_switch_point_leaves_the_report_unchanged(monkeypatch):
    # Three runs per pair: per-member tests from batch 0, the stream alone, and
    # the rule; each must equal the reference that asks `member` of every member.
    real = algebra._per_member_pays
    for lhs, rhs, orders in SWITCHED_INCLUSIONS:
        lhs, rhs = parse_class(lhs), parse_class(rhs)
        want = per_member_inclusion(lhs, rhs, orders)
        for rule in (lambda rest, batches_left: True, lambda rest, batches_left: False, real):
            monkeypatch.setattr(algebra, "_per_member_pays", rule)
            assert check_inclusion(lhs, rhs, orders).to_json() == want, (render(lhs), render(rhs))


def streamed_switch(rhs, lhs_slice):
    """(batches streamed, members left) where the stream should stop, as
    |rest| < batches left, or None when it runs out or strikes every member."""
    n = lhs_slice.order
    left, acc = algebra._split(rhs.children, n, MAX_ORDER, slice_cache())
    rest = set(lhs_slice.members)
    for done, batch in enumerate(algebra._batches(left, acc, n)):
        if len(rest) < len(left) - done:
            return done, len(rest)
        rest.difference_update(batch)
        if not rest:
            return None
    return None


def test_stream_switches_once_fewer_members_are_left_than_batches(monkeypatch):
    real, calls = algebra._per_member_pays, []

    def spy(rest, batches_left):
        calls.append((rest, batches_left, real(rest, batches_left)))
        return calls[-1][2]

    monkeypatch.setattr(algebra, "_per_member_pays", spy)
    rhs = parse_class("comp(Ik(2),Ik(2))")
    seen = {}
    for lhs, n in (("Ik(2)", 3), ("Ik(4)", 8), ("I", 4)):
        lhs_slice = class_slice(parse_class(lhs), n)
        calls.clear()
        assert algebra.first_non_product(rhs, lhs_slice) is None
        got = (len(calls) - 1, calls[-1][0]) if calls and calls[-1][2] else None
        assert got == streamed_switch(rhs, lhs_slice), (lhs, n)
        seen[lhs] = got, list(calls)
    # Ik(2) at order 3: 5 members against 5 batches, so batch 0 streams.  Ik(4)
    # switches mid-stream.  I at order 4: 1 member against 14 batches, so the
    # per-member tests start at batch 0.
    assert seen["Ik(2)"][1][0] == (5, 5, False)
    assert seen["Ik(4)"][0][0] > 0
    assert seen["I"] == ((0, 1), [(1, 14, True)])


def test_per_member_phase_keeps_the_pair_limit_and_caches_no_product(monkeypatch):
    # |I| = 1 < 14 batches at order 4, so the switch fires at batch 0, after
    # the pair limit has been checked.
    slice_cache().clear()
    rhs = parse_class("comp(Ik(2),Ik(2))")
    monkeypatch.setattr(algebra, "MAX_PAIRS", 14 * 14 - 1)
    report = check_inclusion(parse_class("I"), rhs, range(1, 6))
    assert report.skipped_orders == [4, 5]
    assert report.results[4].reason == "order 4 needs 196 product pairs, over the limit 195"
    monkeypatch.setattr(algebra, "MAX_PAIRS", 14 * 14)
    report = check_inclusion(parse_class("I"), rhs, range(1, 6))
    assert report.skipped_orders == [5] and not report.failed_orders
    assert report.results[5].reason == "order 5 needs 1764 product pairs, over the limit 196"
    assert all((canonical_render(rhs), n) not in slice_cache() for n in range(0, 6))


def test_equality_witness_in_symmetric_difference():
    report = check_equality(parse_class("Vk(2)"), parse_class("Ik(2)"), range(1, 5))
    assert report.results[3].status == "holds"
    assert report.results[4].status == "fails"
    assert report.results[4].witness == from_text("2143")


@pytest.mark.parametrize("pair", [("Vk(2)", "Ik(2)"), ("Ik(2)", "Vk(2)")])
def test_an_equality_failure_names_the_side_holding_the_witness(pair):
    # 2143 is the first permutation in one class and not the other: it lies in
    # Ik(2), whichever side Ik(2) is on.
    check = Check("x", 4, {}, harness._slice_pairs(pair, equal=True))
    result = harness._run_check(check, None)
    assert result.status == "fail"
    assert result.counterexamples == ["order 4: 2143 in Ik(2) but not in Vk(2)"]


@pytest.mark.parametrize("order, edit, line", [
    (2, lambda got, n: got - {identity(n)},
     "order 2: 12 in comp(Av(21),Hk(2)) but not in the k=2 H-closure of Av(21)"),
    (3, lambda got, n: got | {decreasing(n)},
     "order 3: 321 in the k=2 H-closure of Av(21) but not in comp(Av(21),Hk(2))"),
])
def test_a_behaviour_failure_names_the_closure(monkeypatch, order, edit, line):
    # The lemma holds, so the closure is edited at one order to make it fail.
    real = harness.behaviour_closure

    def closure(a, k, variant, n, max_order=MAX_ORDER):
        got = real(a, k, variant, n, max_order)
        return edit(got, n) if n == order else got

    monkeypatch.setattr(harness, "behaviour_closure", closure)
    av21 = parse_class("Av(21)")
    body = lambda cap: Outcome(reports=[check_behaviour(av21, 2, "H", range(1, cap + 1), cap)])
    result = harness._run_check(Check("x", 3, {}, body), None)
    assert result.status == "fail"
    assert result.counterexamples == [line]


def test_search_m_shape():
    report = search_m(2, 2, 5)
    assert sorted(report.per_m) == [3, 4]
    assert report.per_m[3].holds
    assert report.counterexample(4) is None
    payload = report.to_json()
    assert payload["k"] == 2 and "3" in payload["per_m"]


def per_m_search(k, l, n_max):
    """The reference search: one independent check_inclusion per m."""
    rhs = Comp((IncK(k), IncK(l)))
    per_m = {
        str(m): check_inclusion(IncK(m), rhs, range(1, n_max + 1)).to_json()
        for m in range(k + l - 1, k * l + 1)
    }
    return {"k": k, "l": l, "per_m": per_m}


SEARCHES = [(k, l, n) for k, l in ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2))
            for n in range(1, 7)] + [(2, 2, 7)]


@pytest.fixture
def fresh_cache():
    """Empty slice cache before and after: limits and rules changed in a test
    would otherwise be hidden by, or leak through, cached slices."""
    slice_cache().clear()
    yield
    slice_cache().clear()


def test_search_m_matches_one_inclusion_per_m():
    for k, l, n in SEARCHES:
        report = search_m(k, l, n)
        assert list(report.per_m) == list(range(k + l - 1, k * l + 1))
        assert all(list(r.results) == list(range(1, n + 1)) for r in report.per_m.values())
        assert report.to_json() == per_m_search(k, l, n), (k, l, n)


def test_search_m_checks_a_refused_wider_order_itself(monkeypatch, fresh_cache):
    # Ik(4) has 694 members at order 6, so its order-7 growth is refused; the
    # smaller Ik(3) still grows, and m=3 at order 7 is checked, not read off.
    monkeypatch.setattr(algebra, "MAX_CANDIDATES", 4000)
    report = search_m(2, 2, 7)
    assert report.per_m[4].skipped_orders == [7]
    assert report.per_m[4].results[7].reason == (
        "order 7 needs 4858 growth candidates, over the limit 4000"
    )
    assert report.per_m[3].holds
    slice_cache().clear()
    assert report.to_json() == per_m_search(2, 2, 7)


@pytest.mark.parametrize("limit", [0, 196, 10000])
def test_search_m_under_the_pair_limit_matches_one_inclusion_per_m(monkeypatch, fresh_cache, limit):
    # A pair-limit refusal leaves both slices buildable, so only the wider
    # verdict tells the narrower order not to be read off.
    monkeypatch.setattr(algebra, "MAX_PAIRS", limit)
    for k, l in ((2, 2), (2, 3)):
        got = search_m(k, l, 6).to_json()
        slice_cache().clear()
        assert got == per_m_search(k, l, 6), (k, l, limit)
        assert any(
            v["status"] == "skipped" for r in got["per_m"].values() for v in r["results"].values()
        )


@pytest.mark.parametrize("widened", [(3,), (3, 4)])
def test_search_m_reads_off_only_what_the_subset_test_shows(monkeypatch, fresh_cache, widened):
    # A rule that lets Ik(3) (and Ik(4)) admit every new last entry makes them
    # all of S_n.  From order 5 the wide Ik(3) slice is no longer inside Ik(4)'s,
    # or Ik(4) itself fails, so m=3 must be checked and fail.
    def admits(e, q):
        return range(1, len(q) + 2) if e.k in widened else algebra._inc_k_admits(e, q)

    monkeypatch.setitem(algebra._RULES, IncK, algebra._INC_K._replace(admits=admits))
    report = search_m(2, 2, 6)
    assert report.per_m[3].failed_orders == [5, 6]
    assert report.per_m[3].results[5].witness == from_text("54321")
    assert report.per_m[3].results[6].witness == from_text("165432")
    assert report.per_m[4].holds == (4 not in widened)
    slice_cache().clear()
    assert report.to_json() == per_m_search(2, 2, 6)


def test_search_m_streams_only_the_widest_m_while_every_order_holds(monkeypatch):
    real, calls = harness.check_inclusion, []

    def spy(lhs, rhs, n_range, max_order=MAX_ORDER):
        calls.append((render(lhs), list(n_range)))
        return real(lhs, rhs, n_range, max_order)

    monkeypatch.setattr(harness, "check_inclusion", spy)
    for k, l, n in ((2, 2, 7), (2, 3, 6), (3, 2, 6), (1, 1, 4)):
        calls.clear()
        assert all(r.holds for r in search_m(k, l, n).per_m.values())
        assert calls == [(f"Ik({k * l})", list(range(1, n + 1)))], (k, l, n)


def test_search_m_2_2_skips_when_an_order_is_refused(monkeypatch, fresh_cache):
    # Orders 6 and 7 need more product pairs than the limit, for both m.
    monkeypatch.setattr(algebra, "MAX_PAIRS", 10000)
    (result,) = run_suite(["search-m-2-2"], n_cap=7)
    assert result.status == "skip"
    assert result.counterexamples == []


def test_a_skipped_check_keeps_its_reason_out_of_the_json(monkeypatch, fresh_cache):
    # A refused order skips the check with that order's reason; a refusal
    # raised by the body skips it with the error's text.
    monkeypatch.setattr(algebra, "MAX_PAIRS", 0)
    (result,) = run_suite(["lemma-kl"])
    assert (result.status, result.reason) == ("skip", "order 1 needs 1 product pairs, over the limit 0")
    assert "reason" not in result.to_json()
    monkeypatch.setattr(algebra, "MAX_PAIRS", 10000)
    (result,) = run_suite(["search-m-2-2"], n_cap=7)
    assert result.reason == "order 6 needs 17424 product pairs, over the limit 10000"
    (result,) = run_suite(["count-L2"], n_cap=4)
    assert (result.status, result.reason) == ("pass", None)


def fake_search(failing, refused=()):
    """search_m(2, 2, n) stand-in: every order holds but m=3 fails at the
    orders in failing and m=4 is skipped at those in refused."""

    def search(k, l, n_max, max_order=MAX_ORDER):
        report = MSearchReport(k, l)
        for m in (3, 4):
            per = report.per_m[m] = InclusionReport(IncK(m), Comp((IncK(k), IncK(l))))
            for n in range(1, n_max + 1):
                if m == 3 and n in failing:
                    per.results[n] = Verdict("fails", witness=decreasing(n))
                elif m == 4 and n in refused:
                    per.results[n] = Verdict("skipped", reason="refused")
                else:
                    per.results[n] = Verdict("holds")
        return report

    return search


def test_search_m_2_2_fails_on_an_m3_failure_at_any_order(monkeypatch):
    monkeypatch.setattr(harness, "search_m", fake_search({9}))
    (result,) = run_suite(["search-m-2-2"])
    assert result.status == "fail"
    assert result.counterexamples == [
        "m=3 fails at order 9: 987654321",
        "m=4: no counterexample found up to order 9",
    ]
    # A failure outranks a refusal, and the note stops below the refused orders.
    monkeypatch.setattr(harness, "search_m", fake_search({9}, refused={8, 9}))
    (result,) = run_suite(["search-m-2-2"])
    assert result.status == "fail"
    assert result.counterexamples == [
        "m=3 fails at order 9: 987654321",
        "m=4: no counterexample found up to order 7",
    ]


def test_search_m_2_2_notes_an_m4_counterexample_and_still_passes(monkeypatch):
    # m=4 fails at order 10 (the README's reproducer); a later failure is
    # recorded first, and the earliest order is still the one reported.
    w = from_text("4 3 2 7 6 5 10 9 8 1")

    def search(k, l, n_max, max_order=MAX_ORDER):
        report = fake_search(set())(k, l, n_max, max_order)
        report.per_m[4].results[11] = Verdict("fails", witness=decreasing(11))
        report.per_m[4].results[10] = Verdict("fails", witness=w)
        return report

    monkeypatch.setattr(harness, "search_m", search)
    (result,) = run_suite(["search-m-2-2"])
    assert result.status == "pass"
    assert result.counterexamples == ["m=4 counterexample at order 10: 4 3 2 7 6 5 10 9 8 1"]
    assert harness.search_m(2, 2, 9).counterexample(4) == (10, w)


def test_search_m_checks_an_order_whose_read_off_is_refused(monkeypatch, fresh_cache):
    # The subset test meets a refusal at order 4 for m=3: that order goes to
    # check_inclusion, which is refused too and reports it skipped with the
    # refusal's reason; every other order is read off as holding.
    real_slice, real_inclusion, asked = harness.class_slice, harness.check_inclusion, []

    def refusing_slice(expr, n, *args):
        if (render(expr), n) == ("Ik(3)", 4):
            raise algebra.ResourceLimitError("Ik(3) refused at order 4")
        return real_slice(expr, n, *args)

    def spy(lhs, rhs, n_range, *args):
        asked.append((render(lhs), list(n_range)))
        return real_inclusion(lhs, rhs, n_range, *args)

    monkeypatch.setattr(harness, "class_slice", refusing_slice)
    monkeypatch.setattr(harness, "check_inclusion", spy)
    report = search_m(2, 2, 6)
    assert asked == [("Ik(4)", [1, 2, 3, 4, 5, 6]), ("Ik(3)", [4])]
    m3 = report.per_m[3].results
    assert m3[4] == Verdict("skipped", reason="Ik(3) refused at order 4")
    assert all(m3[n] == Verdict("holds") for n in (1, 2, 3, 5, 6))
    assert report.per_m[4].holds


def test_behaviour_closure_matches_composition():
    for variant in ("V", "H", "I"):
        report = check_behaviour(parse_class("Av(21)"), 2, variant, range(1, 5))
        assert report.holds, variant


def test_behaviour_closure_direct_values():
    cases = [
        # concatenations of two increasing subsequences: everything but 321
        ("I", 2, "V", 3, "123 132 213 231 312"),
        # 4321 divided into two pieces and recombined
        ("D", 2, "V", 4, "1432 2143 2431 3142 3214 3241 3421 4132 4213 4231 4312 4321"),
        ("D", 2, "H", 4, "1432 2143 2413 2431 3214 3241 3421 4132 4213 4231 4312 4321"),
        ("D", 2, "I", 4, "1432 2143 2413 2431 3142 3214 3241 3412 3421 4132 4213 4231 4312 4321"),
    ]
    # With no piece, no position can be labelled past order 0.
    cases += [("Av(21)", 0, variant, n, texts) for variant in "VHI" for n, texts in ((0, "e"), (2, ""))]
    for cls, k, variant, n, texts in cases:
        got = behaviour_closure(parse_class(cls), k, variant, n)
        assert sorted(map(to_text, got)) == texts.split(), (cls, k, variant, n)
    with pytest.raises(ValueError) as exc:
        behaviour_closure(parse_class("I"), 2, "X", 3)
    assert str(exc.value) == "unknown variant 'X'"


def test_run_suite_known_and_unknown():
    with pytest.raises(UnknownCheckError):
        run_suite(["no-such-check"])
    results = run_suite(["count-L2", "basis-H-size3"], n_cap=6)
    assert [r.name for r in results] == ["count-L2", "basis-H-size3"]
    assert all(r.status == "pass" for r in results)


def test_run_suite_lists_each_factorization_error(monkeypatch):
    real = factor.decompose_l4

    def decompose(p, k):
        if len(p) == 3:
            raise ValueError("boom")
        return real(p, k)

    monkeypatch.setattr(factor, "decompose_l4", decompose)
    (result,) = run_suite(["thm-L4"], n_cap=4)
    assert result.status == "fail"
    assert result.counterexamples == [
        "k=4 123: boom", "k=4 132: boom", "k=4 213: boom", "k=4 321: boom",
    ]


def test_run_suite_lists_each_count_mismatch(monkeypatch):
    # One extra member at order 3 disagrees with both the Fibonacci number
    # and the count from filtering S_3.
    real = harness.count
    monkeypatch.setattr(
        harness, "count", lambda *args: [c + (n == 3) for n, c in enumerate(real(*args), start=1)]
    )
    (result,) = run_suite(["count-F2"], n_cap=5)
    assert result.status == "fail"
    assert result.counterexamples == [
        "order 3: enumerated count 4 != 3",
        "order 3: filter count 3 != enumerated count 4",
    ]


def test_run_suite_status_skip_when_an_order_hits_a_cap(monkeypatch):
    # Every lemma-kl order builds a product slice; with the pair limit at 0
    # each one is refused, and a cached slice would hide that.
    slice_cache().clear()
    monkeypatch.setattr(algebra, "MAX_PAIRS", 0)
    (result,) = run_suite(["lemma-kl"])
    assert result.status == "skip"
    assert result.counterexamples == []
    assert result.parameters == {"k,l": "2,3 pairs", "max_n": 6}


@pytest.mark.parametrize("n_cap", range(5))
def test_run_suite_under_a_small_cap_skips_rather_than_raising(n_cap):
    # lemma-L2-group compares two-layer products at order 3, so it skips below
    # cap 3; every other check is exact at any cap.
    results = run_suite(list(REGISTRY), n_cap=n_cap)
    assert [r.name for r in results] == list(REGISTRY)
    assert {r.name: r.status for r in results if r.status != "pass"} == (
        {"lemma-L2-group": "skip"} if n_cap < 3 else {}
    )


def test_lemma_blocks_reports_p_o_q_as_p_after_q(monkeypatch):
    # With 231 given 2 blocks and every other permutation 1, a pair fails
    # exactly when p o q = 231 and neither is 231 or the identity.
    target = from_text("231")
    fake = lambda p: 2 if p == target else 1
    monkeypatch.setattr(structure, "min_blocks", fake)
    (result,) = run_suite(["lemma-blocks"], n_cap=3)
    expected = [
        f"{to_text(p)} o {to_text(q)} = {to_text(compose(p, q))}: 2 > 1 * 1"
        for p in all_perms(3)
        for q in all_perms(3)
        if fake(compose(p, q)) > fake(p) * fake(q)
    ]
    assert result.status == "fail"
    assert result.counterexamples == expected
    assert expected[0] == "132 o 321 = 231: 2 > 1 * 1"


def test_suite_result_json_excludes_timing():
    (result,) = run_suite(["count-L2"], n_cap=4)
    payload = result.to_json()
    assert "elapsed" not in payload
    json.dumps(payload)  # serializable


def test_verdict_json():
    assert Verdict("holds").to_json() == {"status": "holds"}
    v = Verdict("fails", witness=from_text("321"))
    assert v.to_json() == {"status": "fails", "witness": [3, 2, 1]}


def test_increasing_colorable_agrees_with_lds():
    # The coloring search is fact-basic-equiv's independent reference: by
    # Dilworth, k increasing parts cover p exactly when lds(p) <= k.
    for n in range(8):
        for p in all_perms(n):
            d = lds(p)
            for k in range(1, 5):
                assert _increasing_colorable(p, k) == (d <= k), (to_text(p), k)
