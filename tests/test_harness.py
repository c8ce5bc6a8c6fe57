import json

from operator import attrgetter

from permclass import algebra
from permclass.algebra import Config, SliceCache, class_slice, member, slice_cache
from permclass.exprs import IncK, LayeredK, canonical_render, parse_class, render
from permclass.harness import (
    REGISTRY,
    UnknownCheckError,
    Verdict,
    behaviour_closure,
    check_behaviour,
    check_equality,
    check_group_closure,
    check_inclusion,
    run_suite,
    search_m,
)
from permclass.perms import from_text

import pytest


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
    tight = Config(max_order=3)
    report = check_inclusion(parse_class("I"), parse_class("comp(I,I)"), range(1, 6), tight)
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


def test_inclusion_past_the_product_order_limit_is_skipped():
    # The byte-string products stop at order 255, after the order cap is passed.
    huge = Config(max_order=256)
    report = check_inclusion(parse_class("D"), parse_class("comp(D,D)"), [256], huge)
    assert report.results[256].reason == (
        "composition at order 256 exceeds the product build's limit 255"
    )


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
        ordered = sorted(class_slice(lhs, n, cache=cache).members, key=attrgetter("values"))
        w = next((p for p in ordered if not member(rhs, p, cache=cache)), None)
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


def test_streamed_inclusion_matches_per_member_scan():
    for lhs, rhs in STREAMED_INCLUSIONS:
        lhs, rhs = parse_class(lhs), parse_class(rhs)
        got = check_inclusion(lhs, rhs, range(0, 8)).to_json()
        assert got == per_member_inclusion(lhs, rhs, range(0, 8)), (render(lhs), render(rhs))
    report = check_inclusion(parse_class("Ik(5)"), parse_class("comp(Ik(2),Ik(2))"), range(0, 6))
    assert report.failed_orders == [5] and report.results[5].witness == from_text("54321")
    report = check_inclusion(parse_class("I"), parse_class("comp(I,Av([ ]))"), [0])
    assert report.results[0].witness == from_text("e")


def test_equality_witness_in_symmetric_difference():
    report = check_equality(parse_class("Vk(2)"), parse_class("Ik(2)"), range(1, 5))
    assert report.results[3].status == "holds"
    assert report.results[4].status == "fails"
    assert report.results[4].witness == from_text("2143")


def test_group_closure_union_of_l2():
    report = check_group_closure(parse_class("or(Lk(2),rev(Lk(2)))"), range(1, 7))
    assert report.holds


def test_group_closure_failure_modes():
    report = check_group_closure(LayeredK(2), [3])
    assert report.results[3].status == "fails"
    # the two-layer slice at order 3 misses the identity
    assert report.results[3].reason == "missing identity"
    all_report = check_group_closure(parse_class("All"), [3])
    assert all_report.holds


def test_search_m_shape():
    report = search_m(2, 2, 5)
    assert sorted(report.per_m) == [3, 4]
    assert report.per_m[3].holds
    assert report.counterexample(4) is None
    payload = report.to_json()
    assert payload["k"] == 2 and "3" in payload["per_m"]


def test_behaviour_closure_matches_composition():
    for variant in ("V", "H", "I"):
        report = check_behaviour(parse_class("Av(21)"), 2, variant, range(1, 5))
        assert report.holds, variant


def test_behaviour_closure_direct_values():
    got = behaviour_closure(parse_class("I"), 2, "V", 3)
    # concatenations of two increasing subsequences: everything but 321
    expected = {from_text(t) for t in ("123", "132", "213", "231", "312")}
    assert got == expected


def test_run_suite_known_and_unknown():
    with pytest.raises(UnknownCheckError):
        run_suite(["no-such-check"])
    results = run_suite(["count-L2", "basis-H-size3"], n_cap=6)
    assert [r.name for r in results] == ["count-L2", "basis-H-size3"]
    assert all(r.status == "pass" for r in results)


def test_run_suite_status_skip_when_an_order_hits_a_cap():
    tight = Config(max_order=3)
    (result,) = run_suite(["lemma-kl"], config=tight)
    assert result.status == "skip"
    assert result.counterexamples == []
    assert result.parameters == {"k,l": "2,3 pairs", "max_n": 6}


def test_suite_result_json_excludes_timing():
    (result,) = run_suite(["count-L2"], n_cap=4)
    payload = result.to_json()
    assert "elapsed" not in payload
    json.dumps(payload)  # serializable


def test_verdict_json():
    assert Verdict("holds").to_json() == {"status": "holds"}
    v = Verdict("fails", witness=from_text("321"))
    assert v.to_json() == {"status": "fails", "witness": [3, 2, 1]}
