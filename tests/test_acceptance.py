"""Acceptance gate: one test per headline criterion, each printing a single
pass/fail line.  Every check runs at its full stated order cap."""

import json
from pathlib import Path

import pytest

from permclass.harness import run_suite

# The benchmark's committed record of each check at its default caps, in the
# key order run_suite produces it.
_EXPECTED_PATH = Path(__file__).resolve().parent.parent / "bench" / "expected_registry.json"
_EXPECTED = json.loads(_EXPECTED_PATH.read_text()) if _EXPECTED_PATH.exists() else {}


def _run(name, n_cap=None):
    (result,) = run_suite([name], n_cap=n_cap)
    if n_cap is None and name in _EXPECTED:
        assert json.dumps(result.to_json()) == json.dumps(_EXPECTED[name])
    return result


def _report(criterion, ok, detail=""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_fact_basic_equiv():
    r = _run("fact-basic-equiv")
    _report("fact-basic-equiv k in {2,3} n<=8", r.status == "pass", "; ".join(r.counterexamples))


def test_criterion_02_thm_ik_vkhk():
    r = _run("thm-Ik-VkHk")
    _report("thm-Ik-VkHk k in {2,3} n<=7", r.status == "pass", "; ".join(r.counterexamples))


def test_criterion_03_thm_k_plus_l_minus_1():
    r = _run("thm-k+l-1")
    _report("thm-k+l-1 (2,2),(2,3),(3,2) n<=7", r.status == "pass", "; ".join(r.counterexamples))


def test_criterion_04_lemma_kl_and_extrakl():
    a = _run("lemma-kl")
    b = _run("lemma-extrakl")
    ok = a.status == "pass" and b.status == "pass"
    _report("lemma-kl + lemma-extrakl n<=6", ok)


def test_criterion_05_thm_l4_k4_and_k5():
    a = _run("thm-L4")
    b = _run("thm-L4-k5")
    ok = a.status == "pass" and b.status == "pass"
    _report("thm-L4 k in {4,5} n<=10", ok)


def test_criterion_06_lemma_l2_group():
    r = _run("lemma-L2-group")
    _report("lemma-L2-group n<=8 with order-3 non-closure witness", r.status == "pass")


def test_criterion_07_count_l2():
    r = _run("count-L2")
    _report("count-L2 |L2 at n| = n for n<=12", r.status == "pass")


def test_criterion_08_count_f2():
    r = _run("count-F2")
    _report("count-F2 Fibonacci for n=1..20", r.status == "pass")


def test_criterion_09_thm52_both_instances():
    a = _run("thm52-111")
    b = _run("thm52-21-1-21")
    ok = a.status == "pass" and b.status == "pass"
    _report("thm52 on Av(123) n<=7 and Av(21354) n<=6", ok)


def test_criterion_10_basis_h_size3():
    r = _run("basis-H-size3")
    _report("basis-H-size3 exactly 3 incl. 321 and 2413", r.status == "pass")


def test_criterion_11_lemma_blocks():
    r = _run("lemma-blocks")
    _report("lemma-blocks product bound n<=6", r.status == "pass")


def test_criterion_12_close_n_sigma():
    r = _run("close-N-sigma")
    _report("close-N-sigma layered n<=8, thresholds {2,3}", r.status == "pass")


def test_criterion_13_thm_l_gamma_far():
    r = _run("thm-L-gamma-far")
    _report("thm-L-gamma-far no (1,1)-close avoider at order 8", r.status == "pass")


def test_criterion_14_prop_vh_blockbound():
    r = _run("prop-VH-blockbound")
    _report("prop-VH-blockbound 6-block bound n<=8", r.status == "pass")


def test_criterion_15_vh_invert_and_basicsym():
    a = _run("lemma-VH-invert")
    b = _run("lemma-basicsym")
    ok = a.status == "pass" and b.status == "pass"
    _report("lemma-VH-invert + lemma-basicsym slice equalities n<=6", ok)


@pytest.mark.slow
def test_criterion_16_search_m_2_2():
    r = _run("search-m-2-2")
    # must terminate with either a verified m=4 counterexample or an explicit
    # none-found note, and m=3 must hold for all n<=9
    has_m4_note = any("m=4" in line for line in r.counterexamples)
    ok = r.status == "pass" and has_m4_note
    _report("search-m-2-2 m=3 holds n<=9, m=4 resolved up to 9", ok, "; ".join(r.counterexamples))
