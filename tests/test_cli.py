import argparse
import json
import time

import pytest

from permclass import algebra
from permclass.algebra import basis_up_to, class_slice, count, member, slice_cache
from permclass.cli import _build_parser, cli_dispatch
from permclass.exprs import parse_class, render
from permclass.factor import decompose_vk_hk
from permclass.perms import from_text, to_text
from test_algebra import EVERY_NODE_TYPE


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_member_true_false(capsys):
    code, out, _ = run(capsys, "member", "--class", "Ik(2)", "--perm", "321")
    assert code == 0 and out.strip() == "false"
    code, out, _ = run(capsys, "member", "--class", "Ik(2)", "--perm", "312")
    assert code == 0 and out.strip() == "true"


def test_member_matches_library(capsys):
    for cls, perm in (("Av(321)", "2143"), ("Lk(2)", "1432"), ("Hk(2)", "1324")):
        code, out, _ = run(capsys, "member", "--class", cls, "--perm", perm)
        assert code == 0
        assert (out.strip() == "true") == member(parse_class(cls), from_text(perm))


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "member", "--class", "Ik(", "--perm", "1")
    assert code == 2
    assert "Ik(" in err
    code, _, err = run(capsys, "member", "--class", "I", "--perm", "x1")
    assert code == 2


def test_a_bad_literal_and_a_zero_beta_len_print_one_exact_line(capsys):
    got = run(capsys, "member", "--class", "Av(", "--perm", "1")
    assert got == (2, "", "error: bad class expression 'Av(': expected a permutation literal (at position 3)\n")
    got = run(capsys, "decompose", "--method", "thm52", "--beta-len", "0", "--perm", "21")
    assert got == (1, "", "error: beta_len must be positive\n")


def test_usage_error_exit_2(capsys):
    assert run(capsys, "member", "--class", "I")[0] == 2
    assert run(capsys, "bogus-subcommand")[0] == 2
    assert run(capsys, "suite", "--names", "count-L2", "--jobs", "2")[0] == 2
    assert run(capsys, "include", "--lhs", "I", "--rhs", "I", "--max-n", "2", "--jobs", "2")[0] == 2
    # orders and lengths are non-negative integers
    assert run(capsys, "enumerate", "--class", "I", "-n", "-1")[0] == 2
    assert run(capsys, "count", "--class", "I", "--max-n", "-1")[0] == 2
    assert run(capsys, "basis", "--class", "I", "--max-len", "-1")[0] == 2
    assert run(capsys, "include", "--lhs", "I", "--rhs", "I", "--max-n", "-2")[0] == 2
    assert run(capsys, "suite", "--names", "count-L2", "--max-n", "-1")[0] == 2
    assert run(capsys, "enumerate", "--class", "I", "-n", "x")[0] == 2
    for option in ("-k", "-l", "--beta-len"):
        assert run(capsys, "decompose", "--method", "vkhk", "--perm", "21", option, "-1")[0] == 2


def test_deep_nesting_exit_2(capsys):
    deep = "rev(" * 3000 + "I" + ")" * 3000
    code, out, err = run(capsys, "member", "--class", deep, "--perm", "21")
    assert code == 2 and out == ""
    assert "nested deeper" in err and "Traceback" not in err
    assert len(err.encode()) < 500
    # the parser's own messages cut long tokens too
    long_name = "A" * 2000
    for text in (long_name, long_name + "(I)", "Av(" + "1" * 2000 + ")"):
        code, out, err = run(capsys, "member", "--class", text, "--perm", "1")
        assert code == 2 and out == ""
        assert len(err.encode()) < 500
    # and so do bad permutations
    for perm in (" ".join(["1"] * 3000), "x" * 3000, "1 " * 1000 + "x" * 3000):
        code, out, err = run(capsys, "member", "--class", "I", "--perm", perm)
        assert code == 2 and out == ""
        assert len(err.encode()) < 500


def test_enumerate_matches_library(capsys):
    code, out, _ = run(capsys, "enumerate", "--class", "Lk(2)", "-n", "4")
    assert code == 0
    assert out.split() == [str(p) for p in class_slice(parse_class("Lk(2)"), 4)]


def test_enumerate_prints_what_permutation_iteration_gives(capsys):
    # enumerate prints the slice's rows; the reference rebuilds them from
    # Permutation iteration.
    def check(text, n):
        expr = parse_class(text)
        perms = list(class_slice(expr, n))
        assert class_slice(expr, n).rows() == [list(p.values) for p in perms], (text, n)
        payload = {"class": render(expr), "n": n, "members": [list(p.values) for p in perms]}
        want = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        assert run(capsys, "--format", "json", "enumerate", "--class", text, "-n", str(n)) == (0, want, "")
        want = "".join(to_text(p) + "\n" for p in perms)
        assert run(capsys, "enumerate", "--class", text, "-n", str(n)) == (0, want, ""), (text, n)

    for text in EVERY_NODE_TYPE:
        for n in range(7):
            check(text, n)
    for text in ("I", "Lk(1)", "F2"):
        check(text, 10)
    # Order 0 holds the empty permutation, order 10 is spaced, and an empty
    # class lists nothing.
    assert run(capsys, "--format", "json", "enumerate", "--class", "I", "-n", "0")[1] == (
        '{"class":"I","members":[[]],"n":0}\n'
    )
    assert run(capsys, "enumerate", "--class", "I", "-n", "0")[1] == "e\n"
    assert run(capsys, "enumerate", "--class", "Lk(1)", "-n", "10")[1] == "10 9 8 7 6 5 4 3 2 1\n"
    assert run(capsys, "enumerate", "--class", "Av([ ])", "-n", "0")[1] == ""


def test_count_matches_library(capsys):
    code, out, _ = run(capsys, "count", "--class", "Av(321)", "--max-n", "6")
    assert code == 0
    got = [int(line.split("\t")[1]) for line in out.strip().splitlines()]
    assert got == count(parse_class("Av(321)"), 6)


def test_basis_of_length_zero_is_empty(capsys):
    code, out, _ = run(capsys, "--format", "json", "basis", "--class", "I", "--max-len", "0")
    assert code == 0 and json.loads(out)["basis"] == []


def test_basis_of_the_empty_class_is_the_empty_permutation(capsys):
    for max_len in ("0", "1", "5"):
        code, out, _ = run(capsys, "--format", "json", "basis", "--class", "Av([ ])", "--max-len", max_len)
        assert code == 0 and json.loads(out)["basis"] == [[]], max_len


def test_basis_matches_library(capsys):
    code, out, _ = run(capsys, "basis", "--class", "Hk(2)", "--max-len", "6")
    assert code == 0
    assert set(out.split()) == {str(p) for p in basis_up_to(parse_class("Hk(2)"), 6)}


def test_compose_perms(capsys):
    code, out, _ = run(capsys, "compose-perms", "321", "213")
    assert code == 0 and out.strip() == "231"
    code, _, err = run(capsys, "compose-perms", "321", "21")
    assert code == 2


def test_decompose_text_and_failure(capsys):
    code, out, _ = run(capsys, "decompose", "--method", "vkhk", "--perm", "2143", "-k", "2")
    assert code == 0
    lines = [line.split("\t") for line in out.strip().splitlines()]
    expected = decompose_vk_hk(from_text("2143"), 2)
    assert [l[0] for l in lines] == [str(f.perm) for f in expected.factors]
    code, _, err = run(capsys, "decompose", "--method", "vkhk", "--perm", "321", "-k", "2")
    assert code == 1 and "321" in err


def test_decompose_all_methods(capsys):
    assert run(capsys, "decompose", "--method", "ikil", "--perm", "321", "-k", "2", "-l", "2")[0] == 0
    assert run(capsys, "decompose", "--method", "l4", "--perm", "13245", "-k", "4")[0] == 0
    code, out, _ = run(
        capsys, "decompose", "--method", "thm52", "--perm", "321",
        "--alpha", "1", "--beta-len", "1", "--gamma", "1",
    )
    assert code == 0 and out.startswith("321\t")


def test_decompose_ikil_rejects_zero_chains(capsys):
    for k, l, perm in (("0", "2", "1"), ("2", "0", "1"), ("0", "1", "e")):
        code, out, err = run(
            capsys, "decompose", "--method", "ikil", "--perm", perm, "-k", k, "-l", l
        )
        assert (code, out) == (1, "") and err.startswith("error: "), (k, l, perm)
        assert "Traceback" not in err


def test_include_holds_and_fails(capsys):
    code, out, _ = run(
        capsys, "include", "--lhs", "Ik(3)", "--rhs", "comp(Ik(2),Ik(2))", "--max-n", "5"
    )
    assert code == 0 and "n=5: holds" in out
    code, out, _ = run(capsys, "include", "--lhs", "All", "--rhs", "Ik(2)", "--max-n", "4")
    assert code == 1 and "witness=321" in out


def test_include_resource_cap(capsys, monkeypatch):
    monkeypatch.setenv("PERMCLASS_MAX_N", "3")
    argv = ["include", "--lhs", "I", "--rhs", "comp(I,I)", "--max-n", "5"]
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert out.splitlines() == [
        "n=1: holds",
        "n=2: holds",
        "n=3: holds",
        "n=4: skipped (enumeration at order 4 exceeds cap 3)",
        "n=5: skipped (enumeration at order 5 exceeds cap 3)",
    ]
    assert run(capsys, "--format", "json", *argv) == (3, (
        '{"lhs":"I","results":{"1":{"status":"holds"},"2":{"status":"holds"},"3":{"status":"holds"},'
        '"4":{"reason":"enumeration at order 4 exceeds cap 3","status":"skipped"},'
        '"5":{"reason":"enumeration at order 5 exceeds cap 3","status":"skipped"}},"rhs":"comp(I,I)"}\n'
    ), "")


def test_suite_subcommand(capsys):
    code, out, _ = run(capsys, "suite", "--names", "count-L2,basis-H-size3", "--max-n", "6")
    assert code == 0
    assert "count-L2: pass" in out and "basis-H-size3: pass" in out
    assert run(capsys, "suite", "--names", "no-such-check")[0] == 2


def test_text_suite_prints_the_note_lines_under_each_result(capsys):
    code, out, _ = run(capsys, "suite", "--names", "search-m-2-2", "--max-n", "5")
    assert code == 0
    assert out.splitlines()[0].startswith("search-m-2-2: pass (")
    assert out.splitlines()[1:] == ["  m=4: no counterexample found up to order 5"]


def test_json_output_stable(capsys):
    argv = ["--format", "json", "suite", "--names", "count-L2", "--max-n", "6"]
    run(capsys, *argv)
    warm = run(capsys, *argv)
    slice_cache().clear()
    cold = run(capsys, *argv)
    assert warm[0] == 0 == cold[0]
    assert warm[1] == cold[1]
    payload = json.loads(warm[1])
    assert payload["results"][0]["name"] == "count-L2"
    assert "elapsed" not in payload["results"][0]


def test_json_member_and_decompose(capsys):
    code, out, _ = run(capsys, "--format", "json", "member", "--class", "Ik(2)", "--perm", "321")
    assert code == 0
    assert json.loads(out) == {"class": "Ik(2)", "member": False, "perm": [3, 2, 1]}
    code, out, _ = run(
        capsys, "--format", "json", "decompose", "--method", "vkhk", "--perm", "2143", "-k", "2"
    )
    assert json.loads(out)["target"] == [2, 1, 4, 3]


def test_env_cap_applies_inside_splits(capsys, monkeypatch):
    # The comp piece of each split of 12345 has order 4, past the cap.
    monkeypatch.setenv("PERMCLASS_MAX_N", "3")
    assert run(capsys, "member", "--class", "comp(I,I)", "--perm", "1234")[0] == 3
    for cls in ("V(comp(I,I),D)", "H(comp(I,I),D)", "merge(comp(I,I),D)"):
        code, out, err = run(capsys, "member", "--class", cls, "--perm", "12345")
        assert code == 3 and out == "" and "cap" in err, cls
    monkeypatch.delenv("PERMCLASS_MAX_N")
    for cls in ("V(comp(I,I),D)", "H(comp(I,I),D)", "merge(comp(I,I),D)"):
        assert run(capsys, "member", "--class", cls, "--perm", "12345")[:2] == (0, "true\n")


def test_env_cap_applies_to_enumeration(capsys, monkeypatch):
    monkeypatch.setenv("PERMCLASS_MAX_N", "3")
    code, _, err = run(capsys, "enumerate", "--class", "All", "-n", "5")
    assert code == 3
    # A basis up to length n grows the class to order n-1.
    assert run(capsys, "basis", "--class", "All", "--max-len", "5")[0] == 3
    assert run(capsys, "basis", "--class", "All", "--max-len", "4")[:2] == (0, "")
    monkeypatch.setenv("PERMCLASS_MAX_N", "not-a-number")
    assert run(capsys, "enumerate", "--class", "All", "-n", "2")[0] == 2
    code, _, err = run(capsys, "suite", "--names", "count-L2")
    assert code == 2 and "PERMCLASS_MAX_N" in err
    monkeypatch.setenv("PERMCLASS_MAX_N", "x" * 3000)
    code, _, err = run(capsys, "count", "--class", "I", "--max-n", "3")
    assert code == 2 and "PERMCLASS_MAX_N" in err and len(err.encode()) < 500


# One valid call of each subcommand, each of which exits 0 without PERMCLASS_MAX_N.
EVERY_SUBCOMMAND = (
    ("member", "--class", "I", "--perm", "12"),
    ("enumerate", "--class", "I", "-n", "2"),
    ("count", "--class", "I", "--max-n", "3"),
    ("basis", "--class", "I", "--max-len", "2"),
    ("compose-perms", "21", "21"),
    ("decompose", "--method", "vkhk", "--perm", "2143"),
    ("include", "--lhs", "I", "--rhs", "Ik(2)", "--max-n", "2"),
    ("suite", "--names", "thm-L-gamma-far"),
)


def test_negative_env_cap_is_a_usage_error(capsys, monkeypatch):
    # Like a negative --max-n: not a cap below every order, a usage error,
    # whether or not the subcommand reads the cap.
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(argv[0] for argv in EVERY_SUBCOMMAND) == sorted(sub.choices)
    for argv in EVERY_SUBCOMMAND:
        assert run(capsys, *argv)[0] == 0, argv
    for env in ("-1", "x", ""):
        monkeypatch.setenv("PERMCLASS_MAX_N", env)
        for argv in EVERY_SUBCOMMAND:
            code, out, err = run(capsys, "--format", "json", *argv)
            assert (code, out) == (2, ""), (env, argv)
            assert err.startswith("error: PERMCLASS_MAX_N must be an integer >= 0"), (env, argv)


@pytest.mark.parametrize(
    "argv, order, count, limit",
    [
        (("enumerate", "--class", "All", "-n", "11"), 10, 3628800, 3000000),
        (("basis", "--class", "All", "--max-len", "12"), 10, 3628800, 3000000),
        (("basis", "--class", "All", "--max-len", "10"), 10, 3628800, 3000000),
        (("enumerate", "--class", "comp(Ik(2),Ik(2))", "-n", "11"), 11, 58786**2, 1000000000),
    ],
)
def test_oversized_work_is_refused_before_its_loop(capsys, argv, order, count, limit):
    # Each passes the order cap; the growth or pair count is what refuses it.
    try:
        code, out, err = run(capsys, *argv)
    finally:
        slice_cache().clear()
    assert (code, out) == (3, "")
    assert f"order {order} needs {count} " in err and f"over the limit {limit}" in err


def test_merge_membership_answers_up_to_the_order_cap(capsys):
    code, out, _ = run(capsys, "member", "--class", "merge(I,D)", "--perm", "2 1 4 3 6 5 8 7 10 9")
    assert (code, out) == (0, "false\n")


def test_a_merge_of_ten_equal_parts_tries_one_empty_part_per_entry(capsys):
    # Trying each of the interchangeable empty parts took minutes here.
    started = time.perf_counter()
    code, out, _ = run(
        capsys, "member", "--class", "merge(I,I,I,I,I,I,I,I,I,I)", "--perm", "11 10 9 8 7 6 5 4 3 2 1"
    )
    assert (code, out) == (0, "false\n")
    assert time.perf_counter() - started < 1


def test_a_skipped_check_says_why_in_text_only(capsys, monkeypatch):
    # lemma-L2-group builds an order-3 product, past the cap, in its body.
    monkeypatch.setenv("PERMCLASS_MAX_N", "2")
    code, out, _ = run(capsys, "suite", "--names", "lemma-L2-group")
    assert code == 3
    assert out.splitlines()[1:] == ["  skipped: enumeration at order 3 exceeds cap 2"]
    assert run(capsys, "--format", "json", "suite", "--names", "lemma-L2-group") == (3, (
        '{"results":[{"counterexamples":[],"name":"lemma-L2-group",'
        '"parameters":{"max_n":2},"status":"skip"}]}\n'
    ), "")


def test_a_skipped_search_m_names_the_refused_order_and_the_limit(capsys, monkeypatch):
    # Orders 6 and 7 need more product pairs than the limit, for both m.
    monkeypatch.setattr(algebra, "MAX_PAIRS", 10000)
    slice_cache().clear()
    try:
        code, out, _ = run(capsys, "suite", "--names", "search-m-2-2", "--max-n", "7")
    finally:
        slice_cache().clear()
    assert code == 3
    assert out.splitlines()[0].startswith("search-m-2-2: skip (")
    assert out.splitlines()[1:] == [
        "  skipped: order 6 needs 17424 product pairs, over the limit 10000"
    ]


def test_unknown_suite_names_are_echoed_plain_and_bounded(capsys):
    assert run(capsys, "suite", "--names", "nope") == (2, "", "error: unknown check name(s): nope\n")
    for names in ("x" * 3000, ",".join(["y" * 50] * 200)):
        code, out, err = run(capsys, "suite", "--names", names)
        assert (code, out) == (2, "") and len(err.encode()) < 500
        assert err.startswith("error: unknown check name(s): ")


def test_suite_with_no_names_is_a_usage_error(capsys):
    for names in ("", ",", " , "):
        assert run(capsys, "suite", "--names", names) == (2, "", "error: no check names given\n")


# The parser is built once per process; these check that no call leaves
# state behind for the next one.


def test_a_usage_error_leaves_the_parser_fit_for_the_next_call(capsys):
    code, out, err = run(capsys, "member", "--class", "I")
    assert (code, out) == (2, "") and "--perm" in err
    assert run(capsys, "member", "--class", "Ik(2)", "--perm", "312") == (0, "true\n", "")


def test_member_of_an_order_1000_avoidance_class(capsys):
    # contains keeps its matched entries on an explicit stack: a pattern longer
    # than the recursion limit is matched entry by entry, without recursion.
    values = " ".join(map(str, range(1, 1001)))
    code, out, err = run(capsys, "member", "--class", f"Av([{values}])", "--perm", values)
    assert (code, out, err) == (0, "false\n", "")


def test_the_format_option_does_not_carry_over(capsys):
    argv = ("member", "--class", "Ik(2)", "--perm", "321")
    code, out, _ = run(capsys, "--format", "json", *argv)
    assert code == 0 and json.loads(out) == {"class": "Ik(2)", "member": False, "perm": [3, 2, 1]}
    assert run(capsys, *argv) == (0, "false\n", "")


def test_the_env_cap_does_not_carry_over(capsys, monkeypatch):
    monkeypatch.setenv("PERMCLASS_MAX_N", "3")
    code, out, err = run(capsys, "count", "--class", "I", "--max-n", "5")
    assert (code, out) == (3, "") and "cap" in err
    monkeypatch.delenv("PERMCLASS_MAX_N")
    assert run(capsys, "count", "--class", "I", "--max-n", "5") == (
        0, "1\t1\n2\t1\n3\t1\n4\t1\n5\t1\n", ""
    )


def test_help_twice_prints_the_same(capsys):
    first = run(capsys, "--help")
    assert first[0] == 0 and first[1].startswith("usage: permclass")
    assert run(capsys, "--help") == first


def test_dispatches_build_the_parser_once(capsys, monkeypatch):
    assert _build_parser() is _build_parser()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "member", "--class", "I", "--perm", "12")[0] == 0
    assert run(capsys, "count", "--class", "I", "--max-n", "2")[0] == 0
    assert built == []


# The suite's JSON contract, byte for byte: `--format json suite --names all`
# at --max-n 4 and under PERMCLASS_MAX_N=3 (keys sorted, no timings, one
# trailing newline).
SUITE_ALL_MAX_N_4 = (
    '{"results":['
    '{"counterexamples":[],"name":"fact-basic-equiv","parameters":{"k":[2,3],"max_n":4},"status":"pass"},'
    '{"counterexamples":[],"name":"lemma-kl","parameters":{"k,l":"2,3 pairs","max_n":4},"status":"pass"},'
    '{"counterexamples":[],"name":"lemma-extrakl","parameters":{"max_n":4},"status":"pass"},'
    '{"counterexamples":[],"name":"lemma-basicsym","parameters":{"corpus":["Ik(2)","Lk(2)","Av(321)","Hk(2)","Vk(2)","F2"],"max_n":4},"status":"pass"},'
    '{"counterexamples":[],"name":"lemma-VH-invert","parameters":{"max_n":4},"status":"pass"},'
    '{"counterexamples":[],"name":"lemma-behaviour-H","parameters":{"max_n":4,"variant":"H"},"status":"pass"},'
    '{"counterexamples":[],"name":"lemma-behaviour-V","parameters":{"max_n":4,"variant":"V"},"status":"pass"},'
    '{"counterexamples":[],"name":"lemma-behaviour-I","parameters":{"max_n":4,"variant":"I"},"status":"pass"},'
    '{"counterexamples":[],"name":"lemma-important","parameters":{"max_n":4},"status":"pass"},'
    '{"counterexamples":[],"name":"thm-Ik-VkHk","parameters":{"k":[2,3],"max_n":4},"status":"pass"},'
    '{"counterexamples":[],"name":"thm-k+l-1","parameters":{"max_n":4,"pairs":[[2,2],[2,3],[3,2]]},"status":"pass"},'
    '{"counterexamples":["m=4: no counterexample found up to order 4"],"name":"search-m-2-2","parameters":{"k":2,"l":2,"max_n":4},"status":"pass"},'
    '{"counterexamples":[],"name":"thm-L4","parameters":{"k":4,"max_n":4},"status":"pass"},'
    '{"counterexamples":[],"name":"thm-L4-k5","parameters":{"k":5,"max_n":4},"status":"pass"},'
    '{"counterexamples":[],"name":"lemma-L2-group","parameters":{"max_n":4},"status":"pass"},'
    '{"counterexamples":[],"name":"count-L2","parameters":{"max_n":4},"status":"pass"},'
    '{"counterexamples":[],"name":"count-F2","parameters":{"max_n":4},"status":"pass"},'
    '{"counterexamples":[],"name":"thm52-111","parameters":{"alpha":"1","beta_len":1,"gamma":"1","max_n":4},"status":"pass"},'
    '{"counterexamples":[],"name":"thm52-21-1-21","parameters":{"alpha":"21","beta_len":1,"gamma":"21","max_n":4},"status":"pass"},'
    '{"counterexamples":[],"name":"basis-H-size3","parameters":{"max_len":4},"status":"pass"},'
    '{"counterexamples":[],"name":"lemma-blocks","parameters":{"max_n":4},"status":"pass"},'
    '{"counterexamples":[],"name":"close-N-sigma","parameters":{"max_n":4,"thresholds":[2,3]},"status":"pass"},'
    '{"counterexamples":[],"name":"thm-L-gamma-far","parameters":{"c":1,"l":1,"order":8},"status":"pass"},'
    '{"counterexamples":[],"name":"prop-VH-blockbound","parameters":{"eta_length":5,"max_n":4},"status":"pass"}'
    ']}\n'
)
SUITE_ALL_ENV_CAP_3 = (
    '{"results":['
    '{"counterexamples":[],"name":"fact-basic-equiv","parameters":{"k":[2,3],"max_n":3},"status":"pass"},'
    '{"counterexamples":[],"name":"lemma-kl","parameters":{"k,l":"2,3 pairs","max_n":3},"status":"pass"},'
    '{"counterexamples":[],"name":"lemma-extrakl","parameters":{"max_n":3},"status":"pass"},'
    '{"counterexamples":[],"name":"lemma-basicsym","parameters":{"corpus":["Ik(2)","Lk(2)","Av(321)","Hk(2)","Vk(2)","F2"],"max_n":3},"status":"pass"},'
    '{"counterexamples":[],"name":"lemma-VH-invert","parameters":{"max_n":3},"status":"pass"},'
    '{"counterexamples":[],"name":"lemma-behaviour-H","parameters":{"max_n":3,"variant":"H"},"status":"pass"},'
    '{"counterexamples":[],"name":"lemma-behaviour-V","parameters":{"max_n":3,"variant":"V"},"status":"pass"},'
    '{"counterexamples":[],"name":"lemma-behaviour-I","parameters":{"max_n":3,"variant":"I"},"status":"pass"},'
    '{"counterexamples":[],"name":"lemma-important","parameters":{"max_n":3},"status":"pass"},'
    '{"counterexamples":[],"name":"thm-Ik-VkHk","parameters":{"k":[2,3],"max_n":3},"status":"pass"},'
    '{"counterexamples":[],"name":"thm-k+l-1","parameters":{"max_n":3,"pairs":[[2,2],[2,3],[3,2]]},"status":"pass"},'
    '{"counterexamples":["m=4: no counterexample found up to order 3"],"name":"search-m-2-2","parameters":{"k":2,"l":2,"max_n":3},"status":"pass"},'
    '{"counterexamples":[],"name":"thm-L4","parameters":{"k":4,"max_n":3},"status":"pass"},'
    '{"counterexamples":[],"name":"thm-L4-k5","parameters":{"k":5,"max_n":3},"status":"pass"},'
    '{"counterexamples":[],"name":"lemma-L2-group","parameters":{"max_n":3},"status":"pass"},'
    '{"counterexamples":[],"name":"count-L2","parameters":{"max_n":3},"status":"pass"},'
    '{"counterexamples":[],"name":"count-F2","parameters":{"max_n":3},"status":"pass"},'
    '{"counterexamples":[],"name":"thm52-111","parameters":{"alpha":"1","beta_len":1,"gamma":"1","max_n":3},"status":"pass"},'
    '{"counterexamples":[],"name":"thm52-21-1-21","parameters":{"alpha":"21","beta_len":1,"gamma":"21","max_n":3},"status":"pass"},'
    '{"counterexamples":[],"name":"basis-H-size3","parameters":{"max_len":3},"status":"pass"},'
    '{"counterexamples":[],"name":"lemma-blocks","parameters":{"max_n":3},"status":"pass"},'
    '{"counterexamples":[],"name":"close-N-sigma","parameters":{"max_n":3,"thresholds":[2,3]},"status":"pass"},'
    '{"counterexamples":[],"name":"thm-L-gamma-far","parameters":{"c":1,"l":1,"order":8},"status":"pass"},'
    '{"counterexamples":[],"name":"prop-VH-blockbound","parameters":{"eta_length":5,"max_n":3},"status":"pass"}'
    ']}\n'
)


def test_suite_json_contract_is_byte_stable(capsys, monkeypatch):
    assert run(capsys, "--format", "json", "suite", "--names", "all", "--max-n", "4") == (
        0, SUITE_ALL_MAX_N_4, ""
    )
    monkeypatch.setenv("PERMCLASS_MAX_N", "3")
    assert run(capsys, "--format", "json", "suite", "--names", "all") == (
        0, SUITE_ALL_ENV_CAP_3, ""
    )
