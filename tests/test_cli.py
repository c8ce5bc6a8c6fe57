import json

import pytest

from permclass.algebra import basis_up_to, class_slice, count, member, slice_cache
from permclass.cli import cli_dispatch
from permclass.exprs import parse_class
from permclass.factor import decompose_vk_hk
from permclass.perms import from_text


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
    code, out, _ = run(capsys, "include", "--lhs", "I", "--rhs", "comp(I,I)", "--max-n", "5")
    assert code == 3
    assert "skipped" in out


def test_suite_subcommand(capsys):
    code, out, _ = run(capsys, "suite", "--names", "count-L2,basis-H-size3", "--max-n", "6")
    assert code == 0
    assert "count-L2: pass" in out and "basis-H-size3: pass" in out
    assert run(capsys, "suite", "--names", "no-such-check")[0] == 2


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
