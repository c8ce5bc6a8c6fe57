import itertools
import random
import time
import zlib
from functools import partial

import pytest

from permclass.algebra import MAX_ORDER, _part_tests, member
from permclass.exprs import Dec, Inc, parse_class
from permclass import structure
from permclass.perms import (
    EMPTY,
    Occurrence,
    all_perms,
    contains,
    decreasing,
    direct_sum,
    direct_sum_all,
    from_text,
    identity,
    pattern_of,
)
from permclass.structure import (
    Coloring,
    NotLayeredError,
    SplitContractError,
    gamma_pattern,
    horizontal_split,
    is_close,
    jv_split,
    layers,
    merge_split,
    min_blocks,
    normalize_short_layers,
    vertical_split,
)
from test_algebra import under_a_low_recursion_limit


def member_tests(*constraints):
    """One membership test per class expression, as the split searches take them."""
    return [partial(member, c) for c in constraints]


def test_layers_oracles():
    # A Permutation and the bytes of its values read alike.
    for text, lengths in [("2143", (2, 2)), ("13245", (1, 2, 1, 1)), ("321", (3,)), ("231", None)]:
        p = from_text(text)
        assert layers(p) == layers(bytes(p.values)) == lengths, text
    assert layers(EMPTY) == layers(b"") == ()


def test_layers_roundtrip():
    for n in range(0, 7):
        for p in all_perms(n):
            lengths = layers(p)
            assert layers(bytes(p.values)) == lengths
            if lengths is not None:
                assert direct_sum_all(decreasing(l) for l in lengths) == p


def test_min_blocks_oracles():
    assert min_blocks(from_text("2413")) == 4
    assert min_blocks(from_text("346512")) == 3
    assert min_blocks(from_text("123654")) == 2
    assert min_blocks(identity(5)) == 1
    assert min_blocks(EMPTY) == 0


def min_blocks_by_dp(p):
    """The least number of blocks by dynamic programming over every split:
    best[i] is the least count for the suffix from position i."""
    vals = p.values
    n = len(vals)

    def is_block(i, j):  # positions i..j inclusive
        steps = {b - a for a, b in zip(vals[i:j], vals[i + 1 : j + 1])}
        return steps <= {1} or steps <= {-1}

    best = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        best[i] = min(1 + best[j + 1] for j in range(i, n) if is_block(i, j))
    return best[0]


def test_min_blocks_matches_dp():
    for n in range(0, 8):
        for p in all_perms(n):
            assert min_blocks(p) == min_blocks_by_dp(p), p


def test_gamma_pattern():
    assert gamma_pattern(0) == from_text("21")
    assert gamma_pattern(1) == from_text("2143")
    assert gamma_pattern(2) == from_text("214365")
    with pytest.raises(ValueError):
        gamma_pattern(-1)


def test_normalize_short_layers():
    p = from_text("21354")  # layers 2,1,2
    assert normalize_short_layers(p, 2) == from_text("12345")
    q = from_text("3214")  # layers 3,1
    assert normalize_short_layers(q, 2) == from_text("3214")
    assert normalize_short_layers(q, 3) == from_text("1234")
    with pytest.raises(NotLayeredError):
        normalize_short_layers(from_text("231"), 2)


def test_is_close():
    assert is_close(from_text("2143"), from_text("1234"), 1, 0)
    assert not is_close(from_text("4321"), from_text("1234"), 1, 1)
    assert is_close(from_text("4321"), from_text("1234"), 1, 2)
    with pytest.raises(ValueError):
        is_close(from_text("21"), from_text("321"), 1, 0)


def test_coloring_search_oracle():
    assert merge_split(from_text("2143"), member_tests(Inc(), Inc())) == Coloring((1, 2, 1, 2))
    assert merge_split(from_text("321"), member_tests(Inc(), Inc())) is None
    assert merge_split(from_text("321"), member_tests(Inc(), Dec())) is not None


def test_coloring_search_prunes_with_predicates():
    calls = []

    def pred(q):
        calls.append(q)
        return len(q) <= 1

    assert merge_split(from_text("12"), [pred]) is None
    assert merge_split(from_text("12"), [pred, pred]) is not None


def unpruned_merge_split(p, tests):
    """merge_split as a plain backtracking search: every part, empty or not,
    is tried at every entry."""
    parts = [[] for _ in tests]
    assignment = []

    def extend(i):
        if i == len(p):
            return True
        for part, test in enumerate(tests):
            parts[part].append(p.values[i])
            if test(pattern_of(parts[part])):
                assignment.append(part + 1)
                if extend(i + 1):
                    return True
                assignment.pop()
            parts[part].pop()
        return False

    if all(test(EMPTY) for test in tests) and extend(0):
        return Coloring(tuple(assignment))
    return None


@pytest.mark.parametrize("text", [
    "merge(I,I)", "merge(I,I,I)", "merge(I,D,I)", "merge(Ik(2),I,Ik(2))",
    "merge(Av(21),Av(12),Av(21))",
])
def test_merge_split_tries_equal_empty_parts_once_with_the_same_colorings(text):
    tests = _part_tests(parse_class(text), MAX_ORDER, None)
    assert tests[0] is tests[-1]
    for n in range(7):
        for p in all_perms(n):
            assert merge_split(p, tests) == unpruned_merge_split(p, tests), (text, p)


def test_merge_split_tries_empty_parts_with_different_tests():
    # 312 lies in merge(I,D) only as (2,1,1): 3 starts the second empty part.
    tests = _part_tests(parse_class("merge(I,D)"), MAX_ORDER, None)
    assert tests[0] is not tests[1]
    assert merge_split(from_text("312"), tests) == Coloring((2, 1, 1))


def test_vertical_horizontal_split_oracles():
    two = member_tests(Inc(), Inc())
    assert vertical_split(from_text("2413"), two) == (2,)
    assert vertical_split(from_text("321"), two) is None
    assert horizontal_split(from_text("1324"), two) == (2,)
    assert horizontal_split(from_text("321"), two) is None
    # empty segments are allowed
    assert vertical_split(from_text("12"), two) == (0,)
    assert vertical_split(EMPTY, two) == (0,)


def _exhaustive_split(p, constraints, piece):
    """Reference: the first cut vector, in lexicographic order, whose pieces
    all lie in their classes."""
    for cuts in itertools.combinations_with_replacement(range(len(p) + 1), len(constraints) - 1):
        bounds = (0, *cuts, len(p))
        if all(
            member(c, piece(p, lo, hi)) for c, lo, hi in zip(constraints, bounds, bounds[1:])
        ):
            return bounds[1:-1]
    return None


def _segment(p, lo, hi):
    return pattern_of(p.values[lo:hi])


def _value_range(p, lo, hi):
    return pattern_of([v for v in p.values if lo < v <= hi])


def test_greedy_splits_match_exhaustive_search():
    constraint_lists = [
        ["I", "I"], ["D", "I"], ["I", "D", "I"], ["Av(321)", "D"], ["Lk(2)", "Ik(2)"],
        ["Av([ ])"], ["I", "Av([ ])"], ["Ik(0)", "D"], ["D", "Ik(0)", "I"], ["Vk(2)"],
    ]
    for texts in constraint_lists:
        constraints = [parse_class(t) for t in texts]
        tests = member_tests(*constraints)
        for n in range(0, 7):
            for p in all_perms(n):
                assert vertical_split(p, tests) == _exhaustive_split(
                    p, constraints, _segment
                ), (texts, str(p))
                assert horizontal_split(p, tests) == _exhaustive_split(
                    p, constraints, _value_range
                ), (texts, str(p))


def test_split_of_long_decreasing_is_fast():
    six = member_tests(parse_class("Av(321)")) * 6
    start = time.perf_counter()
    assert vertical_split(decreasing(40), six) is None
    assert horizontal_split(decreasing(40), six) is None
    assert member(parse_class("V(" + ",".join(["Av(321)"] * 6) + ")"), decreasing(40)) is False
    assert time.perf_counter() - start < 1.0


def test_jv_split_oracles():
    one = from_text("1")
    assert jv_split(from_text("213"), one, one, one) == ((2, 1), (3,))
    # the a-first search labels all of 321 as the left part
    assert jv_split(from_text("321"), one, one, one) == ((3, 2, 1), ())
    with pytest.raises(ValueError):
        jv_split(from_text("123"), one, one, one)


def _jv_split_recursive(p, alpha, beta, gamma):
    """The search as one recursive call per entry, 'a' tried before 'c': the
    reference for the greedy pass."""
    ab, bg = direct_sum(alpha, beta), direct_sum(beta, gamma)
    vals = p.values
    a_part, c_part = [], []

    def extend(i):
        if i == len(vals):
            return True
        v = vals[i]
        if all(cv > v for cv in c_part):
            a_part.append(v)
            if contains(pattern_of(a_part), ab) is None and extend(i + 1):
                return True
            a_part.pop()
        c_part.append(v)
        if contains(pattern_of(c_part), bg) is None and extend(i + 1):
            return True
        c_part.pop()
        return False

    if not extend(0):
        raise SplitContractError(f"no witness split for {p}")
    return tuple(a_part), tuple(c_part)


# (alpha, beta, gamma) cases, with beta of every shape up to order 3 but 123
# and 321, and some with alpha or gamma empty.
JV_CASES = [
    tuple(map(from_text, case))
    for case in (
        ("1", "1", "1"), ("21", "1", "21"), ("1", "21", "1"), ("1", "1", "21"),
        ("e", "12", "1"), ("1", "132", "e"), ("e", "231", "e"), ("21", "312", "e"),
    )
]


def _random_avoider(rng, n, whole):
    """A random avoider of whole of order n, grown one entry at a time: a
    random value at a random position when the result still avoids whole,
    else a new maximum at the front.  No direct sum of two or more non-empty
    parts starts with its maximum, so the front maximum is in no occurrence."""
    vals = []
    for m in range(1, n + 1):
        v, i = rng.randint(1, m), rng.randint(0, m - 1)
        grown = [u + (u >= v) for u in vals]
        grown.insert(i, v)
        vals = grown if contains(pattern_of(grown), whole) is None else [m] + vals
    return pattern_of(vals)


def test_jv_split_matches_the_recursive_search():
    # The greedy pass is the recursive search's first labelling: on a genuine
    # input that search never undoes a label.
    rng = random.Random(23)
    for alpha, beta, gamma in JV_CASES:
        whole = direct_sum(direct_sum(alpha, beta), gamma)
        avoiders = [p for n in range(0, 7) for p in all_perms(n) if contains(p, whole) is None]
        avoiders += [_random_avoider(rng, rng.randint(9, 40), whole) for _ in range(25)]
        for p in avoiders:
            want = _jv_split_recursive(p, alpha, beta, gamma)
            assert jv_split(p, alpha, beta, gamma) == want, (p, alpha, beta, gamma)


def test_jv_split_keeps_its_contract_under_an_arbitrary_oracle(monkeypatch):
    # A fixed, arbitrary avoidance test for the two parts stands in for
    # contains, so the pass also meets entries that fit neither part.  Each
    # input either splits into parts the oracle accepts (it rejects the empty
    # part, which the pass never asks about), with no a entry after and above
    # a c entry, or raises SplitContractError.
    real = structure.contains
    one = from_text("1")
    ab = bg = direct_sum(one, one)

    def arbitrary(host, pattern):
        if len(pattern) == 3:  # the precondition's 123
            return real(host, pattern)
        return Occurrence(()) if zlib.crc32(bytes(host.values)) % 7 == 0 else None

    monkeypatch.setattr(structure, "contains", arbitrary)
    outcomes = set()
    for n in range(0, 7):
        for p in all_perms(n):
            if real(p, from_text("123")) is not None:
                continue
            try:
                a_vals, c_vals = jv_split(p, one, one, one)
            except SplitContractError:
                outcomes.add("none")
                continue
            assert sorted(a_vals + c_vals) == sorted(p.values)
            assert not a_vals or arbitrary(pattern_of(a_vals), ab) is None
            assert not c_vals or arbitrary(pattern_of(c_vals), bg) is None
            pos = {v: i for i, v in enumerate(p.values)}
            assert all(pos[av] < pos[cv] or av < cv for av in a_vals for cv in c_vals), p
            outcomes.add("split")
    assert outcomes == {"none", "split"}


def test_merge_membership_backtracks_past_the_recursion_limit():
    # The search keeps its chosen parts on a list, so an order-300 input
    # needs no frame per entry.
    expr = parse_class("merge(I,D)")
    assert under_a_low_recursion_limit(lambda: member(expr, identity(300), 300))


def test_jv_split_runs_past_the_recursion_limit():
    # The pass is a loop, so an input longer than the recursion limit is
    # split all the same.
    one = from_text("1")
    got = under_a_low_recursion_limit(lambda: jv_split(decreasing(200), one, one, one))
    assert got == (tuple(range(200, 0, -1)), ())


def test_jv_split_certificate_everywhere():
    one = from_text("1")
    two_one = from_text("21")
    cases = [
        (one, one, one, from_text("123")),
        (two_one, one, two_one, from_text("21354")),
    ]
    for alpha, beta, gamma, whole in cases:
        ab = direct_sum(alpha, beta)
        bg = direct_sum(beta, gamma)
        for n in range(0, 6):
            for p in all_perms(n):
                if contains(p, whole) is not None:
                    continue
                a_vals, c_vals = jv_split(p, alpha, beta, gamma)
                assert sorted(a_vals + c_vals) == sorted(p.values)
                assert contains(pattern_of(a_vals), ab) is None
                assert contains(pattern_of(c_vals), bg) is None
                pos = {v: i for i, v in enumerate(p.values)}
                for av in a_vals:
                    for cv in c_vals:
                        assert pos[av] < pos[cv] or av < cv
