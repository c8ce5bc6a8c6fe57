import itertools

import pytest
from hypothesis import given, strategies as st

from permclass.perms import (
    EMPTY,
    Occurrence,
    Permutation,
    all_perms,
    complement,
    compose,
    compose_all,
    contains,
    decreasing,
    direct_sum,
    direct_sum_all,
    from_text,
    greedy_increasing_chains,
    identity,
    inverse,
    lds,
    lis,
    pattern_of,
    reverse,
    to_text,
    _neighbours,
)


def perm_strategy(max_n=7):
    return st.integers(0, max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(Permutation)
    )


def test_constructor_validates():
    with pytest.raises(ValueError):
        Permutation((1, 3))
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation((0, 1))


def test_call_is_one_based():
    p = from_text("312")
    assert p(1) == 3 and p(2) == 1 and p(3) == 2
    with pytest.raises(IndexError):
        p(0)
    with pytest.raises(IndexError):
        p(4)


def test_text_roundtrip():
    assert to_text(EMPTY) == "e"
    assert from_text("e") == EMPTY
    assert to_text(from_text("3127645")) == "3127645"
    long = Permutation([10, 2, 1, 3, 4, 5, 6, 7, 8, 9])
    assert to_text(long) == "10 2 1 3 4 5 6 7 8 9"
    assert from_text(to_text(long)) == long
    assert to_text(from_text("912345678")) == "912345678"
    # A permutation's values render as the permutation does.
    assert to_text([]) == "e" and to_text([3, 1, 2]) == "312"
    assert to_text(list(long.values)) == "10 2 1 3 4 5 6 7 8 9"
    with pytest.raises(ValueError):
        from_text("")
    with pytest.raises(ValueError):
        from_text("1a2")


def test_compose_oracle():
    # (3,2,1) after (2,1,3): value at i is p(q(i))
    assert compose(from_text("321"), from_text("213")) == from_text("231")
    assert compose_all([from_text("321"), from_text("213"), from_text("132")]) == compose(
        from_text("231"), from_text("132")
    )
    with pytest.raises(ValueError):
        compose(from_text("21"), from_text("321"))


def test_symmetry_oracles():
    p = from_text("14352")
    assert inverse(p) == from_text("15324")
    assert reverse(p) == from_text("25341")
    assert complement(p) == from_text("52314")


def test_sums():
    assert direct_sum(from_text("312"), from_text("4312")) == from_text("3127645")
    assert direct_sum_all([from_text("21"), from_text("1"), from_text("21")]) == from_text("21354")


def test_pattern_of():
    assert pattern_of([10, 3, 7]) == from_text("312")
    assert pattern_of([]) == EMPTY
    # Repeated values have no pattern; the constructor's check says so.
    with pytest.raises(ValueError, match=r"^not a permutation of 1\.\.3: \(2, 2, 3\)$"):
        pattern_of([3, 3, 5])


@given(perm_strategy())
def test_inverse_involution(p):
    assert inverse(inverse(p)) == p
    assert compose(p, inverse(p)) == identity(len(p))


@given(perm_strategy())
def test_reverse_complement_as_compositions(p):
    d = decreasing(len(p))
    assert reverse(p) == compose(p, d)
    assert complement(p) == compose(d, p)
    assert reverse(reverse(p)) == p
    assert complement(complement(p)) == p


@given(perm_strategy(9), perm_strategy(9))
def test_unvalidated_results_pass_validation(p, q):
    # compose, inverse, reverse, complement and pattern_of skip the constructor's check.
    n = max(len(p), len(q))
    p, q = (direct_sum(x, identity(n - len(x))) for x in (p, q))
    for r in (compose(p, q), inverse(p), reverse(p), complement(p), pattern_of([-v for v in p])):
        assert type(r.values) is tuple
        assert Permutation(r.values) == r and hash(Permutation(r.values)) == hash(r)


@given(perm_strategy(5), perm_strategy(5), perm_strategy(5))
def test_compose_associative(p, q, r):
    n = max(len(p), len(q), len(r))

    def pad(x):
        return direct_sum(x, identity(n - len(x)))

    p, q, r = pad(p), pad(q), pad(r)
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


def _contains_brute(host, pattern):
    m = len(pattern)
    for idx in itertools.combinations(range(len(host)), m):
        if pattern_of([host.values[i] for i in idx]) == pattern:
            return tuple(i + 1 for i in idx)
    return None


def test_contains_oracle():
    # lexicographically smallest occurrence of 213 in 143625
    occ = contains(from_text("143625"), from_text("213"))
    assert occ == Occurrence((2, 3, 4))
    assert contains(from_text("123"), from_text("21")) is None
    assert contains(from_text("1"), EMPTY) == Occurrence(())
    assert contains(from_text("123"), from_text("321")) is None


def test_contains_matches_brute_force():
    hosts = [from_text(t) for t in ("3127645", "143625", "246135", "54321")]
    patterns = [from_text(t) for t in ("1", "21", "213", "321", "2413")]
    for host in hosts:
        for pat in patterns:
            got = contains(host, pat)
            expected = _contains_brute(host, pat)
            if expected is None:
                assert got is None
            else:
                assert got.indices == expected


def _contains_prefix_scan(host, pattern):
    """Reference: the same search, each window rescanning the matched prefix."""
    m, n = len(pattern), len(host)
    pat, hv, chosen = pattern.values, host.values, []

    def extend(t, start):
        if t == m:
            return True
        lo = max((hv[chosen[s]] for s in range(t) if pat[s] < pat[t]), default=0)
        hi = min((hv[chosen[s]] for s in range(t) if pat[s] > pat[t]), default=n + 1)
        for j in range(start, n - (m - t) + 1):
            if lo < hv[j] < hi:
                chosen.append(j)
                if extend(t + 1, j + 1):
                    return True
                chosen.pop()
        return False

    return Occurrence(tuple(j + 1 for j in chosen)) if m <= n and extend(0, 0) else None


def _neighbours_by_rescan(pat):
    """Reference: each index rescans every earlier index."""
    out = []
    for t, v in enumerate(pat):
        below = [s for s in range(t) if pat[s] < v]
        above = [s for s in range(t) if pat[s] > v]
        out.append((
            max(below, key=pat.__getitem__) + 2 if below else 0,
            min(above, key=pat.__getitem__) + 2 if above else 1,
        ))
    return tuple(out)


def test_neighbours_match_the_rescan_on_small_patterns():
    for m in range(7):
        for pat in all_perms(m):
            assert _neighbours(pat.values) == _neighbours_by_rescan(pat.values), pat


@given(perm_strategy(40))
def test_neighbours_match_the_rescan_on_longer_patterns(pat):
    assert _neighbours(pat.values) == _neighbours_by_rescan(pat.values)


def test_contains_matches_the_prefix_scan_on_small_orders():
    patterns = [p for m in range(5) for p in all_perms(m)]
    for n in range(7):
        for host in all_perms(n):
            for pat in patterns:
                assert contains(host, pat) == _contains_prefix_scan(host, pat), (host, pat)


@given(st.permutations(range(1, 11)), st.integers(9, 10), perm_strategy(6))
def test_contains_matches_the_prefix_scan_on_larger_hosts(values, n, pat):
    host = pattern_of(values[:n])
    assert contains(host, pat) == _contains_prefix_scan(host, pat)


def test_occurrence_validates():
    with pytest.raises(ValueError):
        Occurrence((2, 2))


def test_lis_lds_oracles():
    assert lis(from_text("14352")) == 3
    assert lds(from_text("3127645")) == 3
    assert lis(EMPTY) == 0 and lds(EMPTY) == 0


def test_greedy_chains_cover_and_count():
    # exhaustively: the greedy partition uses exactly lds(p) chains
    for n in range(0, 7):
        for p in all_perms(n):
            chains = greedy_increasing_chains(p)
            assert len(chains) == lds(p)
            seen = sorted(i for ch in chains for i in ch)
            assert seen == list(range(1, n + 1))
            for ch in chains:
                vals = [p.values[i - 1] for i in ch]
                assert vals == sorted(vals)


def test_greedy_chains_example():
    assert greedy_increasing_chains(from_text("2143")) == [[1, 3], [2, 4]]


def test_all_perms_lexicographic():
    got = list(all_perms(3))
    assert got == sorted(got)
    assert len(got) == 6
    assert list(all_perms(0)) == [EMPTY]
