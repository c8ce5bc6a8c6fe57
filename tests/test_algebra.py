import inspect
import sys

import pytest
from hypothesis import given, settings, strategies as st

from permclass import algebra
from permclass.algebra import (
    ClassSlice,
    ResourceLimitError,
    SliceCache,
    basis_up_to,
    class_slice,
    count,
    member,
    member_independent,
    slice_cache,
    _RULES,
)
from permclass.exprs import (
    And,
    ClassExpr,
    Comp,
    Cpl,
    Horiz,
    IncK,
    Inv,
    Merge,
    Or,
    Rev,
    Vert,
    canonical_render,
    parse_class,
    render,
)
from permclass.perms import (
    Permutation, all_perms, decreasing, from_text, identity, lds, lis, pattern_of,
)

CATALAN = [1, 2, 5, 14, 42, 132, 429]


def members_text(expr_text, n):
    return sorted(str(p) for p in class_slice(parse_class(expr_text), n))


def test_atom_slices():
    assert members_text("I", 3) == ["123"]
    assert members_text("D", 3) == ["321"]
    assert members_text("All", 3) == ["123", "132", "213", "231", "312", "321"]
    assert members_text("Lk(2)", 4) == ["1432", "2143", "3214", "4321"]
    assert members_text("Hk(2)", 3) == ["123", "132", "213", "231", "312"]


def test_ik2_is_catalan():
    # permutations coverable by 2 increasing subsequences avoid 321
    assert count(parse_class("Ik(2)"), 7) == CATALAN
    assert count(parse_class("Av(321)"), 7) == CATALAN


def test_vk2_count():
    # at most one descent: 2^n - n
    assert count(parse_class("Vk(2)"), 6) == [1, 2, 5, 12, 27, 58]
    # Hk(2) slices are the inverses, so counts agree
    assert count(parse_class("Hk(2)"), 6) == [1, 2, 5, 12, 27, 58]


def test_vk2_ik2_first_difference():
    for n in range(1, 4):
        assert members_text("Vk(2)", n) == members_text("Ik(2)", n)
    v4 = set(members_text("Vk(2)", 4))
    i4 = set(members_text("Ik(2)", 4))
    assert v4 < i4
    assert "2143" in i4 - v4


def test_fib_layered_slice():
    got = members_text("F2", 4)
    assert got == ["1234", "1243", "1324", "2134", "2143"]
    assert all(member(parse_class("F2"), from_text(t)) for t in got)


def test_comp_slice_oracle():
    assert members_text("comp(Lk(2),Lk(2))", 3) == ["123", "231", "312"]
    assert not member(parse_class("comp(Lk(2),Lk(2))"), from_text("321"))
    assert member(parse_class("comp(Lk(2),Lk(2))"), from_text("231"))


def brute_product(slices):
    """Reference product: every left-to-right composition of one member per slice."""
    acc = {p.values for p in slices[0]}
    for right in slices[1:]:
        acc = {tuple(p[j - 1] for j in q.values) for p in acc for q in right}
    return {Permutation(vals) for vals in acc}


def test_comp_slice_matches_brute_product():
    # Non-commuting factors, three factors and empty factors (Ik(0) is empty
    # from order 1 on, Av([ ]) at every order), against the reference product.
    cases = [
        "comp(Ik(2),Ik(2))", "comp(Ik(2),Vk(2))", "comp(Vk(2),Ik(2))", "comp(Av(231),Dk(2))",
        "comp(Dk(2),Av(231))", "comp(Ik(2),Vk(2),Hk(2))", "comp(Vk(2),Av(231),D)",
        "comp(Ik(0),I)", "comp(D,Ik(0))",
        "comp(Av([ ]),Ik(2))", "comp(Ik(2),Av([ ]),Vk(2))",
    ]
    cache = SliceCache()
    for text in cases:
        expr = parse_class(text)
        for n in range(0, 7):
            slices = [class_slice(c, n, cache=cache) for c in expr.children]
            assert set(class_slice(expr, n, cache=cache)) == brute_product(slices), (text, n)


def test_product_order_limit():
    # Products are built on byte strings: order 255 is the largest they hold.
    cache = SliceCache()
    assert set(class_slice(parse_class("comp(D,D,D)"), 255, 256, cache)) == {decreasing(255)}
    with pytest.raises(ResourceLimitError):
        class_slice(parse_class("comp(Ik(0),Ik(0))"), 256, 256, SliceCache())


def test_slice_order_limit():
    # Every slice holds byte strings: past order 255 none is built, whatever its node type.
    with pytest.raises(ResourceLimitError, match="^slice at order 256 exceeds the limit 255$"):
        class_slice(parse_class("I"), 256, 256, SliceCache())
    assert set(class_slice(parse_class("I"), 255, 256, SliceCache())) == {identity(255)}


def test_slice_membership_of_another_order_is_false():
    small = class_slice(parse_class("All"), 3)
    for p in (from_text("e"), from_text("21"), from_text("1234"), identity(300)):
        assert (p in small) is False
    assert from_text("213") in small


def test_slice_iterates_in_lexicographic_order_past_one_digit():
    members = list(class_slice(parse_class("Vk(2)"), 10))
    assert len(members) == 1014
    assert members == sorted(members, key=lambda p: p.values)


def test_slice_iteration_matches_wrapping_each_sorted_member():
    # Iteration wraps the sorted byte strings in one pass; each member must
    # equal a validated Permutation of the same values, in the same order.
    for text, n in (("Av(321)", 8), ("Vk(2)", 10), ("comp(Ik(2),Ik(2))", 6)):
        got = class_slice(parse_class(text), n)
        assert list(got) == [Permutation(tuple(b)) for b in sorted(got.members)], text


def test_high_order_growth_on_a_fresh_cache_does_not_recurse():
    # Growth builds the missing lower orders bottom up, so the stack depth
    # does not grow with the order.  Order 255, the largest a slice holds, is
    # past the interpreter's default recursion limit for a recursive build.
    assert len(class_slice(parse_class("Ik(0)"), 255, 255, SliceCache())) == 0
    got = class_slice(parse_class("comp(I,D)"), 255, 255, SliceCache())
    assert set(got) == {decreasing(255)}


def test_and_or_rev_cpl_inv_slices():
    both = parse_class("and(Ik(2),Dk(2))")
    assert set(class_slice(both, 3)) == (
        set(class_slice(parse_class("Ik(2)"), 3)) & set(class_slice(parse_class("Dk(2)"), 3))
    )
    either = parse_class("or(I,D)")
    assert members_text("or(I,D)", 3) == ["123", "321"]
    assert members_text("rev(I)", 4) == ["4321"]
    assert members_text("cpl(D)", 4) == ["1234"]
    assert members_text("inv(Vk(2))", 3) == members_text("Hk(2)", 3)
    # Av(231) is not closed under reverse-complement, so each map gives another class.
    assert members_text("rev(Av(231))", 5) == members_text("Av(132)", 5)
    assert members_text("cpl(Av(231))", 5) == members_text("Av(213)", 5)
    assert members_text("inv(Av(231))", 5) == members_text("Av(312)", 5)
    assert either is not both


def test_empty_order_slices():
    for text in ("I", "Ik(2)", "Av(321)", "comp(I,D)", "merge(I,D)", "L"):
        assert len(class_slice(parse_class(text), 0)) == 1
    # Ik(0) and Dk(0) hold only the empty permutation
    for text in ("Ik(0)", "Dk(0)"):
        assert len(class_slice(parse_class(text), 0)) == 1
        assert count(parse_class(text), 9) == [0] * 9, text


@pytest.mark.parametrize("text", ["merge(Av([ ]),I)", "V(Av([ ]),I)", "H(Av([ ]),I)"])
def test_a_split_with_an_empty_class_child_is_empty(text):
    # Av([ ]) holds no permutation, not even e, so no split can fill that part.
    expr = parse_class(text)
    assert not member(expr, from_text("e")) and not member(expr, from_text("1"))
    assert count(expr, 3) == [0, 0, 0]


EVERY_NODE_TYPE = [
    "I", "D", "L", "F2", "All", "Ik(0)", "Ik(2)", "Dk(2)", "Lk(3)", "Vk(2)", "Hk(3)",
    "Av(321,2413)", "Av([ ])", "V(I,D)", "H(I,I)", "V(comp(Lk(2),Lk(2)),I)",
    "H(D,comp(Ik(2),D))", "merge(I,D)", "merge(Lk(2),Vk(2))", "comp(Ik(2),D)",
    "and(Ik(2),Av(2143))", "or(Lk(2),Vk(2))", "rev(Lk(2))", "cpl(Hk(2))", "inv(Vk(2))",
]


def node_types(expr):
    """The node types occurring in an expression tree."""
    children = getattr(expr, "children", ()) + ((expr.child,) if hasattr(expr, "child") else ())
    return {type(expr)}.union(*map(node_types, children))


def leaf_subclasses(t):
    """The subclasses of t, at any depth, that have none of their own."""
    subs = t.__subclasses__()
    return set().union(*map(leaf_subclasses, subs)) if subs else {t}


def test_every_node_type_has_one_rule_and_a_test_expression():
    node_classes = leaf_subclasses(ClassExpr)
    assert len(node_classes) == 20
    assert set(_RULES) == node_classes
    assert set().union(*(node_types(parse_class(t)) for t in EVERY_NODE_TYPE)) == node_classes


def test_member_matches_slice_exhaustively():
    # Growth (and the derivations of comp/and/or/rev/cpl/inv) against filtering
    # S_n by member, for every node type, all through one shared cache.
    cache = SliceCache()
    for text in EVERY_NODE_TYPE:
        expr = parse_class(text)
        for n in range(0, 7):
            slice_members = set(class_slice(expr, n, cache=cache))
            filtered = {p for p in all_perms(n) if member(expr, p, cache=cache)}
            assert slice_members == filtered, (text, n)


COMMUTATIVE = {Merge: "merge", And: "and", Or: "or"}
ORDERED = {Comp: "comp", Vert: "V", Horiz: "H"}
UNARY = {Rev: "rev", Cpl: "cpl", Inv: "inv"}


def uncached_canonical(expr):
    """Reference canonical text, recomputed from the leaves on every call."""
    t = type(expr)
    if t in COMMUTATIVE:
        return COMMUTATIVE[t] + "(" + ",".join(sorted(map(uncached_canonical, expr.children))) + ")"
    if t in ORDERED:
        return ORDERED[t] + "(" + ",".join(map(uncached_canonical, expr.children)) + ")"
    if t in UNARY:
        return UNARY[t] + "(" + uncached_canonical(expr.child) + ")"
    return render(expr)


def test_canonical_render_is_cached_per_node_without_changing_it():
    for text in EVERY_NODE_TYPE + ["and(or(Vk(2),Lk(2)),merge(D,I),rev(or(D,I)))"]:
        expr, twin = parse_class(text), parse_class(text)
        before = (repr(expr), hash(expr))
        assert canonical_render(expr) == uncached_canonical(expr), text
        assert canonical_render(expr) == canonical_render(expr)
        assert (repr(expr), hash(expr)) == before == (repr(twin), hash(twin))
        assert expr == twin and twin == expr


def test_member_independent_agrees_on_compositions():
    expr = parse_class("comp(Ik(2),Ik(2))")
    for n in range(0, 5):
        for p in all_perms(n):
            assert member_independent(expr, p) == member(expr, p)
    # Past two factors, with a product in first place and empty factors.  The
    # first five classes are the same under p o q for p o q^-1 up to order 5;
    # the last three are not, as Av(231) and Vk(2) are not closed under
    # inverse, and comp(I,D,Av(231)) changes when its last two factors swap.
    for text in (
        "comp(Ik(2),Vk(2),Hk(2))",
        "comp(Vk(2),Av(231),D)",
        "comp(comp(I,D),Ik(2))",
        "comp(Ik(2),Av([ ]),Vk(2))",
        "comp(Ik(0),I)",
        "comp(I,D,Av(231))",
        "comp(I,Vk(2),D)",
        "comp(comp(D,I),Av(231))",
    ):
        expr = parse_class(text)
        for n in range(0, 6):
            for p in all_perms(n):
                want = member(expr, p, cache=SliceCache())
                assert member_independent(expr, p) == want, (text, str(p))


def under_a_low_recursion_limit(call):
    """call() with the recursion limit 100 frames above the current depth, so
    a recursion once per factor or per entry of a 300-long input fails."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        return call()
    finally:
        sys.setrecursionlimit(limit)


# A product of 300 factors: its slices are small, its width is not.
WIDE_PRODUCT = "comp(" + ",".join(["I"] * 300) + ")"


def test_a_wide_product_is_folded_without_recursion():
    expr = parse_class(WIDE_PRODUCT)
    assert under_a_low_recursion_limit(lambda: member(expr, identity(5), cache=SliceCache()))
    assert not under_a_low_recursion_limit(lambda: member(expr, from_text("21"), cache=SliceCache()))


def test_counting_a_wide_product_runs_without_recursion():
    expr = parse_class(WIDE_PRODUCT)
    slice_cache().clear()
    try:
        assert under_a_low_recursion_limit(lambda: count(expr, 3)) == [1, 1, 1]
    finally:
        slice_cache().clear()


def test_member_independent_searches_a_wide_product_without_recursion():
    expr = parse_class(WIDE_PRODUCT)
    assert under_a_low_recursion_limit(lambda: member_independent(expr, identity(5)))
    assert not under_a_low_recursion_limit(lambda: member_independent(expr, from_text("21")))


def test_member_independent_ignores_global_cache_in_splits():
    # Plant empty comp(I,I) slices in the process-wide cache: member then
    # rejects 123 in each class below, while the cache-free path does not.
    slice_cache().clear()
    try:
        for n in (1, 2, 3):
            slice_cache().get_or_compute(("comp(I,I)", n), lambda: ClassSlice(n, frozenset()))
        for text in ("V(comp(I,I))", "H(comp(I,I))", "merge(comp(I,I),D)"):
            expr = parse_class(text)
            assert member(expr, from_text("123")) is False, text
            assert member_independent(expr, from_text("123")) is True, text
            assert member(expr, from_text("123"), cache=SliceCache()) is True, text
    finally:
        slice_cache().clear()


def test_downward_closure_of_slices():
    # every one-element deletion of a member is a member
    exprs = ["Ik(2)", "Lk(3)", "Hk(2)", "Av(321)", "merge(I,D)", "comp(Ik(2),Ik(2))"]
    for text in exprs:
        expr = parse_class(text)
        for n in range(1, 5):
            for p in class_slice(expr, n):
                vals = p.values
                for i in range(n):
                    child = pattern_of(vals[:i] + vals[i + 1 :])
                    assert member(expr, child), (text, str(p), i)


def test_resource_caps():
    with pytest.raises(ResourceLimitError, match="^enumeration at order 4 exceeds cap 3$"):
        class_slice(parse_class("All"), 4, 3, SliceCache())
    with pytest.raises(ResourceLimitError, match="^enumeration at order 4 exceeds cap 3$"):
        member(parse_class("comp(I,D)"), from_text("4321"), 3, SliceCache())
    with pytest.raises(ResourceLimitError, match="^merge membership at order 4 exceeds cap 3$"):
        member(parse_class("merge(I,D)"), from_text("4321"), 3, SliceCache())
    # non-search memberships are exact at any order
    assert member(parse_class("Ik(2)"), from_text("53412"), 3, SliceCache()) is False


def test_growth_past_the_candidate_limit_raises_before_any_candidate(monkeypatch):
    # All grows 2 candidates at order 2 and 6 at order 3.
    monkeypatch.setattr(algebra, "MAX_CANDIDATES", 5)
    asked = []
    monkeypatch.setattr(algebra, "member", lambda e, p, *args: asked.append(len(p)) or True)
    cache = SliceCache()
    refusal = "^order 3 needs 6 growth candidates, over the limit 5$"
    with pytest.raises(ResourceLimitError, match=refusal):
        class_slice(parse_class("All"), 3, cache=cache)
    assert ("All", 2) in cache and ("All", 3) not in cache
    assert asked == [0, 1, 2, 2]


def member_filtered_growth(expr, n, cache):
    """Reference growth: the children of the order-(n-1) slice that pass the
    largest-entry deletion test and that `member` accepts."""
    if n == 0:
        return {b""} if member(expr, Permutation(()), cache=cache) else set()
    prev = class_slice(expr, n - 1, cache=cache).members
    return {c for c in algebra._extensions(prev, n) if member(expr, Permutation(tuple(c)))}


def test_generating_tree_growth_matches_member_filtered_growth():
    # Ik(k) and Dk(k), and I and D through the k = 1 rows, grow by their
    # generating tree, asking member nothing;
    # each order must equal the member-filtered extensions of the one below.
    cases = [(f"{kind}({k})", 8) for kind in ("Ik", "Dk") for k in range(6)]
    cases += [("Ik(4)", 9), ("Dk(3)", 9), ("I", 9), ("D", 9)]
    for text, top in cases:
        expr, cache = parse_class(text), SliceCache()
        for n in range(top + 1):
            got = class_slice(expr, n, cache=cache).members
            assert got == member_filtered_growth(expr, n, cache), (text, n)


def test_generating_tree_growth_asks_member_only_about_the_empty_permutation(monkeypatch):
    asked = []
    real = algebra.member
    monkeypatch.setattr(
        algebra, "member", lambda e, p, *args: asked.append((render(e), len(p))) or real(e, p, *args)
    )
    cache = SliceCache()
    assert len(class_slice(parse_class("Ik(3)"), 7, cache=cache)) == 2761
    assert len(class_slice(parse_class("Dk(2)"), 7, cache=cache)) == 429
    assert len(class_slice(parse_class("I"), 7, cache=cache)) == 1
    assert len(class_slice(parse_class("D"), 7, cache=cache)) == 1
    assert asked == [("Ik(3)", 0), ("Dk(2)", 0), ("I", 0), ("D", 0)]


def test_generating_tree_growth_past_the_candidate_limit_raises_before_any_child(monkeypatch):
    # Ik(2) has 2 members at order 2, so order 3 needs 2 * 3 = 6 candidates,
    # counted as for member-filtered growth.
    monkeypatch.setattr(algebra, "MAX_CANDIDATES", 5)
    asked = []
    rule = _RULES[IncK]
    monkeypatch.setitem(
        _RULES, IncK, rule._replace(admits=lambda e, q: asked.append(len(q)) or rule.admits(e, q))
    )
    cache = SliceCache()
    refusal = "^order 3 needs 6 growth candidates, over the limit 5$"
    with pytest.raises(ResourceLimitError, match=refusal):
        class_slice(parse_class("Ik(2)"), 3, cache=cache)
    assert ("Ik(2)", 2) in cache and ("Ik(2)", 3) not in cache
    # Parents of orders 0 and 1 were extended; no order-2 parent was.
    assert asked == [0, 1]


LAYERED_ROWS = ["L", "F2"] + [f"Lk({k})" for k in range(1, 5)]


def test_layered_growth_matches_member_filtered_growth():
    # L, Lk(k) and F2 grow by their generating tree: a layered member has at
    # most two layered children, each kept when the row accepts its lengths.
    for text in LAYERED_ROWS:
        expr, cache = parse_class(text), SliceCache()
        for n in range(10):
            got = class_slice(expr, n, cache=cache).members
            assert got == member_filtered_growth(expr, n, cache), (text, n)


def test_layered_growth_asks_member_only_about_the_empty_permutation(monkeypatch):
    asked = []
    real = algebra.member
    monkeypatch.setattr(
        algebra, "member", lambda e, p, *args: asked.append((render(e), len(p))) or real(e, p, *args)
    )
    cache = SliceCache()
    assert len(class_slice(parse_class("F2"), 10, cache=cache)) == 89
    assert len(class_slice(parse_class("Lk(3)"), 10, cache=cache)) == 46
    assert asked == [("F2", 0), ("Lk(3)", 0)]


def test_layered_growth_past_the_candidate_limit_keeps_its_refusal(monkeypatch):
    # L has 2 members at order 2, so order 3 counts 2 * 3 = 6 candidates, as
    # member-filtered growth would, though each member has at most 2 children.
    monkeypatch.setattr(algebra, "MAX_CANDIDATES", 5)
    cache = SliceCache()
    refusal = "^order 3 needs 6 growth candidates, over the limit 5$"
    with pytest.raises(ResourceLimitError, match=refusal):
        class_slice(parse_class("L"), 3, cache=cache)
    assert ("L", 2) in cache and ("L", 3) not in cache


def test_basis_past_the_candidate_limit_is_refused_before_the_loop(monkeypatch):
    monkeypatch.setattr(algebra, "MAX_CANDIDATES", 5)
    asked = []
    monkeypatch.setattr(algebra, "member", lambda e, p, *args: asked.append(len(p)) or True)
    slice_cache().clear()
    with pytest.raises(ResourceLimitError, match="^order 3 needs 6 growth candidates"):
        basis_up_to(parse_class("All"), 3)
    # Only the growth to order 2 ran: the loop over lengths, which starts by
    # asking about the empty permutation, never began.
    assert asked == [0, 1, 2, 2]


def test_each_level_of_a_product_is_checked_against_the_pair_limit(monkeypatch):
    # Ik(2) has 14 members at order 4, and Ik(2)∘Ik(2) is all 24 of S_4.
    expr = parse_class("comp(Ik(2),Ik(2),Ik(2))")
    refusal = "^order 4 needs {} product pairs, over the limit {}$"
    monkeypatch.setattr(algebra, "MAX_PAIRS", 14 * 14 - 1)
    with pytest.raises(ResourceLimitError, match=refusal.format(196, 195)):
        class_slice(expr, 4, cache=SliceCache())
    monkeypatch.setattr(algebra, "MAX_PAIRS", 14 * 14)
    with pytest.raises(ResourceLimitError, match=refusal.format(336, 196)):
        class_slice(expr, 4, cache=SliceCache())
    monkeypatch.setattr(algebra, "MAX_PAIRS", 14 * 24)
    assert len(class_slice(expr, 4, cache=SliceCache())) == 24


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        class_slice(parse_class("I"), -1)


def test_basis_oracles():
    assert basis_up_to(parse_class("Ik(2)"), 5) == {from_text("321")}
    assert basis_up_to(parse_class("L"), 4) == {from_text("231"), from_text("312")}
    h2 = basis_up_to(parse_class("Hk(2)"), 6)
    assert h2 == {from_text("321"), from_text("2413"), from_text("2143")}


def filtered_basis(expr, max_len):
    """Reference basis: the non-members of S_n, n <= max_len, whose deletions are all members."""
    cache = SliceCache()
    is_member = {
        p: member(expr, p, cache=cache) for n in range(max_len + 1) for p in all_perms(n)
    }
    return {
        p
        for p, inside in is_member.items()
        if not inside
        and all(is_member[pattern_of(p.values[:i] + p.values[i + 1 :])] for i in range(len(p)))
    }


def test_basis_from_growth_matches_filtering_every_node_type():
    for text in EVERY_NODE_TYPE:
        expr = parse_class(text)
        assert basis_up_to(expr, 7) == filtered_basis(expr, 7), text
    assert basis_up_to(parse_class("I"), 0) == set()


def test_basis_length_past_the_enumeration_cap_is_refused_first():
    # Length n needs the order n-1 slice, which is asked for before any other.
    assert basis_up_to(parse_class("All"), 4, 3) == set()
    slice_cache().clear()
    with pytest.raises(ResourceLimitError):
        basis_up_to(parse_class("Ik(2)"), 5, 3)
    assert ("Ik(2)", 0) not in slice_cache()


def test_basis_elements_are_minimal_nonmembers():
    expr = parse_class("Lk(2)")
    for b in basis_up_to(expr, 5):
        assert not member(expr, b)
        vals = b.values
        for i in range(len(vals)):
            assert member(expr, pattern_of(vals[:i] + vals[i + 1 :]))


def test_slice_cache_compute_once():
    cache = SliceCache()
    calls = []

    def compute():
        calls.append(1)
        return class_slice(parse_class("I"), 3)

    key = ("probe", 3)
    first = cache.get_or_compute(key, compute)
    second = cache.get_or_compute(key, compute)
    assert first is second
    assert len(calls) == 1
    cache.clear()
    cache.get_or_compute(key, compute)
    assert len(calls) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
def test_incK_membership_is_lds_bound(vals):
    p = Permutation(vals)
    for k in range(0, 4):
        assert member(parse_class(f"Ik({k})"), p) == (lds(p) <= k)
        assert member(parse_class(f"Dk({k})"), p) == (lis(p) <= k)
