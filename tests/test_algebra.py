import pytest
from hypothesis import given, settings, strategies as st

from permclass import algebra
from permclass.algebra import (
    ClassSlice,
    Config,
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
    Inv,
    Merge,
    Or,
    Rev,
    Vert,
    canonical_render,
    parse_class,
    render,
)
from permclass.perms import Permutation, all_perms, decreasing, from_text, lds, lis, pattern_of

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
            slices = [class_slice(c, n, cache=cache).members for c in expr.children]
            assert class_slice(expr, n, cache=cache).members == brute_product(slices), (text, n)


def test_product_order_limit():
    # Products are built on byte strings: order 255 is the largest they hold.
    config = Config(max_order=256)
    cache = SliceCache()
    assert set(class_slice(parse_class("comp(D,D,D)"), 255, config, cache)) == {decreasing(255)}
    with pytest.raises(ResourceLimitError):
        class_slice(parse_class("comp(Ik(0),Ik(0))"), 256, config, SliceCache())


def test_high_order_growth_on_a_fresh_cache_does_not_recurse():
    # Growth builds the missing lower orders bottom up, so the stack depth
    # does not grow with the order.
    config = Config(max_order=256)
    assert len(class_slice(parse_class("Ik(0)"), 256, config, SliceCache())) == 0
    got = class_slice(parse_class("comp(I,D)"), 255, config, SliceCache())
    assert set(got) == {decreasing(255)}


def test_and_or_rev_cpl_inv_slices():
    both = parse_class("and(Ik(2),Dk(2))")
    assert class_slice(both, 3).members == (
        class_slice(parse_class("Ik(2)"), 3).members
        & class_slice(parse_class("Dk(2)"), 3).members
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
    # Ik(0) holds only the empty permutation
    assert len(class_slice(parse_class("Ik(0)"), 0)) == 1
    assert len(class_slice(parse_class("Ik(0)"), 1)) == 0


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


def test_every_node_type_has_one_rule_and_a_test_expression():
    node_classes = set(ClassExpr.__subclasses__())
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
            slice_members = class_slice(expr, n, cache=cache).members
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


def test_member_independent_ignores_global_cache_in_splits():
    # Plant empty comp(I,I) slices in the process-wide cache: member then
    # rejects 123 in each class below, while the cache-free path does not.
    comp = parse_class("comp(I,I)")
    slice_cache().clear()
    try:
        for n in (1, 2, 3):
            slice_cache().get_or_compute(("comp(I,I)", n), lambda: ClassSlice(comp, n, frozenset()))
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
    small = Config(max_order=3)
    with pytest.raises(ResourceLimitError, match="^enumeration at order 4 exceeds cap 3$"):
        class_slice(parse_class("All"), 4, small, SliceCache())
    with pytest.raises(ResourceLimitError, match="^enumeration at order 4 exceeds cap 3$"):
        member(parse_class("comp(I,D)"), from_text("4321"), small, SliceCache())
    with pytest.raises(ResourceLimitError, match="^merge membership at order 4 exceeds cap 3$"):
        member(parse_class("merge(I,D)"), from_text("4321"), small, SliceCache())
    # non-search memberships are exact at any order
    assert member(parse_class("Ik(2)"), from_text("53412"), small, SliceCache()) is False


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
    small = Config(max_order=3)
    assert basis_up_to(parse_class("All"), 4, small) == set()
    slice_cache().clear()
    with pytest.raises(ResourceLimitError):
        basis_up_to(parse_class("Ik(2)"), 5, small)
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
