from dataclasses import FrozenInstanceError

import pytest

from permclass.exprs import (
    MAX_NESTING,
    Av,
    ClassSyntaxError,
    Comp,
    Dec,
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
    canonical_render,
    parse_class,
    render,
)
from permclass.perms import Permutation, from_text


ROUNDTRIP = [
    "I",
    "D",
    "L",
    "F2",
    "All",
    "Ik(2)",
    "Dk(0)",
    "Lk(4)",
    "Vk(2)",
    "Hk(3)",
    "Av(321)",
    "Av(321,2413)",
    "comp(Ik(2),Ik(2))",
    "merge(I,D)",
    "V(I,D)",
    "H(Av(321))",
    "and(Ik(2),Av(2143))",
    "or(Lk(2),rev(Lk(2)))",
    "cpl(Hk(2))",
    "inv(V(I,I))",
    "comp(merge(I,D),merge(I,D))",
]


@pytest.mark.parametrize("text", ROUNDTRIP)
def test_render_parse_roundtrip(text):
    expr = parse_class(text)
    assert render(expr) == text
    assert parse_class(render(expr)) == expr


def test_parse_ignores_whitespace():
    assert parse_class(" comp( Ik( 2 ) , Av( 321 ) ) ") == Comp(
        (IncK(2), Av((from_text("321"),)))
    )


def test_long_perm_literal():
    expr = parse_class("Av([10 2 1 3 4 5 6 7 8 9])")
    assert expr == Av((Permutation([10, 2, 1, 3, 4, 5, 6, 7, 8, 9]),))
    assert render(expr) == "Av([10 2 1 3 4 5 6 7 8 9])"
    assert parse_class(render(expr)) == expr


def test_canonical_render_sorts_commutative_children():
    a = parse_class("merge(D,I)")
    b = parse_class("merge(I,D)")
    assert canonical_render(a) == canonical_render(b)
    # composition order matters, so comp children are not sorted
    assert canonical_render(parse_class("comp(D,I)")) != canonical_render(
        parse_class("comp(I,D)")
    )
    nested = parse_class("or(rev(Lk(2)),Lk(2))")
    assert canonical_render(nested) == canonical_render(parse_class("or(Lk(2),rev(Lk(2)))"))


@pytest.mark.parametrize(
    "text",
    [
        "Ik(",
        "Ik(2",
        "Ik()",
        "Lk(0)",
        "Vk(0)",
        "Hk(0)",
        "comp(I)",
        "merge(I)",
        "rev(I,D)",
        "rev()",
        "Av()",
        "Av(321,321)",
        "Av(331)",
        "Bogus",
        "Bogus(2)",
        "I extra",
        "",
        "Av([1 3])",
        "comp(I,D) )",
        "Ik(-2)",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ClassSyntaxError):
        parse_class(text)


def test_syntax_error_carries_position():
    with pytest.raises(ClassSyntaxError) as err:
        parse_class("comp(I,?)")
    assert err.value.pos == 7


def test_nesting_limit():
    def nested(depth):
        return "rev(" * (depth - 1) + "I" + ")" * (depth - 1)

    assert render(parse_class(nested(MAX_NESTING))) == nested(MAX_NESTING)
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(ClassSyntaxError, match="nested deeper"):
            parse_class(nested(depth))
    with pytest.raises(ClassSyntaxError):
        parse_class("comp(I," * MAX_NESTING + "I" + ")" * MAX_NESTING)


def test_node_validation():
    # One node of each kind, with its message.
    with pytest.raises(ValueError, match=r"^Ik requires k >= 0$"):
        IncK(-1)
    with pytest.raises(ValueError, match=r"^Lk requires k >= 1$"):
        LayeredK(0)
    with pytest.raises(ValueError, match=r"^comp requires at least 2 children$"):
        Comp((Inc(),))
    with pytest.raises(ValueError, match=r"^merge requires at least 2 children$"):
        Merge((Dec(),))
    with pytest.raises(ValueError, match=r"^V requires at least 1 children$"):
        Vert(())
    with pytest.raises(ValueError, match=r"^Av requires at least one pattern$"):
        Av(())
    with pytest.raises(ClassSyntaxError, match=r"^Lk requires k >= 1 \(at position 3\)$"):
        parse_class("Lk(0)")
    with pytest.raises(ClassSyntaxError, match=r"^comp requires at least 2 children \(at position 0\)$"):
        parse_class("comp(I)")
    with pytest.raises(ClassSyntaxError, match=r"^rev takes exactly one argument \(at position 5\)$"):
        parse_class("rev(I,D)")
    with pytest.raises(ClassSyntaxError, match=r"^unknown atom 'Bogus' \(at position 5\)$"):
        parse_class("Bogus")
    with pytest.raises(ClassSyntaxError, match=r"^unknown function 'Bogus' \(at position 0\)$"):
        parse_class("Bogus(I)")
    # valid edge shapes
    assert IncK(0).k == 0
    assert LayeredK(1).k == 1
    assert Vert((Inc(),)).children == (Inc(),)
    assert Horiz((Inc(),)).children == (Inc(),)


def test_expressions_hashable():
    seen = {parse_class(t) for t in ROUNDTRIP}
    assert len(seen) == len(ROUNDTRIP)
    assert parse_class("Ik(2)") in seen


def test_nodes_are_frozen():
    # The slice cache keys on a rendering cached on the node, so a node
    # must not change after it is built.
    node = IncK(2)
    with pytest.raises(FrozenInstanceError) as exc:
        node.k = 3
    assert str(exc.value) == "cannot assign to field 'k'"
    with pytest.raises(FrozenInstanceError) as exc:
        del node.k
    assert str(exc.value) == "cannot delete field 'k'"
    # The cached rendering, the slice-cache key, is not a field: the node's
    # own hooks guard it, and any other name, before and after it is cached.
    for _ in range(2):
        for name in ("_canonical", "anything"):
            with pytest.raises(FrozenInstanceError) as exc:
                setattr(node, name, "Ik(3)")
            assert str(exc.value) == f"cannot assign to field {name!r}"
            with pytest.raises(FrozenInstanceError) as exc:
                delattr(node, name)
            assert str(exc.value) == f"cannot delete field {name!r}"
        assert canonical_render(node) == "Ik(2)"
    assert node == IncK(2)
