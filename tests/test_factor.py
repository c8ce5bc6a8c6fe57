import pytest

from permclass.algebra import class_slice, member
from permclass.exprs import HorizK, IncK, LayeredK, VertK, parse_class, render
from permclass.factor import (
    Factor,
    Factorization,
    FactorizationError,
    decompose_ik_il,
    decompose_l4,
    decompose_thm52,
    decompose_vk_hk,
)
from permclass.perms import from_text
from permclass.structure import NotLayeredError


def factor_perms(f):
    return [str(x.perm) for x in f.factors]


def test_factorization_verify_catches_bad_recompose():
    bad = Factorization(from_text("21"), (Factor(from_text("12"), VertK(2)),))
    with pytest.raises(FactorizationError):
        bad.verify()


def test_factorization_verify_catches_bad_membership():
    bad = Factorization(from_text("21"), (Factor(from_text("21"), parse_class("I")),))
    with pytest.raises(FactorizationError):
        bad.verify()


def test_vk_hk_oracle():
    f = decompose_vk_hk(from_text("2143"), 2)
    assert factor_perms(f) == ["2413", "1324"]
    assert [render(x.cls) for x in f.factors] == ["Vk(2)", "Hk(2)"]
    assert f.recompose() == from_text("2143")


def test_vk_hk_rejects_wide_permutations():
    with pytest.raises(ValueError):
        decompose_vk_hk(from_text("321"), 2)


def test_vk_hk_total_on_slices():
    for k in (2, 3):
        for n in range(0, 7):
            for p in class_slice(IncK(k), n):
                f = decompose_vk_hk(p, k)
                assert f.recompose() == p
                assert member(VertK(k), f.factors[0].perm)
                assert member(HorizK(k), f.factors[1].perm)


def test_ik_il_oracle():
    f = decompose_ik_il(from_text("321"), 2, 2)
    assert factor_perms(f) == ["312", "132"]
    assert f.recompose() == from_text("321")


def test_ik_il_total_on_slices():
    for k, l in ((2, 2), (2, 3), (3, 2)):
        for n in range(0, 7):
            for p in class_slice(IncK(k + l - 1), n):
                f = decompose_ik_il(p, k, l)
                assert f.recompose() == p
                assert member(IncK(k), f.factors[0].perm)
                assert member(IncK(l), f.factors[1].perm)


def test_ik_il_rejects_wide_permutations():
    with pytest.raises(ValueError):
        decompose_ik_il(from_text("4321"), 2, 2)


def test_l4_oracle():
    f = decompose_l4(from_text("1234"), 4)
    assert factor_perms(f) == ["2134", "2143", "1243"]
    g = decompose_l4(from_text("13245"), 4)
    assert factor_perms(g) == ["32145", "32154", "13254"]
    assert [render(x.cls) for x in g.factors] == ["Lk(3)", "Lk(2)", "Lk(3)"]


def test_l4_few_layers_pads_with_decreasing():
    f = decompose_l4(from_text("321"), 4)
    assert f.recompose() == from_text("321")
    assert factor_perms(f)[1:] == ["321", "321"]


def test_l4_total_on_slices():
    for k in (4, 5):
        for n in range(0, 9):
            for p in class_slice(LayeredK(k), n):
                f = decompose_l4(p, k)
                assert f.recompose() == p
                assert member(LayeredK(k - 1), f.factors[0].perm)
                assert member(LayeredK(k - 2), f.factors[1].perm)
                assert member(LayeredK(k - 1), f.factors[2].perm)


def test_l4_errors():
    with pytest.raises(ValueError):
        decompose_l4(from_text("1234"), 3)
    with pytest.raises(NotLayeredError):
        decompose_l4(from_text("2413"), 4)
    with pytest.raises(ValueError):
        decompose_l4(from_text("12345"), 4)  # five layers exceed k


def test_thm52_oracle():
    one = from_text("1")
    f = decompose_thm52(from_text("321"), one, 1, one)
    assert factor_perms(f)[0] == "321"
    assert f.recompose() == from_text("321")
    assert render(f.factors[1].cls) == "Hk(2)"
    # beta of length one drops the intersection on the left class
    assert render(f.factors[0].cls) == "V(Av(12),Av(12))"


def test_thm52_wider_beta_keeps_intersection():
    one = from_text("1")
    f = decompose_thm52(from_text("4321"), one, 2, one)
    assert "and(" in render(f.factors[0].cls)
    assert f.recompose() == from_text("4321")


def test_thm52_total_on_av123():
    one = from_text("1")
    for n in range(0, 6):
        for p in class_slice(parse_class("Av(123)"), n):
            f = decompose_thm52(p, one, 1, one)
            assert f.recompose() == p


def test_thm52_rejects_containing_permutation():
    one = from_text("1")
    with pytest.raises(ValueError):
        decompose_thm52(from_text("123"), one, 1, one)


def test_to_json_shapes():
    f = decompose_vk_hk(from_text("2143"), 2)
    payload = f.to_json()
    assert payload["target"] == [2, 1, 4, 3]
    assert payload["factors"][0] == {"perm": [2, 4, 1, 3], "class": "Vk(2)"}
