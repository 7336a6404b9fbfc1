import pytest

from hopfchrom.compositions import (Flag, IntComposition, alpha_of_subset,
                                    compositions_of, refines, subset_of_alpha)
from hopfchrom.errors import DomainError
from hopfchrom.groups import Permutation
from label_reference import (SetComposition, act, act_flag,
                             enumerate_set_compositions, type_of)


def test_int_composition_basics():
    a = IntComposition((2, 1, 1))
    assert a.degree == 4
    assert a.length == 3
    assert str(a) == "2,1,1"
    assert IntComposition.parse("2,1,1") == a
    with pytest.raises(DomainError):
        IntComposition((2, 0, 1))


def test_subset_bijection_round_trip():
    for d in range(1, 7):
        for alpha in compositions_of(d):
            assert alpha_of_subset(subset_of_alpha(alpha), d) == alpha
    assert subset_of_alpha(IntComposition((2, 2))) == frozenset({2})
    assert subset_of_alpha(IntComposition((1, 2, 1))) == frozenset({1, 3})


def test_compositions_count():
    # 2^(d-1) compositions of d
    assert [len(compositions_of(d)) for d in range(1, 7)] == [1, 2, 4, 8, 16, 32]


def test_refines():
    a = IntComposition((4,))
    b = IntComposition((2, 2))
    c = IntComposition((1, 1, 2))
    assert refines(a, b) and refines(b, c) and refines(a, c)
    assert not refines(c, b)
    assert refines(a, a)
    # (2,2) and (1,3) are incomparable
    assert not refines(b, IntComposition((1, 3)))
    assert not refines(IntComposition((1, 3)), b)
    with pytest.raises(DomainError):
        refines(a, IntComposition((3,)))


def test_set_composition_parse_and_str():
    c = SetComposition.parse("a,c|b,d")
    assert c.blocks == (("a", "c"), ("b", "d"))
    assert str(c) == "a,c|b,d"
    assert c.ground == ("a", "b", "c", "d")
    assert type_of(c) == IntComposition((2, 2))
    with pytest.raises(DomainError):
        SetComposition.parse("a,b|b,c")


def test_enumerate_set_compositions_counts():
    # ordered Bell numbers
    assert len(enumerate_set_compositions(("a",))) == 1
    assert len(enumerate_set_compositions(("a", "b"))) == 3
    assert len(enumerate_set_compositions(("a", "b", "c"))) == 13
    assert len(enumerate_set_compositions(("a", "b", "c", "d"))) == 75


def test_enumeration_order_is_by_length_then_blocks():
    comps = enumerate_set_compositions(("a", "b"))
    assert [str(c) for c in comps] == ["a,b", "a|b", "b|a"]


def test_act_on_set_composition():
    g = Permutation.from_cycles("(a b)", ("a", "b", "c"))
    c = SetComposition.parse("a|b,c")
    assert act(g, c) == SetComposition.parse("b|a,c")


def test_flag_kappa_and_validation():
    ground = ("a", "b", "c", "d")
    f = Flag(ground, (("b",), ("d", "b")))
    assert f.chain == (("b",), ("b", "d"))
    assert f.kappa == (1, 2)
    assert str(f) == "{b}<{b,d}"
    assert str(Flag(ground, ())) == ""
    with pytest.raises(DomainError):
        Flag(ground, (("b", "d"), ("b",)))
    with pytest.raises(DomainError):
        Flag(ground, (ground,))


def test_act_flag():
    ground = ("a", "b", "c", "d")
    g = Permutation.from_cycles("(a c)(b d)", ground)
    f = Flag(ground, (("b",), ("b", "d")))
    assert act_flag(g, f) == Flag(ground, (("d",), ("b", "d")))
