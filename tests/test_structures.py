from fractions import Fraction

import pytest

from hopfchrom import randgen
from hopfchrom.errors import DomainError
from hopfchrom.groups import Permutation
from hopfchrom.structures import (CharacterSpec, DoublePoset, Graph,
                                  Hypergraph, Matroid, MixedGraph,
                                  PointCollection, SimplicialComplex,
                                  SplittingMemo, automorphism_check,
                                  automorphisms, check_compatible,
                                  coloring_test, loday_associahedron,
                                  make_double_poset, make_poset)
from label_reference import SetComposition
from minor_reference import char_value, contract, restrict
from peel_reference import proper_composition, split_is_zero

ABCD = ("a", "b", "c", "d")


def _graph(*pairs):
    return Graph(ABCD, frozenset(frozenset(p) for p in pairs))


def _one(h, char, S, R=None):
    """SplittingMemo(h, char).one(R, S) on label sets; R defaults to the
    whole ground set, S = R asks for the minor at R itself."""
    bit = {x: 1 << i for i, x in enumerate(h.ground)}
    R = h.ground if R is None else R
    return SplittingMemo(h, char).one(sum(bit[x] for x in R), sum(bit[x] for x in S))


def test_graph_restrict_contract():
    g = _graph(("a", "b"), ("b", "c"), ("c", "d"))
    r = restrict(g, {"a", "b"})
    assert r.edges == frozenset({frozenset({"a", "b"})})
    c = contract(g, {"a", "b"})
    assert c.ground == ("c", "d")
    assert c.edges == frozenset({frozenset({"c", "d"})})
    # graphs never have a zero split
    assert not split_is_zero(g, frozenset({"a", "c"}))


def test_poset_validation_and_split():
    p = make_poset(ABCD, [("a", "b"), ("b", "c")])
    assert ("a", "c") in p.less  # transitive closure
    with pytest.raises(DomainError):
        make_poset(("a", "b"), [("a", "b"), ("b", "a")])
    # split is zero unless the subset is a down-closed ideal
    assert split_is_zero(p, frozenset({"b"}))
    assert not split_is_zero(p, frozenset({"a", "d"}))


def test_poset_characters():
    chain = make_poset(("a", "b"), [("a", "b")])
    assert char_value(chain, CharacterSpec("zeta")) == 1
    assert char_value(chain, CharacterSpec("chromatic")) == 0
    anti = make_poset(("a", "b"), [])
    assert char_value(anti, CharacterSpec("chromatic")) == 1
    # the same values from the mask calculus
    assert _one(chain, CharacterSpec("zeta"), "ab")
    assert not _one(chain, CharacterSpec("chromatic"), "ab")
    assert _one(chain, CharacterSpec("chromatic"), "a")
    assert _one(anti, CharacterSpec("chromatic"), "ab")


def test_matroid_validation():
    with pytest.raises(DomainError):
        Matroid(("a", "b"), frozenset())
    with pytest.raises(DomainError):
        Matroid(("a", "b", "c"),
                frozenset({frozenset({"a"}), frozenset({"b", "c"})}))
    u24 = Matroid(("0", "1", "2", "3"),
                  frozenset(frozenset(b) for b in
                            [("0", "1"), ("0", "2"), ("0", "3"),
                             ("1", "2"), ("1", "3"), ("2", "3")]))
    assert u24.rank == 2
    assert char_value(u24, CharacterSpec("chromatic")) == 0
    r = restrict(u24, {"0", "1"})
    assert char_value(r, CharacterSpec("chromatic")) == 1
    c = contract(u24, {"0"})
    assert c.rank == 1
    assert len(c.bases) == 3
    assert char_value(c, CharacterSpec("chromatic")) == 0
    assert char_value(restrict(c, {"1"}), CharacterSpec("chromatic")) == 1
    # the same values from the rank table: U(2,4) and U(1,3) have more
    # than one basis, U(2,2) and U(1,1) exactly one
    chrom = CharacterSpec("chromatic")
    assert not _one(u24, chrom, "0123")
    assert _one(u24, chrom, "01")
    assert not _one(u24, chrom, "123", R="123")
    assert _one(u24, chrom, "1", R="123")
    assert _one(u24, CharacterSpec("zeta"), "0123")


def test_mixed_graph_validation():
    with pytest.raises(DomainError):
        # directed cycle
        MixedGraph(("a", "b"), frozenset(), frozenset({("a", "b"), ("b", "a")}))
    m = MixedGraph(ABCD,
                   frozenset({frozenset({"b", "c"})}),
                   frozenset({("b", "a")}))
    # arc from outside into the subset kills the split
    assert split_is_zero(m, frozenset({"a"}))
    assert not split_is_zero(m, frozenset({"b"}))
    assert char_value(m, CharacterSpec("strong_mixed")) == 0
    assert char_value(restrict(m, {"a", "d"}), CharacterSpec("strong_mixed")) == 1
    # weak character tolerates arcs but not undirected edges
    assert char_value(restrict(m, {"a", "b"}), CharacterSpec("weak_mixed")) == 1
    assert char_value(restrict(m, {"b", "c"}), CharacterSpec("weak_mixed")) == 0
    # the same values from the mask calculus
    assert not _one(m, CharacterSpec("strong_mixed"), "abcd")
    assert _one(m, CharacterSpec("strong_mixed"), "ad")
    assert _one(m, CharacterSpec("weak_mixed"), "ab")
    assert not _one(m, CharacterSpec("weak_mixed"), "bc")


def test_double_poset():
    d = make_double_poset(ABCD,
                          [("a", "b"), ("a", "d"), ("c", "b"), ("c", "d")],
                          [("b", "c"), ("d", "a")])
    assert isinstance(d, DoublePoset)
    assert split_is_zero(d, frozenset({"b"}))
    assert not split_is_zero(d, frozenset({"a", "c"}))
    anti = restrict(d, {"a", "c"})
    assert char_value(anti, CharacterSpec("inversion_free")) == 1
    # a and d are comparable in order 1, so a pair block is not inversion free
    # unless order 2 agrees
    ad = restrict(d, {"a", "d"})
    assert char_value(ad, CharacterSpec("inversion_free")) == 0
    # the same values from the mask calculus
    assert _one(d, CharacterSpec("inversion_free"), "ac")
    assert not _one(d, CharacterSpec("inversion_free"), "ad")


def test_hypergraph_properness_is_direct():
    h = Hypergraph(ABCD, (("a", "b", "c"),))
    with pytest.raises(DomainError):
        restrict(h, {"a", "b"})
    ok = proper_composition(h, CharacterSpec("unique_local_max"),
                            SetComposition.parse("a,b|c|d"))
    assert ok
    bad = proper_composition(h, CharacterSpec("unique_local_max"),
                             SetComposition.parse("a|b,c|d"))
    assert not bad


def test_simplicial_complex_closure():
    s = SimplicialComplex(("a", "b", "c"), frozenset({frozenset({"a", "b"})}))
    assert frozenset({"a"}) in s.faces
    assert frozenset() in s.faces
    with pytest.raises(DomainError):
        SimplicialComplex(("a",), frozenset({frozenset({"x"})}))
    r = restrict(s, {"a", "c"})
    assert frozenset({"a", "c"}) not in r.faces
    # the edge {a,b} has two vertices, so the bound s=1 fails and s=2 holds
    assert char_value(s, CharacterSpec("dim_bound", s=1)) == 0
    assert char_value(s, CharacterSpec("dim_bound", s=2)) == 1
    full = SimplicialComplex(("a", "b", "c"), frozenset({frozenset({"a", "b", "c"})}))
    assert char_value(full, CharacterSpec("dim_bound", s=2)) == 0
    # the same values from the mask calculus
    assert not _one(s, CharacterSpec("dim_bound", s=1), "abc")
    assert _one(s, CharacterSpec("dim_bound", s=1), "ac")
    assert _one(s, CharacterSpec("dim_bound", s=2), "abc")
    assert not _one(full, CharacterSpec("dim_bound", s=2), "abc")
    assert _one(full, CharacterSpec("dim_bound", s=2), "bc")


def test_point_collection():
    pts = PointCollection(("x", "y"), ((Fraction(1), Fraction(0)),
                                       (Fraction(0), Fraction(1)),
                                       (Fraction(1), Fraction(0))))
    assert len(pts.points) == 2  # deduplicated
    with pytest.raises(DomainError):
        restrict(pts, {"x"})
    assert char_value(pts, CharacterSpec("vertex_generic")) == 0
    single = PointCollection(("x", "y"), ((Fraction(1), Fraction(1)),))
    assert char_value(single, CharacterSpec("vertex_generic")) == 1


def test_character_compatibility():
    g = _graph(("a", "b"))
    check_compatible(g, CharacterSpec("chromatic"))
    with pytest.raises(DomainError):
        check_compatible(g, CharacterSpec("strong_mixed"))
    with pytest.raises(DomainError):
        check_compatible(g, CharacterSpec("dim_bound", s=1))


def test_character_spec_parse():
    assert CharacterSpec.parse("zeta") == CharacterSpec("zeta")
    assert CharacterSpec.parse("dim_bound(2)") == CharacterSpec("dim_bound", s=2)
    assert CharacterSpec.parse({"name": "dim_bound", "s": 3}).s == 3
    with pytest.raises(DomainError):
        CharacterSpec.parse("no_such_character")


def test_proper_coloring_predicates():
    """coloring_test on color tuples, c[i] coloring the i-th sorted label."""
    proper = coloring_test(_graph(("a", "b")), CharacterSpec("chromatic"))
    assert proper((1, 2, 1, 1))
    assert not proper((1, 1, 2, 2))
    p = make_poset(("a", "b"), [("a", "b")])
    assert coloring_test(p, CharacterSpec("chromatic"))((1, 2))
    assert not coloring_test(p, CharacterSpec("chromatic"))((2, 1))
    assert coloring_test(p, CharacterSpec("zeta"))((1, 1))
    assert not coloring_test(p, CharacterSpec("zeta"))((2, 1))


def test_automorphism_check_and_enumeration():
    g = _graph(("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"))
    rot = Permutation.from_cycles("(a b d c)", ABCD)
    swap = Permutation.from_cycles("(a b)", ABCD)
    assert automorphism_check(g, rot)
    assert not automorphism_check(g, swap)
    auts = automorphisms(g)
    assert len(auts) == 8  # dihedral


def test_loday_associahedron():
    a3 = loday_associahedron(3)
    assert a3.ground == ("1", "2", "3")
    assert len(a3.points) == 8
    # all points sum to the same total
    totals = {sum(p) for p in a3.points}
    assert len(totals) == 1
    with pytest.raises(DomainError):
        loday_associahedron(0)


def test_randgen_characters_follow_the_character_table():
    """randgen.KIND_CHARACTERS is read off CHARACTER_KINDS; it equals the
    table it replaced, so every seeded corpus draws the same characters."""
    assert randgen.KIND_CHARACTERS == {
        "graph": ("zeta", "chromatic"),
        "poset": ("zeta", "chromatic"),
        "matroid": ("zeta", "chromatic"),
        "mixed_graph": ("zeta", "strong_mixed", "weak_mixed"),
        "double_poset": ("zeta", "inversion_free"),
        "hypergraph": ("unique_local_max",),
        "simplicial_complex": ("zeta", "dim_bound"),
        "gen_permutohedron": ("vertex_generic",),
    }
