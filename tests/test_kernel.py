"""Differential tests of the bitmask kernel in chromatic against the
independent references it replaced: the string-level proper_composition
over all set compositions, act on whole compositions, Fraction scoring
of point collections, and listing every proper composition to count psi
at every group element.  set_compositions turns the kernel's block masks
into the SetCompositions the references list."""

from fractions import Fraction
from itertools import combinations, product

import pytest

from hopfchrom import chromatic
from hopfchrom.chromatic import (coloring_oracle, fixed_qsym,
                                 proper_compositions, psi)
from hopfchrom.compositions import mask_labels
from hopfchrom.errors import ResourceCapError
from hopfchrom.groups import ClassFunction
from hopfchrom.randgen import GENERATORS, corpus
from hopfchrom.structures import (CharacterSpec, Graph, Matroid,
                                  PointCollection, _unique_argmax)
from label_reference import SetComposition, act, enumerate_set_compositions, type_of
from minor_reference import contract, restrict
from peel_reference import _points_proper, proper_composition
from test_groups import dihedral

CORPUS = corpus()
KINDS = sorted(GENERATORS)


def set_compositions(h, char, **kwargs):
    """proper_compositions as SetCompositions, sorted by length then blocks
    like enumerate_set_compositions."""
    labels = mask_labels(h.ground)
    comps = [SetComposition([labels[S] for S in c])
             for c in proper_compositions(h, char, **kwargs)]
    return sorted(comps, key=lambda c: (c.length, c.blocks))


def _reference(h, char):
    return [c for c in enumerate_set_compositions(h.ground)
            if proper_composition(h, char, c)]


@pytest.mark.parametrize("kind", KINDS)
def test_kernel_matches_reference(kind):
    cases = [(h, char) for _, h, char, _ in CORPUS if h.kind == kind]
    assert cases
    for h, char in cases:
        assert set_compositions(h, char) == _reference(h, char), (h, char)


@pytest.mark.parametrize("kind", KINDS)
def test_fixed_counts_match_act(kind):
    for _, h, char, group in CORPUS:
        if h.kind != kind:
            continue
        X = psi(h, char, group)
        propers = set_compositions(h, char)
        types = {type_of(c) for c in propers}
        assert set(X.coeffs) == types
        for alpha in types:
            by_element = {g: sum(1 for c in propers if type_of(c) == alpha and act(g, c) == c)
                          for g in group.elements}
            expected = ClassFunction.from_element_values(group, by_element)
            assert X.coefficient(alpha) == expected, (h, char, alpha)


def listed_psi(h, char, group):
    """The former psi route, the reference for the class-representative
    recursion: every proper composition listed, then counted at every
    group element by fixed_qsym, which also checks that the counts are
    constant on conjugacy classes."""
    return fixed_qsym(group, len(h.ground), (
        (tuple(S.bit_count() for S in c), (c,)) for c in proper_compositions(h, char)))


def cycle_graph(n):
    v = tuple("abcdefghi"[:n])
    return Graph(v, frozenset(frozenset({v[i], v[(i + 1) % n]}) for i in range(n)))


@pytest.mark.parametrize("kind", KINDS)
def test_psi_matches_listing_on_corpus(kind):
    cases = [(h, char, group) for _, h, char, group in CORPUS if h.kind == kind]
    for h, char, group in cases:
        assert psi(h, char, group) == listed_psi(h, char, group), (h, char)


@pytest.mark.parametrize("n, total", [(7, 23646), (8, 272918), (9, 3543630)])
def test_psi_matches_listing_on_cycles(n, total):
    """C_n under D_n with the chromatic character, up to the ground cap;
    C9 lists 3,543,630 compositions for the reference."""
    h, char, group = cycle_graph(n), CharacterSpec("chromatic"), dihedral(n)
    X = psi(h, char, group)
    assert sum(X.identity_slice().values()) == total
    assert X == listed_psi(h, char, group)


def _counting(monkeypatch, name):
    calls = []
    original = getattr(chromatic, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(chromatic, name, counted)
    return calls


@pytest.mark.parametrize("kind", KINDS)
def test_psi_lists_only_point_collections(monkeypatch, kind):
    """Splitting kinds and hypergraphs are counted without listing; point
    collections list once, since their rule scores whole compositions."""
    calls = _counting(monkeypatch, "proper_compositions")
    _, h, char, group = next(case for case in CORPUS if case[1].kind == kind)
    psi(h, char, group)
    assert len(calls) == (1 if kind == "gen_permutohedron" else 0)


@pytest.mark.parametrize("kind", KINDS)
def test_psi_cap_refuses_before_the_table(monkeypatch, kind):
    calls = _counting(monkeypatch, "_next_blocks")
    _, h, char, group = next(case for case in CORPUS
                             if case[1].kind == kind and len(case[1].ground) >= 3)
    with pytest.raises(ResourceCapError):
        psi(h, char, group, max_ground=len(h.ground) - 1)
    assert calls == []
    psi(h, char, group, max_ground=len(h.ground))
    assert calls == ["_next_blocks"]


# halves and thirds on a common hyperplane, with ties among them
FRACTIONAL_POINTS = (
    (Fraction(1, 2), Fraction(1, 2), 0, 0),
    (Fraction(1, 3), Fraction(2, 3), 0, 0),
    (0, 1, 0, 0),
    (Fraction(1, 2), 0, Fraction(1, 2), 0),
    (0, 0, Fraction(-1, 2), Fraction(3, 2)),
    (Fraction(1, 6), 0, 0, Fraction(5, 6)),
)


def test_point_scoring_with_fractional_coordinates():
    """Randgen points are integral, so the lcm scaling of
    PointCollection.integer_points, which the kernel's scored walk and
    the oracle read, is only exercised by coordinates like these."""
    h = PointCollection(("a", "b", "c", "d"), FRACTIONAL_POINTS)
    every = enumerate_set_compositions(h.ground)
    expected = [c for c in every if _points_proper(h, c)]
    assert 0 < len(expected) < len(every)
    assert set_compositions(h, "vertex_generic") == expected
    tuples = list(product(range(1, 4), repeat=4))
    colorings = [c for c in tuples if _unique_argmax(h.points, c)]
    assert 0 < len(colorings) < len(tuples)
    assert coloring_oracle(h, "vertex_generic", 3) == colorings


def _subsets(labels, sizes):
    return [set(c) for k in sizes for c in combinations(labels, k)]


def test_matroid_contraction_is_associative():
    """M/S1/S2 = M/(S1 | S2): the kernel contracts once by all placed
    labels where peeling contracts block by block.  And minors commute,
    contract(restrict(M/A, T), S) = restrict(M/(A | S), T - S), which lets
    the convexity walk name every minor by a pair of label masks.  The
    rank-table arguments in chromatic and check_balanced_convex state
    both; this checks them on the minor route of minor_reference."""
    ground = tuple("abcdefg")
    u37 = Matroid(ground, frozenset(frozenset(b) for b in combinations(ground, 3)))
    matroids = [h for _, h, _, _ in CORPUS if h.kind == "matroid"] + [u37]
    checked = commuted = 0
    for m in matroids:
        ground = m.ground
        for s1 in _subsets(ground, range(1, len(ground) - 1)):
            rest = [x for x in ground if x not in s1]
            for s2 in _subsets(rest, range(1, len(rest))):
                twice = contract(contract(m, s1), s2)
                once = contract(m, s1 | s2)
                assert twice.ground == once.ground
                assert twice.bases == once.bases, (m, s1, s2)
                checked += 1
        for A in _subsets(ground, range(len(ground))):
            minor = contract(m, A) if A else m
            for T in _subsets(minor.ground, range(2, len(minor.ground) + 1)):
                piece = restrict(minor, T)
                for S in _subsets(sorted(T), range(1, len(T))):
                    assert (contract(piece, S)
                            == restrict(contract(m, A | S), T - S)), (m, A, T, S)
                    commuted += 1
    assert checked and commuted
