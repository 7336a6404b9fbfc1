"""Differential tests of the bitmask kernel in chromatic against the
independent references it replaced: the string-level proper_composition
over all set compositions, act on whole compositions, and Fraction
scoring of point collections.  set_compositions turns the kernel's block
masks into the SetCompositions the references list."""

from fractions import Fraction
from itertools import combinations

import pytest

from hopfchrom.chromatic import proper_compositions, psi
from hopfchrom.compositions import (SetComposition, act,
                                    enumerate_set_compositions, mask_labels,
                                    type_of)
from hopfchrom.groups import ClassFunction
from hopfchrom.randgen import GENERATORS, corpus
from hopfchrom.structures import (PointCollection, _points_proper, contract,
                                  proper_composition)

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


def test_point_scoring_with_fractional_coordinates():
    """Randgen points are integral, so the lcm scaling is only exercised by
    coordinates like these halves and thirds, with ties among them."""
    h = PointCollection(("a", "b", "c", "d"), (
        (Fraction(1, 2), Fraction(1, 2), 0, 0),
        (Fraction(1, 3), Fraction(2, 3), 0, 0),
        (0, 1, 0, 0),
        (Fraction(1, 2), 0, Fraction(1, 2), 0),
        (0, 0, Fraction(-1, 2), Fraction(3, 2)),
        (Fraction(1, 6), 0, 0, Fraction(5, 6)),
    ))
    every = enumerate_set_compositions(h.ground)
    expected = [c for c in every if _points_proper(h, c)]
    assert 0 < len(expected) < len(every)
    assert set_compositions(h, "vertex_generic") == expected


def test_matroid_contraction_is_associative():
    """M/S1/S2 = M/(S1 | S2): the kernel contracts once by all placed
    labels where peeling contracts block by block."""
    matroids = [h for _, h, _, _ in CORPUS if h.kind == "matroid"]
    checked = 0
    for m in matroids:
        ground = m.ground
        for k1 in range(1, len(ground) - 1):
            for s1 in combinations(ground, k1):
                rest = [x for x in ground if x not in s1]
                for k2 in range(1, len(rest)):
                    for s2 in combinations(rest, k2):
                        twice = contract(contract(m, s1), s2)
                        once = contract(m, set(s1) | set(s2))
                        assert twice.ground == once.ground
                        assert twice.bases == once.bases, (m, s1, s2)
                        checked += 1
    assert checked
