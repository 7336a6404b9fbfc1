from fractions import Fraction

import pytest

from hopfchrom.chromatic import (binomial_to_monomial, coloring_oracle,
                                 colorings_by_type, fixed_coloring_counts,
                                 orbital_polynomial, orbital_psi,
                                 proper_compositions, psi, psi_polynomial,
                                 verify_flawless)
from hopfchrom.compositions import IntComposition
from hopfchrom.errors import DomainError, ResourceCapError
from hopfchrom.groups import ClassFunction, PermGroup, Permutation
from hopfchrom.randgen import corpus
from hopfchrom.structures import CharacterSpec, Graph

C = IntComposition.parse
ZETA = CharacterSpec("zeta")
CHROM = CharacterSpec("chromatic")


def test_proper_compositions_edgeless():
    g = Graph(("a", "b", "c"), frozenset())
    comps = proper_compositions(g, ZETA)
    assert len(comps) == 13
    # chromatic on an edgeless graph is the same thing
    assert proper_compositions(g, CHROM) == comps


def test_proper_compositions_order_is_canonical():
    g = Graph(("a", "b", "c"), frozenset())
    comps = proper_compositions(g, ZETA)
    keys = [(c.length, c.blocks) for c in comps]
    assert keys == sorted(keys)


def test_proper_compositions_triangle():
    t = Graph(("a", "b", "c"),
              frozenset({frozenset({"a", "b"}), frozenset({"a", "c"}),
                         frozenset({"b", "c"})}))
    comps = proper_compositions(t, CHROM)
    assert all(c.length == 3 for c in comps)
    assert len(comps) == 6


def test_ground_cap():
    big = Graph(tuple("abcdefghij"), frozenset())
    with pytest.raises(ResourceCapError):
        proper_compositions(big, ZETA)
    # explicit override works
    comps = proper_compositions(Graph(tuple("abcde"), frozenset()), ZETA,
                                max_ground=5)
    assert len(comps) == 541


def test_psi_rejects_non_automorphism(four_cycle):
    bad = PermGroup((Permutation.from_cycles("(a b)", ("a", "b", "c", "d")),))
    with pytest.raises(DomainError):
        psi(four_cycle, CHROM, bad)


def test_psi_four_cycle(four_cycle, z4):
    X = psi(four_cycle, CHROM, z4)
    assert X.coefficient(C("2,2")).values == (2, 0, 2, 0)
    assert X.coefficient(C("1,1,2")).values == (4, 0, 0, 0)
    assert X.coefficient(C("1,1,1,1")).values == (24, 0, 0, 0)
    assert X.coefficient(C("4")).is_zero()


def test_polynomial_and_monomial_conversion(four_cycle, z4):
    X = psi(four_cycle, CHROM, z4)
    p = psi_polynomial(X)
    identity = [f.at_identity() for f in p.fvec]
    assert identity == [0, 0, 2, 12, 24]
    mono = binomial_to_monomial(identity)
    assert mono == [Fraction(0), Fraction(-3), Fraction(6), Fraction(-4),
                    Fraction(1)]
    assert p.value_at(z4.elements[0], 4) == 84
    assert p.value_at(z4.elements[0], 2) == 2
    # value at the rotation class counts colorings fixed by it
    r2 = [g for g in z4.elements if g.cycle_string() == "(a d)(b c)"][0]
    assert p.value_at(r2, 4) == 12


def test_binomial_to_monomial_plain():
    # C(x,2) = (x^2 - x)/2
    assert binomial_to_monomial([0, 0, 1]) == [Fraction(0), Fraction(-1, 2),
                                               Fraction(1, 2)]
    assert binomial_to_monomial([5]) == [Fraction(5)]


def test_orbital(four_cycle, z4):
    X = psi(four_cycle, CHROM, z4)
    orb = orbital_psi(X)
    assert orb[C("2,2")] == 1
    assert orb[C("1,1,1,1")] == 6
    assert orbital_polynomial(X) == [0, 0, 1, 3, 6]


def test_oracle_agrees_with_polynomial(four_cycle, z4):
    X = psi(four_cycle, CHROM, z4)
    p = psi_polynomial(X)
    cols = coloring_oracle(four_cycle, CHROM, 4)
    assert len(cols) == 84
    fixed = fixed_coloring_counts(cols, z4)
    assert fixed.values == tuple(p.value_at(rep, 4) for rep in z4.class_reps)


def _reference_fixed_counts(colorings, group):
    """The former fixed_coloring_counts: one label dict per (coloring, element)."""
    ground = group.ground
    by_element = {}
    for g in group.elements:
        cnt = 0
        for values in colorings:
            f = dict(zip(ground, values))
            if all(f[g(x)] == f[x] for x in ground):
                cnt += 1
        by_element[g] = cnt
    return ClassFunction.from_element_values(group, by_element)


def test_fixed_counts_match_reference_on_corpus():
    checked = 0
    for _, h, char, group in corpus():
        n = max(len(h.ground), 1)
        for k in sorted({min(2, n), n}):
            cols = coloring_oracle(h, char, k)
            got = fixed_coloring_counts(cols, group)
            assert got.values == _reference_fixed_counts(cols, group).values
            checked += any(got.values[1:])
    assert checked > 50


def test_fixed_counts_check_class_constancy():
    ground = ("a", "b", "c")
    s3 = PermGroup((Permutation.from_cycles("(a b)", ground),
                    Permutation.from_cycles("(a b c)", ground)))
    # (a b) fixes the coloring but the other transpositions move it
    with pytest.raises(DomainError):
        fixed_coloring_counts([(1, 1, 2)], s3)
    with pytest.raises(DomainError):
        _reference_fixed_counts([(1, 1, 2)], s3)


def test_oracle_by_type(four_cycle):
    cols = coloring_oracle(four_cycle, CHROM, 2)
    assert len(cols) == 2
    by_type = colorings_by_type(cols, four_cycle.ground)
    assert by_type == {C("2,2"): 2}


def test_oracle_caps(four_cycle):
    with pytest.raises(ResourceCapError):
        coloring_oracle(four_cycle, CHROM, 9)
    # the cycle's coloring count is (k-1)^4 + (k-1)
    cols = coloring_oracle(four_cycle, CHROM, 5, max_colors=5)
    assert len(cols) == 260


def test_flawless_reports():
    good = verify_flawless([0, 0, 1, 3, 6])
    assert good["ok"]
    bad = verify_flawless([0, 5, 1, 3, 6])
    assert not bad["ok"]
    names = {c["name"] for c in bad["inequalities"] if not c["ok"]}
    assert "rising" in names or "edge" in names
    failing = [c for c in bad["inequalities"] if not c["ok"]]
    assert all("witness" in c for c in failing)


def test_flawless_class_level(four_cycle, z4):
    X = psi(four_cycle, CHROM, z4)
    rep = verify_flawless(psi_polynomial(X))
    assert rep["ok"]
