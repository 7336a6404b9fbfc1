"""Facts read from what the program already holds, against the routines
that worked them out again (fact_reference): abelian from the class
table, orders from cycles, the one "exactly one best" rule, falling
factorials built once, partial sums taken once, and integral counts
normalized by groups._as_exact."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

import fact_reference as ref
from hopfchrom import jobio
from hopfchrom.chromatic import binomial_to_monomial
from hopfchrom.complexes import comparable_pairs
from hopfchrom.cyclotomic import Cyclo
from hopfchrom.errors import DomainError
from hopfchrom.groups import PermGroup, Permutation
from hopfchrom.randgen import (corpus, random_hypergraph, random_matroid,
                               random_point_collection)
from hopfchrom.structures import (CharacterSpec, Matroid, _one_best,
                                  _unique_argmax, coloring_test,
                                  loday_associahedron)
from test_groups import dihedral, symmetric


def _groups():
    """Every corpus group, D_n for n <= 9, S_6, Z2 x Z6, and S_3 and Z2 x Z6
    with every generator listed three times."""
    v = tuple("abcdefgh")
    z2z6 = (Permutation.from_cycles("(a b)", v), Permutation.from_cycles("(c d e f g h)", v))
    s3 = symmetric(3).generators
    return ([group for _, _, _, group in corpus()] + [dihedral(n) for n in range(1, 10)]
            + [symmetric(6), PermGroup(z2z6), PermGroup(s3 * 3), PermGroup(z2z6 * 3)])


def test_is_abelian_and_order_match_the_products():
    groups = _groups()
    assert [g.order for g in groups[-4:]] == [720, 12, 6, 12]
    verdicts = set()
    for group in groups:
        assert group.is_abelian() == ref.pairwise_is_abelian(group), group.generators
        verdicts.add(group.is_abelian())
        for x in group.elements:
            assert x.order() == ref.product_order(x), x
    assert verdicts == {True, False}


def _positions(h, items):
    at = {x: i for i, x in enumerate(h.ground)}
    return [tuple(at[x] for x in item) for item in items]


def _colorings(rng, n, count=40):
    return [tuple(rng.randint(1, n) for _ in range(n)) for _ in range(count)]


def test_one_best_matches_the_optimum_loops():
    """Matroids (a unique minimum basis), hypergraphs (a unique top color
    per edge) and point collections (a unique maximizing point) under
    random colorings, and _one_best alone on random values with ties."""
    rng = random.Random(41)
    chrom, seen = CharacterSpec("chromatic"), set()
    matroids = [random_matroid(rng, rng.randint(2, 6)) for _ in range(60)]
    matroids += [Matroid(tuple("abcdef"), [frozenset(b) for b in combinations("abcdef", k)])
                 for k in (1, 2, 3)]
    for h in matroids:
        test, bases = coloring_test(h, chrom), _positions(h, h.bases)
        for c in _colorings(rng, len(h.ground)):
            seen.add(("matroid", test(c)))
            assert test(c) == ref.unique_min_basis(bases, c), (h, c)
    for _ in range(60):
        h = random_hypergraph(rng, rng.randint(2, 6))
        test, edges = coloring_test(h, CharacterSpec("unique_local_max")), _positions(h, h.edges)
        for c in _colorings(rng, len(h.ground)):
            seen.add(("hypergraph", test(c)))
            assert test(c) == ref.unique_top_color(edges, c), (h, c)
    points = [random_point_collection(rng, rng.randint(2, 5)) for _ in range(40)]
    for h in points + [loday_associahedron(4)]:
        test = coloring_test(h, CharacterSpec("vertex_generic"))
        for c in _colorings(rng, len(h.ground)):
            seen.add(("points", test(c)))
            assert test(c) == ref.unique_argmax(h.integer_points, c), (h, c)
            assert _unique_argmax(h.points, c) == ref.unique_argmax(h.points, c), (h, c)
    assert seen == {(kind, v) for kind in ("matroid", "hypergraph", "points")
                    for v in (True, False)}
    for _ in range(500):
        values = [rng.randint(-3, 3) for _ in range(rng.randint(1, 6))]
        assert _one_best(values) == ref.unique_argmax([(v,) for v in values], (1,)), values


def test_binomial_to_monomial_matches_the_rebuilt_factorials():
    rng = random.Random(43)
    for _ in range(300):
        fvec = [rng.choice((0, rng.randint(0, 10 ** 6))) for _ in range(rng.randint(1, 12))]
        got = binomial_to_monomial(fvec)
        assert got == ref.binomial_to_monomial(fvec), fvec
        assert all(type(c) is Fraction for c in got), fvec


@pytest.mark.parametrize("covering_only", [False, True])
def test_comparable_pairs_match_the_double_loop(covering_only):
    for n in range(1, 10):
        assert comparable_pairs(n, covering_only) == ref.comparable_pairs(n, covering_only), n


def test_counts_are_normalized_once():
    """jobio._count takes an int, an integral Fraction or a rational
    integral Cyclo to its int, and refuses anything else by its repr."""
    for value in (7, Fraction(14, 2), Cyclo(4, (Fraction(3),)), Cyclo(4, (3, 0, 1, 0, 1))):
        count = jobio._count(value)
        assert type(count) is int and count in (7, 3), value
    for value in (Fraction(1, 2), Cyclo(4, (Fraction(1, 2),)), Cyclo.root(4, 1)):
        with pytest.raises(DomainError, match="^expected an integer count, got "):
            jobio._count(value)
