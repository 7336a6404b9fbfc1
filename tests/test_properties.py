"""Property-based checks on small random inputs."""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from hopfchrom.chromatic import coloring_oracle, psi, psi_polynomial
from hopfchrom.compositions import (alpha_of_subset, compositions_of, refines,
                                    subset_of_alpha)
from hopfchrom.complexes import integer_matrix_rank
from hopfchrom.groups import PermGroup, Permutation
from hopfchrom.structures import CharacterSpec, Graph
from cyclo_reference import FieldCyclo
from label_reference import act, enumerate_set_compositions
from peel_reference import proper_composition
from test_complex_checks import dense_integer_rank
from test_kernel import set_compositions

CHROM = CharacterSpec("chromatic")


@st.composite
def graphs(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    ground = tuple("abcde"[:n])
    pairs = list(combinations(ground, 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = frozenset(frozenset(p) for i, p in enumerate(pairs) if mask >> i & 1)
    return Graph(ground, edges)


@given(st.integers(1, 9), st.data())
def test_subset_composition_round_trip(d, data):
    subset = data.draw(st.sets(st.integers(1, max(1, d - 1)), max_size=d - 1)
                       if d > 1 else st.just(set()))
    alpha = alpha_of_subset(subset, d)
    assert subset_of_alpha(alpha) == frozenset(subset)


@given(st.integers(1, 7), st.data())
def test_refines_is_a_partial_order(d, data):
    comps = compositions_of(d)
    a = data.draw(st.sampled_from(comps))
    b = data.draw(st.sampled_from(comps))
    c = data.draw(st.sampled_from(comps))
    assert refines(a, a)
    if refines(a, b) and refines(b, a):
        assert a == b
    if refines(a, b) and refines(b, c):
        assert refines(a, c)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_engine_matches_direct_predicate(g):
    engine = set(set_compositions(g, CHROM))
    brute = {c for c in enumerate_set_compositions(g.ground)
             if proper_composition(g, CHROM, c)}
    assert engine == brute


@given(st.permutations(tuple("abcd")), st.permutations(tuple("abcd")), st.data())
def test_act_is_an_action(im1, im2, data):
    ground = tuple("abcd")
    g = Permutation(ground, tuple(im1))
    h = Permutation(ground, tuple(im2))
    c = data.draw(st.sampled_from(enumerate_set_compositions(ground)))
    assert act(g, act(h, c)) == act(g * h, c)


@settings(max_examples=25, deadline=None)
@given(graphs(max_n=4), st.integers(1, 4))
def test_oracle_count_is_polynomial_value(g, k):
    triv = PermGroup((Permutation.identity(g.ground),))
    X = psi(g, CHROM, triv)
    p = psi_polynomial(X)
    cols = coloring_oracle(g, CHROM, k)
    assert len(cols) == p.value_at(triv.elements[0], k)


def _fraction_rank(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        m[rank] = [x / m[rank][col] for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_integer_rank_matches_fraction_rank(nr, nc, data):
    rows = [[data.draw(st.integers(-4, 4)) for _ in range(nc)]
            for _ in range(nr)]
    sparse = [{j: v for j, v in enumerate(r) if v} for r in rows]
    assert integer_matrix_rank(sparse) == _fraction_rank(rows) == dense_integer_rank(rows)


@given(st.integers(0, 11), st.integers(0, 11), st.integers(0, 11))
def test_cyclo_ring_laws(i, j, k):
    a, b, c = FieldCyclo.root(12, i), FieldCyclo.root(12, j), FieldCyclo.root(12, k)
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    # roots of unity have norm 1
    assert a * a.conjugate() == 1
