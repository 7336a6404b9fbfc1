"""psi of graphs under the chromatic character equals tests/csf_reference.py,
the weighted chromatic symmetric functions of the quotients G/g.

Above 7 labels the automorphism search is capped, so the graphs there
have their symmetry planted: a random group, and as edges the union of
the orbits of a few random pairs, on which the group acts by
automorphisms by construction."""

import random

import pytest

from cap_checks import cycle
from csf_reference import class_values
from hopfchrom.chromatic import psi
from hopfchrom.compositions import IntComposition
from hopfchrom.errors import ResourceCapError
from hopfchrom.groups import PermGroup, Permutation
from hopfchrom.randgen import corpus, random_graph
from hopfchrom.structures import CharacterSpec, Graph, automorphisms

CHROMATIC = CharacterSpec("chromatic")


def _check(graph, group):
    X = psi(graph, CHROMATIC, group, max_ground=len(graph.ground))
    want = class_values(graph.ground, graph.edges, group.class_reps)
    assert {a.parts for a in X.support()} <= set(want)
    for alpha, values in want.items():
        assert X.coefficient(IntComposition(alpha)).values == values, (graph, alpha)


def automorphism_group(h):
    """The whole automorphism group of h, from the automorphisms not in
    the group generated by the ones before them."""
    group = PermGroup([], ground=h.ground)
    for g in automorphisms(h):
        if g not in group._elem_index:
            group = PermGroup(group.generators + (g,))
    return group


def test_corpus_graphs():
    cases = [(h, group) for _, h, _, group in corpus() if h.kind == "graph"]
    assert len(cases) >= 24
    for h, group in cases:
        _check(h, group)


@pytest.mark.parametrize("n", range(3, 11))
def test_cycles_under_the_dihedral_group(n):
    graph, group, _ = cycle(n)
    assert group.order == 2 * n
    _check(graph, group)


def test_random_graphs_under_their_automorphism_groups():
    rng = random.Random(20261020)
    orders = set()
    for n in range(1, 8):
        for _ in range(6):
            graph = random_graph(rng, n)
            group = automorphism_group(graph)
            assert group.order == len(automorphisms(graph))
            orders.add(group.order)
            _check(graph, group)
    assert len(orders) > 3


# Planted groups are redrawn past this order, which keeps psi's
# per-element tables small; the Whitney expansion at the identity runs
# over 2^|E| edge sets, so graphs are redrawn past MAX_EDGES.
PLANTED_ORDER_CAP = 120
MAX_EDGES = 16


def planted(rng, n):
    """A graph on n labels and a group of automorphisms of it: one or two
    random permutations, each of a random 2 to 5 labels, closed, and the
    orbits of three to six random pairs as edges."""
    ground = tuple("v%d" % i for i in range(n))
    while True:
        gens = []
        for _ in range(rng.randint(1, 2)):
            labels = rng.sample(ground, rng.randint(2, 5))
            gens.append(Permutation.from_mapping(
                dict(zip(labels, rng.sample(labels, len(labels)))), ground))
        try:
            group = PermGroup(gens, ground=ground, cap=PLANTED_ORDER_CAP)
        except ResourceCapError:
            continue
        edges = set()
        for _ in range(rng.randint(3, 6)):
            u, v = rng.sample(ground, 2)
            edges |= {frozenset((g(u), g(v))) for g in group.elements}
        if group.order > 1 and len(edges) <= MAX_EDGES:
            return Graph(ground, frozenset(edges)), group


def test_graphs_with_planted_symmetry():
    rng = random.Random(20261022)
    abelian = set()
    for n in (8, 8, 9, 9, 10, 10):
        graph, group = planted(rng, n)
        abelian.add(group.is_abelian())
        _check(graph, group)
    assert abelian == {True, False}
