"""psi of graphs under the chromatic character equals tests/csf_reference.py,
the weighted chromatic symmetric functions of the quotients G/g."""

import random

import pytest

from cap_checks import cycle
from csf_reference import class_values
from hopfchrom.chromatic import psi
from hopfchrom.compositions import IntComposition
from hopfchrom.groups import PermGroup
from hopfchrom.randgen import corpus, random_graph
from hopfchrom.structures import CharacterSpec, automorphisms

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

