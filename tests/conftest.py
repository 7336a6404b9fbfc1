import os
import sys

import pytest

from hopfchrom.groups import PermGroup, Permutation
from hopfchrom.structures import Graph, MixedGraph, make_poset

ABCD = ("a", "b", "c", "d")

# scripts/cap_checks.py: its runner and builders are imported by name
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "scripts"))


@pytest.fixture
def bowtie():
    """Poset on abcd with b and d below a and c."""
    return make_poset(ABCD, [("b", "a"), ("b", "c"), ("d", "a"), ("d", "c")])


@pytest.fixture
def four_cycle():
    return Graph(ABCD, frozenset({
        frozenset({"a", "b"}), frozenset({"a", "c"}),
        frozenset({"b", "d"}), frozenset({"c", "d"})}))


@pytest.fixture
def mixed():
    return MixedGraph(ABCD,
                      frozenset({frozenset({"b", "c"}), frozenset({"a", "d"})}),
                      frozenset({("b", "a"), ("d", "c")}))


@pytest.fixture
def z2():
    return PermGroup((Permutation.from_cycles("(a c)(b d)", ABCD),))


@pytest.fixture
def z4():
    return PermGroup((Permutation.from_cycles("(a b d c)", ABCD),))


@pytest.fixture
def trivial():
    return PermGroup((Permutation.identity(ABCD),))
