"""Seeded random instances for conformance sweeps.

Everything goes through random.Random with an explicit seed, so a corpus
is reproducible from (seed, per_kind) alone.  Sizes are weighted toward
small ground sets; every labeled graph on up to three vertices is
included verbatim at the front of the graph corpus.

Posets, arc sets, and double posets are generated along random linear
orders, which keeps them acyclic by construction.  Matroids are direct
sums of uniform matroids over a random set partition, so the exchange
property holds by construction and the validator is exercised, not
trusted.  Point collections are Minkowski sums of coordinate simplices,
built as all sums of one vertex from each simplex.
"""

import random
from fractions import Fraction
from itertools import combinations

from .groups import PermGroup, Permutation
from .structures import (CHARACTER_KINDS, KIND_CLASSES, CharacterSpec,
                         DoublePoset, Graph, Hypergraph, Matroid, MixedGraph,
                         PointCollection, SimplicialComplex, automorphisms,
                         make_poset)

LETTERS = "abcdefghi"
SIZES = (1, 2, 2, 3, 3, 3, 4, 4, 5)

# the characters that apply to each kind, in the order of CHARACTER_KINDS
KIND_CHARACTERS = {kind: tuple(name for name, kinds in CHARACTER_KINDS.items() if kind in kinds)
                   for kind in KIND_CLASSES}


def _ground(n):
    return tuple(LETTERS[:n])


def _random_partition(rng, items):
    blocks = []
    for x in items:
        if blocks and rng.random() < 0.6:
            rng.choice(blocks).append(x)
        else:
            blocks.append([x])
    return blocks


def random_graph(rng, n=None):
    n = n or rng.choice(SIZES)
    ground = _ground(n)
    p = rng.uniform(0.15, 0.7)
    edges = {frozenset(e) for e in combinations(ground, 2) if rng.random() < p}
    return Graph(ground, frozenset(edges))


def random_poset(rng, n=None):
    n = n or rng.choice(SIZES)
    ground = list(_ground(n))
    rng.shuffle(ground)
    rels = []
    for i, j in combinations(range(n), 2):
        if rng.random() < 0.4:
            rels.append((ground[i], ground[j]))
    return make_poset(sorted(ground), rels)


def random_matroid(rng, n=None):
    n = n or rng.choice(SIZES)
    ground = _ground(n)
    if rng.random() < 0.4:
        r = rng.randint(0, n)
        bases = frozenset(frozenset(b) for b in combinations(ground, r))
        return Matroid(ground, bases)
    blocks = _random_partition(rng, ground)
    ranks = [rng.randint(0, len(b)) for b in blocks]
    parts = [[frozenset(c) for c in combinations(b, r)] for b, r in zip(blocks, ranks)]
    bases = [frozenset()]
    for choices in parts:
        bases = [b | c for b in bases for c in choices]
    return Matroid(ground, frozenset(bases))


def random_mixed_graph(rng, n=None):
    n = n or rng.choice(SIZES)
    order = list(_ground(n))
    rng.shuffle(order)
    undirected, directed = set(), set()
    for i, j in combinations(range(n), 2):
        roll = rng.random()
        if roll < 0.25:
            undirected.add(frozenset({order[i], order[j]}))
        elif roll < 0.5:
            directed.add((order[i], order[j]))
    return MixedGraph(tuple(sorted(order)), frozenset(undirected), frozenset(directed))


def random_double_poset(rng, n=None):
    n = n or rng.choice(SIZES)
    p1 = random_poset(rng, n)
    p2 = random_poset(rng, n)
    return DoublePoset(p1.ground, p1.less, p2.less)


def random_hypergraph(rng, n=None):
    n = n or rng.choice(SIZES)
    ground = _ground(n)
    edges = []
    for _ in range(rng.randint(0, n + 1)):
        size = rng.randint(1, n)
        edges.append(tuple(sorted(rng.sample(ground, size))))
    return Hypergraph(ground, tuple(sorted(edges)))


def random_simplicial_complex(rng, n=None):
    n = n or rng.choice(SIZES)
    ground = _ground(n)
    faces = []
    for _ in range(rng.randint(0, n + 1)):
        size = rng.randint(1, n)
        faces.append(frozenset(rng.sample(ground, size)))
    return SimplicialComplex(ground, frozenset(faces))


def random_point_collection(rng, n=None):
    n = n or rng.choice(SIZES[:7])
    ground = _ground(n)
    sums = [tuple(Fraction(0) for _ in ground)]
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, n)
        support = rng.sample(range(n), size)
        vertices = []
        for i in support:
            v = [Fraction(0)] * n
            v[i] = Fraction(1)
            vertices.append(tuple(v))
        sums = [tuple(a + b for a, b in zip(s, v)) for s in sums for v in vertices]
    return PointCollection(ground, tuple(sorted(set(sums))))


GENERATORS = {
    "graph": random_graph,
    "poset": random_poset,
    "matroid": random_matroid,
    "mixed_graph": random_mixed_graph,
    "double_poset": random_double_poset,
    "hypergraph": random_hypergraph,
    "simplicial_complex": random_simplicial_complex,
    "gen_permutohedron": random_point_collection,
}


def random_instance(kind, rng, n=None):
    return GENERATORS[kind](rng, n)


def random_character(kind, rng, h):
    name = rng.choice(KIND_CHARACTERS[kind])
    if name == "dim_bound":
        return CharacterSpec(name, s=rng.randint(1, max(1, len(h.ground) - 1)))
    return CharacterSpec(name)


def random_group(h, rng):
    """A cyclic or dihedral subgroup of the validated automorphism group.

    Trivial sometimes, else cyclic on a random automorphism; with some
    probability the cyclic part is extended by an involution that
    inverts the rotation, giving a dihedral subgroup when one exists."""
    ground = tuple(sorted(h.ground))
    auts = automorphisms(h)
    nontrivial = [g for g in auts if not g.is_identity()]
    roll = rng.random()
    if not nontrivial or roll < 0.2:
        return PermGroup((Permutation.identity(ground),))
    g = rng.choice(nontrivial)
    if roll < 0.7:
        return PermGroup((g,))
    inv = g.inverse()
    flips = [f for f in nontrivial if f.order() == 2 and f * g * f == inv]
    if flips:
        return PermGroup((g, rng.choice(flips)))
    return PermGroup((g,))


def all_small_graphs():
    """Every labeled graph on one, two, or three vertices."""
    out = []
    for n in (1, 2, 3):
        ground = _ground(n)
        pairs = list(combinations(ground, 2))
        for mask in range(1 << len(pairs)):
            edges = frozenset(frozenset(p) for i, p in enumerate(pairs) if mask >> i & 1)
            out.append(Graph(ground, edges))
    return out


def corpus(per_kind=24, seed=20260822):
    """Deterministic list of (name, structure, character, group) cases."""
    cases = []
    for kind in sorted(GENERATORS):
        rng = random.Random("%s:%s" % (seed, kind))
        pre = []
        if kind == "graph":
            pre = all_small_graphs()
        count = max(per_kind, len(pre) if kind == "graph" else 0)
        for i in range(count):
            h = pre[i] if i < len(pre) else random_instance(kind, rng)
            char = random_character(kind, rng, h)
            group = random_group(h, rng)
            cases.append(("%s-%03d" % (kind, i), h, char, group))
    return cases
