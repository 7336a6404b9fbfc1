"""Differential tests of the item table in structures (ITEMS, ORDER),
which states relabeling once for the six splitting kinds, and through
which the minor route of minor_reference states restriction and
contraction and peel_reference.split_is_zero the zero splits, against
the per-kind code it replaced (reference_restrict, reference_contract,
reference_split_is_zero, reference_automorphism_check).  The references compare on every corpus
structure, on every subset and every permutation of its ground set, and
on C7 and a seven-element poset under a sample of permutations.  The
point-collection reference hashes Fraction points where automorphism_check
compares integer_points."""

import random
from itertools import permutations

import pytest

from hopfchrom import randgen, structures
from hopfchrom.compositions import mask_labels
from hopfchrom.errors import DomainError
from hopfchrom.groups import Permutation
from hopfchrom.structures import (CHARACTER_KINDS, DIRECT_ONLY_KINDS,
                                  FORBIDDEN, ITEMS, KIND_CLASSES, ORDER,
                                  SHAPES, DoublePoset, Graph, Matroid,
                                  MixedGraph, Poset, SimplicialComplex,
                                  automorphism_check, loday_associahedron,
                                  make_poset)
from minor_reference import contract, restrict
from peel_reference import split_is_zero
from test_kernel import cycle_graph


def reference_restrict(h, S):
    """The former per-kind restrict."""
    S = frozenset(S)
    if h.kind == "graph":
        return Graph(tuple(S), frozenset(e for e in h.edges if e <= S))
    if h.kind == "poset":
        return Poset(tuple(S), frozenset(p for p in h.less if p[0] in S and p[1] in S))
    if h.kind == "matroid":
        top = max(len(b & S) for b in h.bases)
        return Matroid(tuple(S), frozenset(b & S for b in h.bases if len(b & S) == top))
    if h.kind == "mixed_graph":
        return MixedGraph(tuple(S),
                          frozenset(e for e in h.undirected if e <= S),
                          frozenset(a for a in h.directed if a[0] in S and a[1] in S))
    if h.kind == "double_poset":
        return DoublePoset(tuple(S),
                           frozenset(p for p in h.less1 if p[0] in S and p[1] in S),
                           frozenset(p for p in h.less2 if p[0] in S and p[1] in S))
    if h.kind == "simplicial_complex":
        return SimplicialComplex(tuple(S), frozenset(f for f in h.faces if f <= S))
    raise AssertionError("unhandled kind %s" % h.kind)


def reference_contract(h, S):
    """The former contract, over the hard-coded tuple of kinds that
    contract by restricting to the complement."""
    S = frozenset(S)
    rest = frozenset(h.ground) - S
    if h.kind == "matroid":
        top = max(len(b & S) for b in h.bases)
        return Matroid(tuple(rest), frozenset(b - S for b in h.bases if len(b & S) == top))
    if h.kind in ("graph", "poset", "mixed_graph", "double_poset", "simplicial_complex"):
        return reference_restrict(h, rest)
    raise AssertionError("unhandled kind %s" % h.kind)


def reference_split_is_zero(h, S):
    """The former per-kind split_is_zero."""
    S = frozenset(S)
    rest = frozenset(h.ground) - S
    if h.kind in ("graph", "matroid", "simplicial_complex"):
        return False
    if h.kind == "poset":
        return any(a in rest and b in S for a, b in h.less)
    if h.kind == "double_poset":
        return any(a in rest and b in S for a, b in h.less1)
    if h.kind == "mixed_graph":
        return any(u in rest and v in S for u, v in h.directed)
    raise AssertionError("unhandled kind %s" % h.kind)


def reference_automorphism_check(h, g):
    """The former per-kind automorphism_check; point collections hash
    their Fraction points."""
    if h.kind == "graph":
        return frozenset(frozenset(g(x) for x in e) for e in h.edges) == h.edges
    if h.kind == "poset":
        return frozenset((g(a), g(b)) for a, b in h.less) == h.less
    if h.kind == "matroid":
        return frozenset(frozenset(g(x) for x in b) for b in h.bases) == h.bases
    if h.kind == "mixed_graph":
        return (frozenset(frozenset(g(x) for x in e) for e in h.undirected) == h.undirected
                and frozenset((g(u), g(v)) for u, v in h.directed) == h.directed)
    if h.kind == "double_poset":
        return (frozenset((g(a), g(b)) for a, b in h.less1) == h.less1
                and frozenset((g(a), g(b)) for a, b in h.less2) == h.less2)
    if h.kind == "hypergraph":
        mapped = sorted(tuple(sorted(g(x) for x in e)) for e in h.edges)
        return tuple(mapped) == h.edges
    if h.kind == "simplicial_complex":
        return frozenset(frozenset(g(x) for x in f) for f in h.faces) == h.faces
    if h.kind == "gen_permutohedron":
        idx = {x: i for i, x in enumerate(h.ground)}
        mapped = set()
        for p in h.points:
            q = [None] * len(p)
            for x, c in zip(h.ground, p):
                q[idx[g(x)]] = c
            mapped.add(tuple(q))
        return mapped == set(h.points)
    raise AssertionError("unhandled kind %s" % h.kind)


CORPUS = randgen.corpus()
SPLITTING = [(name, h) for name, h, _, _ in CORPUS if h.kind not in DIRECT_ONLY_KINDS]
POINTS = [(name, h) for name, h, _, _ in CORPUS if h.kind == "gen_permutohedron"]

SEVEN = tuple("abcdefg")
C7 = cycle_graph(7)
# the poset of the count workload's poset7 job: three 2-chains and a point
POSET7 = make_poset(SEVEN, [("a", "b"), ("c", "d"), ("e", "f")])


def _assert_minors_match(name, h):
    labels = mask_labels(h.ground)
    full = len(labels) - 1
    for S in range(1, full + 1):
        sub = labels[S]
        assert restrict(h, sub) == reference_restrict(h, sub), (name, sub)
        if S != full:
            assert contract(h, sub) == reference_contract(h, sub), (name, sub)
            assert split_is_zero(h, sub) == reference_split_is_zero(h, sub), (name, sub)


def _sample_permutations(ground, count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        images = list(ground)
        rng.shuffle(images)
        out.append(Permutation(ground, tuple(images)))
    return out


def test_table_covers_the_splitting_kinds():
    assert set(ITEMS) | DIRECT_ONLY_KINDS == set(KIND_CLASSES)
    assert DIRECT_ONLY_KINDS == {"hypergraph", "gen_permutohedron"}
    assert set(ORDER) <= set(ITEMS)
    for kind, fields in ITEMS.items():
        cls = KIND_CLASSES[kind]
        assert cls.__dataclass_fields__.keys() - {"ground"} == set(fields), kind
        assert tuple(cls.__dataclass_fields__)[1:] == fields, kind


def test_shapes_cover_the_item_fields():
    """SHAPES has one entry per ITEMS field; the ORDER relations hold
    ordered pairs."""
    assert set(SHAPES) == {field for fields in ITEMS.values() for field in fields}
    for kind, field in ORDER.items():
        assert SHAPES[field][:2] == (tuple, 2), kind


def test_forbidden_items_cover_the_splitting_characters():
    """FORBIDDEN has an entry for every character of a splitting kind and
    none for the direct-only characters."""
    assert set(FORBIDDEN) == {name for name, kinds in CHARACTER_KINDS.items()
                              if kinds - DIRECT_ONLY_KINDS}


def test_minors_and_splits_match_reference_on_corpus():
    assert {h.kind for _, h in SPLITTING} == set(ITEMS)
    for name, h in SPLITTING:
        _assert_minors_match(name, h)


def test_automorphism_check_matches_reference_on_corpus():
    """Every permutation of every corpus ground set, all eight kinds."""
    hits = 0
    for name, h, _, _ in CORPUS:
        for images in permutations(h.ground):
            g = Permutation(h.ground, images)
            got = automorphism_check(h, g)
            assert got == reference_automorphism_check(h, g), (name, images)
            hits += got
    assert hits > len(CORPUS)


@pytest.mark.parametrize("name, h", [("C7", C7), ("poset7", POSET7)], ids=["C7", "poset7"])
def test_seven_element_structures_match_reference(name, h):
    _assert_minors_match(name, h)
    rotation = Permutation.from_cycles("(a b c d e f g)", SEVEN)
    chains = Permutation.from_cycles("(a c e)(b d f)", SEVEN)
    sample = [rotation, chains] + _sample_permutations(SEVEN, 300, seed=7)
    verdicts = set()
    for g in sample:
        got = automorphism_check(h, g)
        assert got == reference_automorphism_check(h, g), (name, g.cycle_string())
        verdicts.add(got)
    assert verdicts == {True, False}


def test_point_collections_compare_as_integers():
    """The integer route against the Fraction route on every permutation
    of the associahedron on four labels and of the corpus point
    collections."""
    assoc = loday_associahedron(4)
    cases = [("assoc4", assoc)] + POINTS
    hits = 0
    for name, h in cases:
        for images in permutations(h.ground):
            g = Permutation(h.ground, images)
            got = automorphism_check(h, g)
            assert got == reference_automorphism_check(h, g), (name, images)
            hits += got
    assert hits > len(cases)
    # the reversal 1 <-> 4, 2 <-> 3 is a symmetry of the associahedron
    assert automorphism_check(assoc, Permutation.from_cycles("(1 4)(2 3)", assoc.ground))


def test_corpus_groups_unchanged_under_reference(monkeypatch):
    """randgen.automorphisms filters permutations through
    automorphism_check; the corpus groups (and so the benchmark's
    corpus-verify jobs) are the ones the per-kind check chose."""
    monkeypatch.setattr(structures, "automorphism_check", reference_automorphism_check)
    reference = randgen.corpus()
    assert [(name, h, char, group.generators) for name, h, char, group in reference] == [
        (name, h, char, group.generators) for name, h, char, group in CORPUS]


@pytest.mark.parametrize("kind", sorted(DIRECT_ONLY_KINDS))
def test_direct_kinds_refuse_the_splitting_calculus(kind):
    h = next(h for _, h, _, _ in CORPUS if h.kind == kind)
    S = h.ground[:1]
    with pytest.raises(DomainError, match="kind %s has no restriction; its properness "
                                          "test is direct" % kind):
        restrict(h, S)
    if len(h.ground) > 1:
        with pytest.raises(DomainError, match="kind %s has no contraction" % kind):
            contract(h, S)
