"""Differential tests of the matroid minors of minor_reference, the minor
route the mask calculus is tested against, each one pass over the bases, against the subset enumeration they replaced
(reference_restrict, reference_contract): every independent subset of S
listed by testing it against every basis, and the contraction searched
over the complement next to the lexicographically first maximal one.

The matroids are the corpus matroids and U(3,7), which randgen builds as
direct sums of uniform matroids, and three that are not: the Fano plane,
M(K4) and a matroid with loops and coloops."""

from itertools import combinations

import pytest

from hopfchrom.randgen import corpus
from hopfchrom.structures import Matroid
from minor_reference import contract, restrict


def reference_independent(m, I):
    return any(I <= b for b in m.bases)


def reference_independents_within(m, S):
    out = []
    S = sorted(S)
    for k in range(len(S) + 1):
        for c in combinations(S, k):
            if reference_independent(m, frozenset(c)):
                out.append(frozenset(c))
    return out


def reference_restrict(m, S):
    """The former matroid branch of restrict: the largest independent
    subsets of S."""
    ind = reference_independents_within(m, S)
    top = max(len(i) for i in ind)
    return Matroid(tuple(S), frozenset(i for i in ind if len(i) == top))


def reference_contract(m, S):
    """The former matroid branch of contract: the sets J of the right size
    in the complement with J | I independent, for I the lexicographically
    first maximum independent subset of S."""
    ind = reference_independents_within(m, S)
    top = max(len(i) for i in ind)
    b_s = min((i for i in ind if len(i) == top), key=lambda i: tuple(sorted(i)))
    rest = frozenset(m.ground) - frozenset(S)
    target = m.rank - len(b_s)
    return Matroid(tuple(rest), frozenset(
        frozenset(i) for i in combinations(sorted(rest), target)
        if reference_independent(m, frozenset(i) | b_s)))


def _matroid(ground, bases):
    return Matroid(tuple(ground), frozenset(frozenset(b) for b in bases))


SEVEN = "abcdefg"
FANO_LINES = [set(line) for line in ("abd", "bce", "cdf", "deg", "aef", "bfg", "acg")]
FANO = _matroid(SEVEN, [b for b in combinations(SEVEN, 3) if set(b) not in FANO_LINES])
# the six edges of K4 on vertices 1..4, named a..f; bases are spanning trees
K4_EDGES = dict(zip("abcdef", ("12", "13", "14", "23", "24", "34")))
M_K4 = _matroid("abcdef", [b for b in combinations("abcdef", 3)
                           if len(set("".join(K4_EDGES[e] for e in b))) == 4])
# U(2,4) on abcd, e a coloop, f and g loops
LOOPS_COLOOPS = _matroid(SEVEN, [set(b) | {"e"} for b in combinations("abcd", 2)])

MATROIDS = ([(name, h) for name, h, _, _ in corpus() if h.kind == "matroid"]
            + [("U(3,7)", _matroid(SEVEN, combinations(SEVEN, 3))),
               ("Fano", FANO), ("M(K4)", M_K4), ("loops+coloops", LOOPS_COLOOPS)])


def _subsets(ground):
    return [frozenset(c) for k in range(1, len(ground) + 1)
            for c in combinations(ground, k)]


def test_named_matroids_are_what_they_claim():
    assert len(FANO.bases) == 28 and FANO.rank == 3
    assert len(M_K4.bases) == 16 and M_K4.rank == 3
    assert len(LOOPS_COLOOPS.bases) == 6 and LOOPS_COLOOPS.rank == 3


@pytest.mark.parametrize("name, m", MATROIDS, ids=[name for name, _ in MATROIDS])
def test_minors_match_the_subset_enumeration(name, m):
    """Equal restrictions for every nonempty S and equal contractions for
    every nonempty proper S."""
    for S in _subsets(m.ground):
        assert restrict(m, S) == reference_restrict(m, S), (name, sorted(S))
        if len(S) < len(m.ground):
            assert contract(m, S) == reference_contract(m, S), (name, sorted(S))


def test_loops_and_coloops():
    """Restricting to loops leaves one empty basis and contracting them
    deletes them; a coloop is in every basis of any restriction holding
    it, and contracting it drops it from every basis."""
    m = LOOPS_COLOOPS
    loops = {"f", "g"}
    assert restrict(m, loops).bases == {frozenset()}
    assert contract(m, loops).bases == m.bases
    assert restrict(m, {"e"}).bases == {frozenset("e")}
    assert restrict(m, {"a", "e", "f"}).bases == {frozenset("ae")}
    assert contract(m, {"e"}).bases == {b - {"e"} for b in m.bases}
    assert contract(m, {"a", "e", "f"}).bases == {frozenset("b"), frozenset("c"),
                                                  frozenset("d")}
