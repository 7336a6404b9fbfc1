from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from hopfchrom.chromatic import (binomial_to_monomial, coloring_oracle,
                                 colorings_by_type, fixed_coloring_counts,
                                 orbital_polynomial, orbital_psi,
                                 proper_compositions, psi, psi_polynomial,
                                 verify_flawless)
from hopfchrom import chromatic, structures
from hopfchrom.compositions import IntComposition
from hopfchrom.errors import DomainError, ResourceCapError
from hopfchrom.groups import ClassFunction, PermGroup, Permutation
from hopfchrom.randgen import corpus
from hopfchrom.structures import (CharacterSpec, Graph, _unique_argmax,
                                  check_compatible, coloring_test)
from label_reference import SetComposition, enumerate_set_compositions, type_of
from test_kernel import set_compositions

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
    """Each composition is listed once, as disjoint block masks covering
    the ground set; sorted as SetCompositions they are the canonical
    listing of all set compositions of an edgeless graph."""
    g = Graph(("a", "b", "c"), frozenset())
    comps = proper_compositions(g, ZETA)
    assert len(set(comps)) == len(comps)
    for c in comps:
        assert all(c) and sum(c) == 0b111 and sum(S.bit_count() for S in c) == 3
    assert set_compositions(g, ZETA) == enumerate_set_compositions(g.ground)


def test_proper_compositions_triangle():
    t = Graph(("a", "b", "c"),
              frozenset({frozenset({"a", "b"}), frozenset({"a", "c"}),
                         frozenset({"b", "c"})}))
    comps = proper_compositions(t, CHROM)
    assert all(len(c) == 3 for c in comps)
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
    by_type = colorings_by_type(cols)
    assert by_type == {C("2,2"): 2}


def _reference_proper_coloring(h, char, f):
    """The former structures.proper_coloring: the per-kind statements on a
    label dict, with check_compatible and the dispatch run on every call."""
    char = check_compatible(h, char)
    name = char.name
    if h.kind == "graph":
        if name == "zeta":
            return True
        return all(f[a] != f[b] for e in h.edges for a, b in [tuple(e)])
    if h.kind == "poset":
        if name == "zeta":
            return all(f[a] <= f[b] for a, b in h.less)
        return all(f[a] < f[b] for a, b in h.less)
    if h.kind == "matroid":
        if name == "zeta":
            return True
        best, count = None, 0
        for b in h.bases:
            v = sum(f[x] for x in b)
            if best is None or v < best:
                best, count = v, 1
            elif v == best:
                count += 1
        return count == 1
    if h.kind == "mixed_graph":
        if name == "zeta":
            return all(f[u] <= f[v] for u, v in h.directed)
        ok_und = all(f[a] != f[b] for e in h.undirected for a, b in [tuple(e)])
        if name == "weak_mixed":
            return ok_und and all(f[u] <= f[v] for u, v in h.directed)
        return ok_und and all(f[u] < f[v] for u, v in h.directed)
    if h.kind == "double_poset":
        ok1 = all(f[a] <= f[b] for a, b in h.less1)
        if name == "zeta":
            return ok1
        return ok1 and all(
            not (f[a] == f[b] and (b, a) in h.less2) for a, b in h.less1)
    if h.kind == "hypergraph":
        for e in h.edges:
            top = max(f[x] for x in e)
            if sum(1 for x in e if f[x] == top) != 1:
                return False
        return True
    if h.kind == "simplicial_complex":
        if name == "zeta":
            return True
        for face in h.faces:
            if len(face) > char.s and len({f[x] for x in face}) == 1:
                return False
        return True
    if h.kind == "gen_permutohedron":
        return _unique_argmax(h.points, tuple(f[x] for x in h.ground))
    raise AssertionError("unhandled kind %s" % h.kind)


def _reference_colorings_by_type(colorings, ground):
    """The former colorings_by_type: the type of each tuple's level-set
    set composition, built through SetComposition."""
    out = Counter()
    for values in colorings:
        by_color = {}
        for x, c in zip(ground, values):
            by_color.setdefault(c, []).append(x)
        comp = SetComposition(tuple(tuple(by_color[c]) for c in sorted(by_color)))
        out[type_of(comp)] += 1
    return dict(out)


def test_oracle_path_matches_reference_on_corpus():
    """The positional predicate, the oracle and the type counts agree with
    the dict-based references on every color tuple of every corpus case
    at k = 1, 2 and n."""
    cases, tuples = corpus(), 0
    for _, h, char, _ in cases:
        n = len(h.ground)
        proper = coloring_test(h, char)
        for k in sorted({1, 2, n}):
            want = []
            for c in product(range(1, k + 1), repeat=n):
                ok = _reference_proper_coloring(h, char, dict(zip(h.ground, c)))
                assert proper(c) == ok, (h, char, c)
                if ok:
                    want.append(c)
            tuples += k ** n
            got = coloring_oracle(h, char, k)
            assert got == want
            assert colorings_by_type(got) == _reference_colorings_by_type(got, h.ground)
    assert len(cases) == 192 and tuples > 60000


def test_oracle_checks_the_character_once(monkeypatch, four_cycle):
    calls = []

    def counting(h, char):
        calls.append(char)
        return check_compatible(h, char)

    monkeypatch.setattr(structures, "check_compatible", counting)
    monkeypatch.setattr(chromatic, "check_compatible", counting)
    assert len(coloring_oracle(four_cycle, CHROM, 3)) == 18
    assert len(calls) == 1


def test_oracle_caps(four_cycle):
    """One rule: n <= max_ground and k^n <= max_ground^max_ground."""
    # the cycle's coloring count is (k-1)^4 + (k-1)
    assert len(coloring_oracle(four_cycle, CHROM, 5)) == 260
    assert len(coloring_oracle(four_cycle, CHROM, 9)) == 4104
    with pytest.raises(ResourceCapError, match=r"^oracle color cap exceeded: 9\^4 tuples > 4\^4$"):
        coloring_oracle(four_cycle, CHROM, 9, max_ground=4)
    assert len(coloring_oracle(four_cycle, CHROM, 4, max_ground=4)) == 84
    with pytest.raises(ResourceCapError, match=r"^oracle ground cap exceeded: 4 > 3$"):
        coloring_oracle(four_cycle, CHROM, 1, max_ground=3)
    # at the boundary: 16^2 tuples = 4^4 are allowed, 17^2 are not
    edge = Graph(("a", "b"), frozenset({frozenset("ab")}))
    assert len(coloring_oracle(edge, CHROM, 16, max_ground=4)) == 16 * 15
    with pytest.raises(ResourceCapError, match=r"^oracle color cap exceeded: 17\^2 tuples > 4\^4$"):
        coloring_oracle(edge, CHROM, 17, max_ground=4)


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
