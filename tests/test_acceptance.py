"""Acceptance gate: eleven frozen checks, exact arithmetic, zero tolerance.

Each criterion is one test, in order, printing one PASS line on success
(pytest -v adds its own per-test verdict line).  Expected values are
frozen literals.  Two worked examples carry quoted reference values that
disagree with the exhaustive coloring oracle; those coefficients are
asserted against the oracle and the discrepancy is flagged in the
printed line and in the bundled fixture notes, never suppressed.
"""

import time
from fractions import Fraction
from math import comb

import pytest

from hopfchrom.chromatic import (binomial_to_monomial, coloring_oracle,
                                 colorings_by_type, orbital_polynomial,
                                 orbital_psi, psi, psi_polynomial)
from hopfchrom.cli import load_fixtures
from hopfchrom.complexes import (BalancedRelativeComplex, coloring_complex,
                                 flag_f_vector, hilb)
from hopfchrom.compositions import Flag, IntComposition
from hopfchrom.groups import PermGroup, Permutation
from hopfchrom.randgen import GENERATORS, corpus
from hopfchrom.structures import (CharacterSpec, Graph, Hypergraph, Matroid,
                                  MixedGraph, SimplicialComplex,
                                  loday_associahedron, make_double_poset,
                                  make_poset)
from hopfchrom.verify import run_verification

C = IntComposition.parse
ABCD = ("a", "b", "c", "d")
DIGITS = ("0", "1", "2", "3")


def _coeff_dict(X):
    return {str(a): X.coefficient(a).values for a in X.support()}


def _stamp(num, label, t0=None, budget=1.0, note=""):
    if t0 is not None:
        elapsed = time.monotonic() - t0
        assert elapsed < budget, "criterion %d took %.2fs, budget %.0fs" % (
            num, elapsed, budget)
    line = "ACCEPTANCE-%02d %s: PASS" % (num, label)
    if note:
        line += " (%s)" % note
    print(line)


def _oracle_type_counts_by_class(h, char, k, group):
    """For each conjugacy class: level-set-type counts of the proper
    colorings fixed by the representative."""
    colorings = coloring_oracle(h, char, k)
    ground = tuple(sorted(h.ground))
    out = []
    for rep in group.class_reps:
        fixed = [v for v in colorings
                 if all(dict(zip(ground, v))[rep(x)] == dict(zip(ground, v))[x]
                        for x in ground)]
        out.append({str(t): n for t, n in colorings_by_type(fixed).items()})
    return out


def _expected_type_counts_by_class(X, k):
    out = []
    for idx in range(len(X.group.class_reps)):
        row = {}
        for alpha in X.support():
            v = X.coefficient(alpha).values[idx] * comb(k, alpha.length)
            if v:
                row[str(alpha)] = v
        out.append(row)
    return out


def _assert_psi_matches_oracle(X, h, char, k, group):
    got = _oracle_type_counts_by_class(h, char, k, group)
    want = _expected_type_counts_by_class(X, k)
    diffs = []
    for rep, g_row, w_row in zip(group.class_reps, got, want):
        if g_row != w_row:
            diffs.append({"class": rep.cycle_string(), "oracle": g_row,
                          "engine": w_row})
    assert not diffs, "oracle disagreement, reported: %r" % diffs


def test_acceptance_01_bowtie_poset_class_function():
    t0 = time.monotonic()
    bowtie = make_poset(ABCD, [("b", "a"), ("b", "c"), ("d", "a"), ("d", "c")])
    z2 = PermGroup((Permutation.from_cycles("(a c)(b d)", ABCD),))
    X = psi(bowtie, CharacterSpec("zeta"), z2)
    assert _coeff_dict(X) == {
        "4": (1, 1),
        "3,1": (2, 0),
        "1,3": (2, 0),
        "2,2": (1, 1),
        "1,1,2": (2, 0),
        "1,2,1": (4, 0),
        "2,1,1": (2, 0),
        "1,1,1,1": (4, 0),
    }
    _stamp(1, "bowtie poset class function", t0)


def test_acceptance_02_four_cycle_graph():
    t0 = time.monotonic()
    cyc = Graph(ABCD, frozenset({
        frozenset({"a", "b"}), frozenset({"a", "c"}),
        frozenset({"b", "d"}), frozenset({"c", "d"})}))
    z4 = PermGroup((Permutation.from_cycles("(a b d c)", ABCD),))
    X = psi(cyc, CharacterSpec("chromatic"), z4)
    assert _coeff_dict(X) == {
        "2,2": (2, 0, 2, 0),
        "1,1,2": (4, 0, 0, 0),
        "1,2,1": (4, 0, 0, 0),
        "2,1,1": (4, 0, 0, 0),
        "1,1,1,1": (24, 0, 0, 0),
    }
    p = psi_polynomial(X)
    identity = [f.at_identity() for f in p.fvec]
    assert identity == [0, 0, 2, 12, 24]
    assert binomial_to_monomial(identity) == [
        Fraction(0), Fraction(-3), Fraction(6), Fraction(-4), Fraction(1)]
    assert p.value_at(z4.elements[0], 4) == 84
    assert p.value_at(z4.elements[0], 2) == 2
    orb = orbital_psi(X)
    assert {str(a): v for a, v in orb.items()} == {
        "2,2": 1, "1,1,2": 1, "1,2,1": 1, "2,1,1": 1, "1,1,1,1": 6}
    _stamp(2, "four-cycle graph class function and polynomial", t0)


def test_acceptance_03_mixed_graph_strong_and_weak():
    t0 = time.monotonic()
    mixed = MixedGraph(ABCD,
                       frozenset({frozenset({"b", "c"}), frozenset({"a", "d"})}),
                       frozenset({("b", "a"), ("d", "c")}))
    z2 = PermGroup((Permutation.from_cycles("(a c)(b d)", ABCD),))
    strong = psi(mixed, CharacterSpec("strong_mixed"), z2)
    assert _coeff_dict(strong) == {
        "2,2": (1, 1),
        "1,1,2": (2, 0),
        "2,1,1": (2, 0),
        "1,1,1,1": (6, 0),
    }
    weak = psi(mixed, CharacterSpec("weak_mixed"), z2)
    got = _coeff_dict(weak)
    # quoted relation: one rho*M_{2,2} plus rho on (1,1,2) and (2,1,1),
    # plus the strong invariant; it carries no (1,2,1) term
    assert got["2,2"] == (3, 1)
    assert got["1,1,2"] == (4, 0)
    assert got["2,1,1"] == (4, 0)
    assert got["1,1,1,1"] == (6, 0)
    # the engine finds a (1,2,1) term; the exhaustive coloring oracle
    # confirms it class by class, so the quoted relation is off by
    # rho*M_{1,2,1} and the discrepancy is reported, not suppressed
    assert got["1,2,1"] == (2, 0)
    _assert_psi_matches_oracle(weak, mixed, CharacterSpec("weak_mixed"), 4, z2)
    _stamp(3, "mixed graph strong and weak invariants", t0,
           note="weak 1,2,1 coefficient is 2,0 per oracle; quoted relation omits it, flagged as suspected typo")


def test_acceptance_04_double_poset():
    t0 = time.monotonic()
    dp = make_double_poset(ABCD,
                           [("a", "b"), ("a", "d"), ("c", "b"), ("c", "d")],
                           [("b", "c"), ("d", "a")])
    z2 = PermGroup((Permutation.from_cycles("(a c)(b d)", ABCD),))
    X = psi(dp, CharacterSpec("inversion_free"), z2)
    assert _coeff_dict(X) == {
        "2,2": (1, 1),
        "1,1,2": (2, 0),
        "1,2,1": (2, 0),
        "2,1,1": (2, 0),
        "1,1,1,1": (4, 0),
    }
    _stamp(4, "double poset inversion-free invariant", t0)


def test_acceptance_05_hypergraph():
    t0 = time.monotonic()
    hg = Hypergraph(ABCD, (("a", "b", "c"), ("a", "b", "d"),
                           ("a", "c", "d"), ("b", "c", "d")))
    z4 = PermGroup((Permutation.from_cycles("(a b d c)", ABCD),))
    X = psi(hg, CharacterSpec("unique_local_max"), z4)
    assert _coeff_dict(X) == {
        "2,1,1": (12, 0, 0, 0),
        "1,1,1,1": (24, 0, 0, 0),
    }
    _stamp(5, "all-triples hypergraph invariant", t0)


def test_acceptance_06_simplicial_complex():
    t0 = time.monotonic()
    simplex = SimplicialComplex(DIGITS, frozenset({frozenset(DIGITS)}))
    z4 = PermGroup((Permutation.from_cycles("(0 1 2 3)", DIGITS),))
    X = psi(simplex, CharacterSpec("dim_bound", s=2), z4)
    assert _coeff_dict(X) == {
        "2,2": (6, 0, 2, 0),
        "1,1,2": (12, 0, 0, 0),
        "1,2,1": (12, 0, 0, 0),
        "2,1,1": (12, 0, 0, 0),
        "1,1,1,1": (24, 0, 0, 0),
    }
    _stamp(6, "full simplex with face-size bound 2", t0)


def test_acceptance_07_matroid_with_flagged_coefficient():
    t0 = time.monotonic()
    u24 = Matroid(DIGITS, frozenset(
        frozenset(b) for b in [("0", "1"), ("0", "2"), ("0", "3"),
                               ("1", "2"), ("1", "3"), ("2", "3")]))
    z4 = PermGroup((Permutation.from_cycles("(0 1 2 3)", DIGITS),))
    X = psi(u24, CharacterSpec("chromatic"), z4)
    got = _coeff_dict(X)
    assert got["2,2"] == (6, 0, 2, 0)
    assert got["1,1,2"] == (12, 0, 0, 0)
    assert got["2,1,1"] == (12, 0, 0, 0)
    assert "1,2,1" not in got
    # the quoted reference gives 18 per orbit (72 at the identity) for the
    # finest coefficient; the oracle and the enumeration agree on 24
    assert got["1,1,1,1"] == (24, 0, 0, 0)
    _assert_psi_matches_oracle(X, u24, CharacterSpec("chromatic"), 4, z4)
    fx = load_fixtures("uniform-matroid")[0]
    assert "24" in fx["notes"] and "72" in fx["notes"]
    _stamp(7, "uniform matroid invariant", t0,
           note="finest coefficient is 24 per oracle; quoted value 72 flagged as suspected typo")


def test_acceptance_08_associahedron_against_oracle():
    t0 = time.monotonic()
    a3 = loday_associahedron(3)
    z2 = PermGroup((Permutation.from_cycles("(1 3)", a3.ground),))
    X = psi(a3, CharacterSpec("vertex_generic"), z2)
    assert _coeff_dict(X) == {
        "2,1": (1, 1),
        "1,1,1": (6, 0),
    }
    # every coefficient compared to the oracle; a disagreement would be
    # reported in the assertion message, never suppressed
    _assert_psi_matches_oracle(X, a3, CharacterSpec("vertex_generic"), 3, z2)
    _stamp(8, "Loday point collection invariant", t0)


def test_acceptance_09_coloring_complex_hilb():
    t0 = time.monotonic()
    bowtie = make_poset(ABCD, [("b", "a"), ("b", "c"), ("d", "a"), ("d", "c")])
    z2 = PermGroup((Permutation.from_cycles("(a c)(b d)", ABCD),))
    phi = coloring_complex(bowtie, CharacterSpec("chromatic"))
    fv = flag_f_vector(phi)
    assert fv[(2,)] == 1 and fv[(1, 2)] == 2
    assert fv[(2, 3)] == 2 and fv[(1, 2, 3)] == 4
    expected = {
        "2,2": (1, 1),
        "1,1,2": (2, 0),
        "2,1,1": (2, 0),
        "1,1,1,1": (4, 0),
    }
    assert _coeff_dict(hilb(phi, z2)) == expected
    # the same complex written out face by face
    faces = [
        (("a", "c"),),
        (("a",), ("a", "c")), (("c",), ("a", "c")),
        (("a", "c"), ("a", "b", "c")), (("a", "c"), ("a", "c", "d")),
        (("a",), ("a", "c"), ("a", "b", "c")),
        (("c",), ("a", "c"), ("a", "b", "c")),
        (("a",), ("a", "c"), ("a", "c", "d")),
        (("c",), ("a", "c"), ("a", "c", "d")),
    ]
    explicit = BalancedRelativeComplex(ABCD, [Flag(ABCD, ch) for ch in faces])
    assert _coeff_dict(hilb(explicit, z2)) == expected
    _stamp(9, "coloring complex flag class function", t0)


ALL_KINDS = tuple(sorted(GENERATORS))
# The seeded random corpora that criteria 10 and 11 sweep, one row each:
# (seed, instances per kind, kinds kept, cases).  Seeds 1 to 3 give 576
# cases together; a randgen change that shrinks a row fails its count.
CORPORA = (
    (20260822, 60, ALL_KINDS, 480),
    (1, 24, ALL_KINDS, 192),
    (2, 24, ALL_KINDS, 192),
    (3, 24, ALL_KINDS, 192),
    (5, 200, ("matroid",), 200),
    (11, 200, ("double_poset", "mixed_graph", "poset"), 600),
    (7, 100, ALL_KINDS, 800),
)


@pytest.fixture(scope="module")
def corpus_tallies():
    """One tally per row of CORPORA, of what criteria 10 and 11 read of
    its reports, and the seconds the sweep took.  Only the tallies are
    kept, so that the sweep holds one corpus at a time."""
    t0 = time.monotonic()
    tallies = []
    for seed, per_kind, kinds, _ in CORPORA:
        tally = {"row": "seed %d, %d per kind, %s" % (
                     seed, per_kind, "every kind" if kinds == ALL_KINDS else " + ".join(kinds)),
                 "cases": 0, "kinds": set(), "abelian": 0, "failures": [], "outside": []}
        for name, h, char, group in corpus(per_kind=per_kind, seed=seed):
            if h.kind not in kinds:
                continue
            checks = run_verification(h, char, group)["checks"]
            tally["cases"] += 1
            tally["kinds"].add(h.kind)
            tally["failures"] += [(name, section) for section, check in checks.items()
                                  if not check["ok"]]
            if group.is_abelian():
                tally["abelian"] += 1
                if "skipped" in checks["coefficient_order"]:
                    tally["failures"].append((name, "coefficient_order skipped"))
            tally["outside"] += [
                (name, alpha, entry)
                for alpha, entry in checks["burnside_integrality"]["orbit_counts"].items()
                if not 0 <= entry["count"] <= entry["identity"]]
        tallies.append(tally)
    return tallies, time.monotonic() - t0


def test_acceptance_10_theorem_conformance_corpus(corpus_tallies):
    tallies, elapsed = corpus_tallies
    assert elapsed < 600, "corpus verification took %.0fs" % elapsed
    for (_, _, kinds, cases), tally in zip(CORPORA, tallies):
        assert not tally["failures"], (tally["row"], tally["failures"])
        assert (tally["cases"], tally["kinds"]) == (cases, set(kinds)), tally
        assert tally["abelian"] > cases // 2, tally
    _stamp(10, "theorem conformance over %d corpus cases in %d rows in %.0fs"
           % (sum(tally["cases"] for tally in tallies), len(CORPORA), elapsed))


def test_acceptance_11_burnside_integrality(corpus_tallies):
    t0 = time.monotonic()
    tallies, _ = corpus_tallies
    violations = []
    for tally in tallies:
        violations += [(tally["row"], name) for name, section in tally["failures"]
                       if section == "burnside_integrality"]
        violations += [(tally["row"],) + entry for entry in tally["outside"]]
    assert not violations, violations
    _stamp(11, "Burnside integrality across the corpus", t0, budget=60)
