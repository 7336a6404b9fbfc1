import pytest

from hopfchrom.complexes import (BalancedRelativeComplex,
                                 check_balanced_convex, coloring_complex,
                                 comparable_pairs, flag_f_vector, hilb,
                                 integer_matrix_rank, psi_hilb_diffs,
                                 theta_certificate, verify_m_increasing)
from hopfchrom.chromatic import ClassQSym, psi
from hopfchrom.compositions import Flag, IntComposition
from hopfchrom.errors import DomainError, VerificationFailure
from hopfchrom.groups import ClassFunction, PermGroup, Permutation
from hopfchrom.randgen import corpus
from hopfchrom.structures import CharacterSpec, Graph

C = IntComposition.parse
CHROM = CharacterSpec("chromatic")
ZETA = CharacterSpec("zeta")
ABCD = ("a", "b", "c", "d")


def test_full_flag_complex():
    g = Graph(("x", "y", "z"), frozenset())
    phi = coloring_complex(g, ZETA)
    fv = flag_f_vector(phi)
    assert fv[()] == 1
    assert fv[(1,)] == 3 and fv[(2,)] == 3
    assert fv[(1, 2)] == 6
    assert phi.dimension == 1
    assert len(phi.faces) == 13


def test_bowtie_complex_faces_and_f_vector(bowtie, z2):
    phi = coloring_complex(bowtie, CHROM)
    assert len(phi.faces) == 9
    assert phi.dimension == 2
    fv = flag_f_vector(phi)
    assert fv[(2,)] == 1
    assert fv[(1, 2)] == 2
    assert fv[(2, 3)] == 2
    assert fv[(1, 2, 3)] == 4
    assert fv[(1,)] == 0 and fv[()] == 0
    H = hilb(phi, z2)
    assert H.coefficient(C("2,2")).values == (1, 1)
    assert H.coefficient(C("1,1,2")).values == (2, 0)
    assert H.coefficient(C("2,1,1")).values == (2, 0)
    assert H.coefficient(C("1,1,1,1")).values == (4, 0)


def test_balanced_convex_all_splitting_kinds(bowtie, four_cycle, mixed):
    assert check_balanced_convex(bowtie, ZETA) is None
    assert check_balanced_convex(bowtie, CHROM) is None
    assert check_balanced_convex(four_cycle, CHROM) is None
    assert check_balanced_convex(mixed, CharacterSpec("strong_mixed")) is None
    assert check_balanced_convex(mixed, CharacterSpec("weak_mixed")) is None


@pytest.mark.parametrize("kind,section", [
    ("poset", {"ok": True}),
    ("hypergraph", {"ok": True, "skipped": "no splitting calculus for this kind"}),
])
def test_run_verification_walks_convexity_once(monkeypatch, kind, section):
    from hopfchrom import complexes, verify
    _, h, char, group = next(c for c in corpus() if c[1].kind == kind)
    calls = []
    real = complexes.check_balanced_convex

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(complexes, "check_balanced_convex", counted)
    monkeypatch.setattr(verify, "check_balanced_convex", counted, raising=False)
    report = verify.run_verification(h, char, group)
    assert report["ok"]
    assert len(calls) == 1
    assert report["checks"]["balanced_convex"] == section


def test_run_verification_counts_orbits_once(monkeypatch, bowtie, z2):
    from hopfchrom import chromatic, verify
    calls = []
    real = chromatic.orbital_psi

    def counted(X):
        calls.append(X)
        return real(X)

    monkeypatch.setattr(chromatic, "orbital_psi", counted)
    monkeypatch.setattr(verify, "orbital_psi", counted)
    report = verify.run_verification(bowtie, CHROM, z2)
    assert report["ok"]
    assert len(calls) == 1
    assert report["checks"]["flawless_orbital"]["f_vector"] == \
        chromatic.orbital_polynomial(calls[0])


def test_run_verification_non_integral_orbit_count_raises(monkeypatch, bowtie, z2):
    """Values (1, 0) on Z2 average to 1/2: run_verification raises before
    the burnside section is built."""
    from hopfchrom import verify
    X = psi(bowtie, CHROM, z2)
    bad = ClassQSym(X.degree, z2, dict(X.coeffs))
    bad.coeffs[C("1,1,1,1")] = ClassFunction(z2, (1, 0))
    monkeypatch.setattr(verify, "psi", lambda *args, **kwargs: bad)
    with pytest.raises(VerificationFailure, match="orbit count Fraction.1, 2. is not"):
        verify.run_verification(bowtie, CHROM, z2)


def test_psi_equals_hilb(bowtie, four_cycle, mixed, z2, z4):
    for h, char, grp in ((bowtie, ZETA, z2), (bowtie, CHROM, z2),
                         (four_cycle, CHROM, z4),
                         (mixed, CharacterSpec("weak_mixed"), z2)):
        diffs = psi_hilb_diffs(psi(h, char, grp), hilb(coloring_complex(h, char), grp))
        assert diffs == [], diffs


def test_psi_hilb_diffs_names_each_differing_coefficient(bowtie, z2):
    X = psi(bowtie, ZETA, z2)
    H = hilb(coloring_complex(bowtie, CHROM), z2)
    assert psi_hilb_diffs(X, X) == []
    diffs = psi_hilb_diffs(X, H)
    assert diffs
    for alpha, a, b in diffs:
        assert a == X.coefficient(alpha).values
        assert b == H.coefficient(alpha).values
        assert a != b
    assert [alpha for alpha, _, _ in diffs] == sorted(
        (alpha for alpha, _, _ in diffs), key=lambda a: (a.length, a.parts))


def test_c7_coloring_complex_under_d7():
    ground = tuple("abcdefg")
    c7 = Graph(ground, frozenset(frozenset({ground[i], ground[(i + 1) % 7]})
                                 for i in range(7)))
    d7 = PermGroup((Permutation.from_cycles("(a b c d e f g)", ground),
                    Permutation.from_cycles("(b g)(c f)(d e)", ground)))
    assert d7.order == 14
    phi = coloring_complex(c7, CHROM)
    assert len(phi.faces) == 23646
    assert phi.dimension == 5
    assert psi_hilb_diffs(psi(c7, CHROM, d7), hilb(phi, d7)) == []


def test_sandwich_validation_rejects_missing_middle():
    ground = ("a", "b", "c")
    faces = [Flag(ground, ()),
             Flag(ground, (("a",), ("a", "b")))]
    # the two one-member subchains are missing but lie between
    with pytest.raises(DomainError):
        BalancedRelativeComplex(ground, faces)


def test_purity_validation():
    ground = ("a", "b", "c")
    faces = [Flag(ground, (("a",),)),
             Flag(ground, (("b",), ("a", "b")))]
    with pytest.raises(DomainError):
        BalancedRelativeComplex(ground, faces)
    # unvalidated construction is allowed for negative controls
    bad = BalancedRelativeComplex(ground, faces, validate=False)
    assert len(bad.faces) == 2


@pytest.mark.parametrize("ground,chains,message", [
    (("a", "b", "c"), [(), (("a",), ("a", "b"))],
     "sandwich violation: (empty) <= {a,b} <= {a}<{a,b}, middle face missing"),
    (ABCD, [(("b",),), (("b",), ("b", "c"), ("a", "b", "c"))],
     "sandwich violation: {b} <= {b}<{a,b,c} <= {b}<{b,c}<{a,b,c}, middle face missing"),
    (("a", "b", "c"), [(("a",),), (("b",), ("a", "b"))],
     "purity violation: face {a} extends to no 2-vertex face"),
    (("x1", "x2", "y"), [(("x2",),), (("x1",), ("x1", "y"))],
     "purity violation: face {x2} extends to no 2-vertex face"),
], ids=["sandwich-empty", "sandwich-top", "purity", "purity-labels"])
def test_validation_messages(ground, chains, message):
    """The messages name their chains in flag text, as when faces were
    kept as Flags."""
    with pytest.raises(DomainError) as exc:
        BalancedRelativeComplex(ground, [Flag(ground, c) for c in chains])
    assert str(exc.value) == message


def test_theta_certificate_on_bowtie(bowtie, z2):
    phi = coloring_complex(bowtie, CHROM)
    cert = theta_certificate(phi, z2, C("2,2"), C("1,1,2"))
    assert cert.n_source == 1 and cert.n_target == 2
    assert cert.matrix == ((1,), (1,))
    assert cert.rank == 1
    assert cert.valid
    # equal pair is the identity matrix
    same = theta_certificate(phi, z2, C("1,1,2"), C("1,1,2"))
    assert same.rank == same.n_source == same.n_target == 2
    assert same.valid
    with pytest.raises(DomainError):
        theta_certificate(phi, z2, C("1,1,2"), C("2,2"))


def test_theta_on_purity_violating_control():
    ground = ("a", "b", "c")
    bad = BalancedRelativeComplex(
        ground,
        [Flag(ground, (("a",),)), Flag(ground, (("b",), ("a", "b")))],
        validate=False)
    triv = PermGroup((Permutation.identity(ground),))
    cert = theta_certificate(bad, triv, C("1,2"), C("1,1,1"))
    assert cert.n_source == 1 and cert.n_target == 1
    assert cert.rank == 0
    assert not cert.valid


def test_integer_matrix_rank():
    assert integer_matrix_rank([]) == 0
    assert integer_matrix_rank([[0]]) == 0
    assert integer_matrix_rank([[3]]) == 1
    assert integer_matrix_rank([[1, 2], [2, 4]]) == 1
    assert integer_matrix_rank([[1, 2], [2, 5]]) == 2
    assert integer_matrix_rank([[0, 1, 0], [1, 0, 0], [1, 1, 1]]) == 3
    # no division happens, so large entries stay exact
    big = 10 ** 30
    assert integer_matrix_rank([[big, 1], [1, big]]) == 2


def test_comparable_pairs_counts():
    assert len(comparable_pairs(4)) == 19
    cov = comparable_pairs(4, covering_only=True)
    assert len(cov) == 12
    assert all(b.length == a.length + 1 for a, b in cov)


def test_verify_m_increasing(bowtie, z2):
    X = psi(bowtie, CHROM, z2)
    phi = coloring_complex(bowtie, CHROM)
    rep = verify_m_increasing(X, phi, z2, certify="comparable")
    assert rep["ok"]
    assert rep["abelian"]
    assert rep["certificates"]
    assert not rep["invalid_certificates"]


def test_hilb_rejects_non_automorphism(bowtie):
    phi = coloring_complex(bowtie, CHROM)
    swap = PermGroup((Permutation.from_cycles("(a b)", ABCD),))
    with pytest.raises(DomainError):
        hilb(phi, swap)
