"""Differential tests of the mask-based checks in complexes against the
code they replaced, kept here as the references: the scan over all faces
for sandwich closure and purity, the dense pair-by-pair incidence matrix
with its per-(source, target) equivariance test, and hilb counted with
act_flag on every face."""

import random
from itertools import combinations

from hopfchrom.chromatic import ClassQSym
from hopfchrom.complexes import (BalancedRelativeComplex, coloring_complex,
                                 comparable_pairs, complex_automorphism_check,
                                 hilb, integer_matrix_rank, theta_certificate)
from hopfchrom.compositions import (act_flag, alpha_of_subset, compositions_of,
                                    enumerate_set_compositions, flag_of)
from hopfchrom.errors import DomainError
from hopfchrom.groups import ClassFunction, PermGroup, Permutation
from hopfchrom.randgen import corpus
from hopfchrom.structures import CharacterSpec

CORPUS = corpus()


def _reference_verdict(faces):
    """The former BalancedRelativeComplex._validate, as a verdict: None,
    "sandwich violation" or "purity violation"."""
    chains = {frozenset(f.chain) for f in faces}
    for tau in faces:
        members = list(tau.chain)
        for k in range(len(members)):
            for sub in combinations(members, k):
                sigma = frozenset(sub)
                if sigma in chains:
                    continue
                if any(rho <= sigma for rho in chains):
                    return "sandwich violation"
    if faces:
        top = max(len(f.chain) for f in faces)
        facets = [frozenset(f.chain) for f in faces if len(f.chain) == top]
        for f in faces:
            if not any(frozenset(f.chain) <= big for big in facets):
                return "purity violation"
    return None


def _verdict(ground, faces):
    try:
        BalancedRelativeComplex(ground, faces)
    except DomainError as exc:
        return str(exc).split(":")[0]
    return None


def _reference_equivariant(group, src, tgt):
    """The former complexes._theta_equivariant."""
    tgt_set = set(tgt)
    for g in group.generators:
        for s in src:
            image = set(act_flag(g, s).chain)
            direct = {t for t in tgt if image <= set(t.chain)}
            moved = {act_flag(g, t) for t in tgt if set(s.chain) <= set(t.chain)}
            if direct != moved or not moved <= tgt_set:
                return False
    return True


def _reference_theta(phi, group, alpha, beta):
    """(matrix, rank, equivariant) from dense pair-by-pair inclusion tests."""
    src = phi.faces_of_type(alpha)
    tgt = phi.faces_of_type(beta)
    matrix = tuple(tuple(1 if set(s.chain) <= set(t.chain) else 0 for s in src)
                   for t in tgt)
    return matrix, integer_matrix_rank(matrix), _reference_equivariant(group, src, tgt)


def _reference_hilb(phi, group):
    n = len(phi.ground)
    coeffs = {}
    for kappa, faces in phi.by_kappa().items():
        by_element = {g: sum(1 for f in faces if act_flag(g, f) == f)
                      for g in group.elements}
        coeffs[alpha_of_subset(set(kappa), n)] = ClassFunction.from_element_values(
            group, by_element)
    return ClassQSym(n, group, coeffs)


def _reference_automorphism(phi, g):
    return frozenset(act_flag(g, f) for f in phi.faces) == phi.faces


def _theta_pairs(n):
    """Every comparable pair plus the equal pairs."""
    return comparable_pairs(n) + [(a, a) for a in compositions_of(n)]


def _check_theta(phi, group):
    n = len(phi.ground)
    for a, b in _theta_pairs(n):
        cert = theta_certificate(phi, group, a, b)
        assert (cert.matrix, cert.rank, cert.equivariance_checked) == \
            _reference_theta(phi, group, a, b), (a, b)


def _transpositions(ground):
    return tuple(Permutation.from_cycles("(%s %s)" % pair, ground)
                 for pair in zip(ground[:1], ground[1:2]))


def test_corpus_complexes_match_references():
    """Every corpus complex: valid under both checks, with the same
    certificates on every pair, the same hilb, and the same automorphism
    verdicts, for group elements and for a transposition of the first
    two labels."""
    built = 0
    for name, h, char, group in CORPUS:
        phi = coloring_complex(h, char)
        built += 1
        assert _reference_verdict(phi.faces) is None, name
        assert hilb(phi, group) == _reference_hilb(phi, group), name
        for g in group.elements + _transpositions(phi.ground):
            assert complex_automorphism_check(phi, g) == _reference_automorphism(phi, g), name
        _check_theta(phi, group)
    assert built == len(CORPUS)


def _all_flags(ground):
    return [flag_of(c) for c in enumerate_set_compositions(ground)]


def _random_family(rng, flags):
    """Either a random subset of all flags, or a union of one to three
    intervals [rho, tau] of flags; the second kind is often sandwich-closed
    and, with tops of different sizes, often impure."""
    if rng.random() < 0.3:
        return [f for f in flags if rng.random() < rng.random()]
    family = set()
    for _ in range(rng.randint(1, 3)):
        tau = rng.choice(flags)
        rho = {m for m in tau.chain if rng.random() < 0.4}
        family.update(f for f in flags
                      if rho <= set(f.chain) <= set(tau.chain))
    return sorted(family)


def test_random_flag_families_same_verdict():
    rng = random.Random(20261018)
    seen = {None: 0, "sandwich violation": 0, "purity violation": 0}
    for ground in (("a", "b", "c"), ("a", "b", "c", "d")):
        flags = _all_flags(ground)
        for _ in range(400):
            family = _random_family(rng, flags)
            want = _reference_verdict(family)
            assert _verdict(ground, family) == want, family
            seen[want] += 1
    assert min(seen.values()) >= 50, seen


def test_random_flag_families_same_certificates():
    """Unvalidated families under random permutations, which are mostly no
    automorphisms of the family, so the symmetric-difference branch of the
    equivariance check runs."""
    rng = random.Random(7)
    ground = ("a", "b", "c", "d")
    flags = _all_flags(ground)
    verdicts = set()
    for _ in range(40):
        family = _random_family(rng, flags)
        phi = BalancedRelativeComplex(ground, family, validate=False)
        images = list(ground)
        rng.shuffle(images)
        g = Permutation.from_mapping(dict(zip(ground, images)), ground)
        group = PermGroup((g,))
        for a, b in _theta_pairs(len(ground)):
            cert = theta_certificate(phi, group, a, b)
            want = _reference_theta(phi, group, a, b)
            assert (cert.matrix, cert.rank, cert.equivariance_checked) == want
            verdicts.add(want[2])
    assert verdicts == {True, False}


def test_theta_with_non_automorphism_generator(bowtie):
    """The swap (a b) is no automorphism of the bowtie complex: the images of
    some target faces leave the target set, and the equivariance verdicts
    agree with the reference on every pair."""
    phi = coloring_complex(bowtie, CharacterSpec("chromatic"))
    swap = Permutation.from_cycles("(a b)", phi.ground)
    group = PermGroup((swap,))
    assert not complex_automorphism_check(phi, swap)
    moved_off = 0
    verdicts = set()
    for a, b in _theta_pairs(len(phi.ground)):
        tgt = phi.faces_of_type(b)
        moved_off += {act_flag(swap, t) for t in tgt} != set(tgt)
        cert = theta_certificate(phi, group, a, b)
        want = _reference_theta(phi, group, a, b)
        assert (cert.matrix, cert.rank, cert.equivariance_checked) == want, (a, b)
        verdicts.add(want[2])
    assert moved_off
    assert verdicts == {True, False}

