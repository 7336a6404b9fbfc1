"""Differential tests of the exponent route for abelian characters
(groups.abelian_irreducibles, irreducible_multiplicities, is_effective and
leq_char) against the Cyclo route it replaced, whose field arithmetic
is cyclo_reference: characters found by multiplying roots along the BFS
tree, and multiplicities taken as exact inner products in the field.  The corpus reaches group exponent 5 only, so
the groups here are built to cover exponents 1 to 12, cyclic and not."""

import random
from fractions import Fraction

import pytest

from hopfchrom.chromatic import psi
from hopfchrom.complexes import comparable_pairs
from hopfchrom.cyclotomic import Cyclo
from hopfchrom.errors import DomainError
from hopfchrom.groups import (ClassFunction, PermGroup, Permutation, _as_exact,
                              abelian_irreducibles, irreducible_multiplicities,
                              is_effective, leq_char)
from hopfchrom.randgen import corpus
from cyclo_reference import FieldCyclo, inner_product, lifted


# --- reference: the Cyclo route -------------------------------------------

def _reference_irreducibles(group):
    m = group.exponent()
    gens = group.distinct_generators
    if not gens:
        return [ClassFunction.constant(group, FieldCyclo.from_rational(1, 1))]
    orders = [g.order() for g in gens]
    found = {}
    assignment = [0] * len(orders)
    while True:
        roots = [FieldCyclo.root(m, (m // o) * t) for o, t in zip(orders, assignment)]
        vals = [FieldCyclo.from_rational(m, 1)]
        for i in range(1, len(group.elements)):
            pi, gi = group._parents[i]
            vals.append(vals[pi] * roots[gi])
        by_elem = dict(zip(group.elements, vals))
        if all(by_elem[x * g] == by_elem[x] * r
               for x in group.elements for g, r in zip(gens, roots)):
            key = tuple(vals)
            if key not in found:
                found[key] = ClassFunction.from_element_values(group, by_elem)
        i = len(assignment) - 1
        while i >= 0:
            assignment[i] += 1
            if assignment[i] < orders[i]:
                break
            assignment[i] = 0
            i -= 1
        if i < 0:
            return list(found.values())


def _reference_multiplicities(theta):
    return [(chi, inner_product(chi, theta)) for chi in abelian_irreducibles(theta.group)]


def _reference_is_effective(theta):
    for chi, mult in _reference_multiplicities(theta):
        m = _as_exact(mult)
        if not isinstance(m, int) or m < 0:
            return False, {"offending_multiplicity": str(m),
                           "character_values": [str(_as_exact(v)) for v in chi.values]}
    return True, {}


def _typed(mults):
    return [(chi.values, value, type(value)) for chi, value in mults]


# --- groups ---------------------------------------------------------------

def _cyclic_product(*orders):
    """Z_o1 x Z_o2 x ... as disjoint cycles on consecutive labels."""
    ground = tuple("x%02d" % i for i in range(max(1, sum(orders))))
    gens, start = [], 0
    for o in orders:
        labels = ground[start:start + o]
        gens.append(Permutation.from_cycles("(%s)" % " ".join(labels), ground)
                    if o > 1 else Permutation.identity(ground))
        start += o
    return PermGroup(gens, ground=ground)


GROUPS = {
    "trivial": PermGroup((), ground=("a", "b")),
    "identity": _cyclic_product(1),
    "Z2": _cyclic_product(2),
    "Z3": _cyclic_product(3),
    "Z4": _cyclic_product(4),
    "Z5": _cyclic_product(5),
    "Z6": _cyclic_product(6),
    "Z8": _cyclic_product(8),
    "Z9": _cyclic_product(9),
    "Z10": _cyclic_product(10),
    "Z12": _cyclic_product(12),
    "Z2xZ2": _cyclic_product(2, 2),
    "Z2xZ4": _cyclic_product(2, 4),
    "Z2xZ6": _cyclic_product(2, 6),
    "Z3xZ3": _cyclic_product(3, 3),
    "Z3xZ4": _cyclic_product(3, 4),
    "Z2xZ5": _cyclic_product(2, 5),
}
EXPONENTS = {1, 2, 3, 4, 5, 6, 8, 9, 10, 12}


def test_groups_cover_the_exponents():
    assert {g.exponent() for g in GROUPS.values()} == EXPONENTS
    assert GROUPS["Z2xZ6"].order == 12 and GROUPS["Z2xZ6"].exponent() == 6


def _random_rational(rng):
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6)))


def _random_cyclo(rng, m):
    deg = len(Cyclo.root(m, 0).coeffs)
    return FieldCyclo(m, tuple(_random_rational(rng) for _ in range(deg)))


def _class_functions(group, rng):
    """Random int, Fraction, mixed and Cyclo class functions, plus nonnegative
    and signed integer combinations of the characters (effective or not)."""
    m = group.exponent()
    k = len(group.class_reps)
    chars = [lifted(chi) for chi in abelian_irreducibles(group)]
    out = [ClassFunction(group, tuple(rng.randint(-5, 12) for _ in range(k))),
           ClassFunction(group, tuple(_random_rational(rng) for _ in range(k))),
           ClassFunction(group, tuple(_random_cyclo(rng, m) for _ in range(k))),
           ClassFunction(group, tuple(rng.choice((
               rng.randint(-3, 3), _random_rational(rng), _random_cyclo(rng, m),
               FieldCyclo.from_rational(m, _random_rational(rng)))) for _ in range(k))),
           ClassFunction(group, (group.order,) + (0,) * (k - 1)),
           ClassFunction.constant(group, 0)]
    for low in (0, -1):
        theta = ClassFunction.constant(group, 0)
        for chi in chars:
            theta = theta + chi.scale(rng.randint(low, 2))
        out.append(theta)
    return out


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_exponent_rows_reproduce_the_characters(name):
    group = GROUPS[name]
    chars = abelian_irreducibles(group)
    assert [chi.values for chi in chars] == [
        chi.values for chi in _reference_irreducibles(group)]
    m, rows = group.character_exponents
    assert m == group.exponent() and len(rows) == len(chars) == group.order
    for chi, row in zip(chars, rows):
        assert chi.values == tuple(Cyclo.root(m, e) for e in row)
        assert all(v.order == m for v in chi.values)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_multiplicities_match_the_cyclo_route(name):
    group = GROUPS[name]
    rng = random.Random(name)
    for _ in range(2):
        for theta in _class_functions(group, rng):
            assert _typed(irreducible_multiplicities(theta)) == _typed(
                _reference_multiplicities(theta)), theta.values
            assert is_effective(theta) == _reference_is_effective(theta)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_leq_char_matches_the_cyclo_route(name):
    group = GROUPS[name]
    rng = random.Random("leq " + name)
    funcs = [f for i, f in enumerate(_class_functions(group, rng)) if i in (0, 2, 4, 6, 7)]
    seen = set()
    for a in funcs:
        for b in funcs:
            got = leq_char(a, b)
            assert got == _reference_is_effective(b - a)
            seen.add(got[0])
    assert seen == {True, False}


def test_multiplicities_of_a_character_sum_are_its_coefficients():
    group = GROUPS["Z3xZ4"]
    chars = [lifted(chi) for chi in abelian_irreducibles(group)]
    weights = [(3 * i) % 5 for i in range(len(chars))]
    theta = ClassFunction.constant(group, 0)
    for w, chi in zip(weights, chars):
        theta = theta + chi.scale(w)
    assert [v for _, v in irreducible_multiplicities(theta)] == weights


def test_rational_cyclo_of_another_order_is_accepted():
    group = GROUPS["Z4"]
    theta = ClassFunction(group, (FieldCyclo.from_rational(7, 3), FieldCyclo.from_rational(3, 1),
                                  Fraction(1, 2), Cyclo.root(4, 1)))
    assert _typed(irreducible_multiplicities(theta)) == _typed(
        _reference_multiplicities(theta))


def test_nonrational_cyclo_of_another_order_is_rejected():
    group = GROUPS["Z4"]
    theta = ClassFunction(group, (Cyclo.root(3, 1), 0, 0, 0))
    with pytest.raises(DomainError, match="mixed cyclotomic orders 4 and 3"):
        _reference_multiplicities(theta)
    with pytest.raises(DomainError, match="mixed cyclotomic orders 4 and 3"):
        irreducible_multiplicities(theta)


def test_corpus_coefficient_pairs_match_the_cyclo_route():
    checked = 0
    for _, h, char, group in corpus():
        if not group.is_abelian():
            continue
        X = psi(h, char, group)
        for a, b in comparable_pairs(X.degree):
            theta = X.coefficient(b) - X.coefficient(a)
            assert _typed(irreducible_multiplicities(theta)) == _typed(
                _reference_multiplicities(theta))
            assert is_effective(theta) == _reference_is_effective(theta)
            checked += 1
    assert checked > 1000
