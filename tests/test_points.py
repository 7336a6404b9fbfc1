"""Point collections on integers, against the routes they replaced
(points_reference): the score carried down the composition walk against
filtering whole compositions, the integer normal form of PointCollection
against the Fraction one, and jobio._coordinate against Fraction(text).
psi of the associahedron equals psi on the vertices of its hull, which
are built here by Postnikov's rule."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from hopfchrom import chromatic, jobio, structures
from hopfchrom.chromatic import proper_compositions, psi
from hopfchrom.errors import DomainError
from hopfchrom.groups import PermGroup, Permutation
from hopfchrom.randgen import corpus
from hopfchrom.structures import (PointCollection, check_compatible,
                                  loday_associahedron)
from points_reference import fraction_normal_form, points_filter
from test_kernel import FRACTIONAL_POINTS

VG = "vertex_generic"
# small coordinates, so that scores tie; negative ones, halves and thirds
COORDINATES = (-2, -1, 0, 0, 1, 1, 2, 3, Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3))


def _random_points(rng):
    """A point set on up to five labels with repeated points."""
    n = rng.randint(1, 5)
    points = [tuple(rng.choice(COORDINATES) for _ in range(n))
              for _ in range(rng.randint(1, 12))]
    points += rng.sample(points, rng.randint(0, len(points)))
    return tuple("abcde"[:n]), points


def _point_sets():
    yield from (h for _, h, _, _ in corpus() if h.kind == "gen_permutohedron")
    yield from (loday_associahedron(n) for n in range(2, 6))
    yield PointCollection(("a", "b", "c"), ((1, -2, 0),))
    yield PointCollection(tuple("abcd"), FRACTIONAL_POINTS)
    rng = random.Random(2009)
    for _ in range(80):
        yield PointCollection(*_random_points(rng))


def test_scored_walk_matches_the_filter():
    """The same compositions in the same order as every composition the
    walk reaches, filtered whole; some sets keep them all, some not."""
    keeps_all = set()
    for h in _point_sets():
        table = chromatic._next_blocks(h, check_compatible(h, VG))
        full = len(table) - 1
        every = list(chromatic._walk(table, full))
        got = proper_compositions(h, VG)
        assert got == list(points_filter(h, every)), h
        keeps_all.add(len(got) == len(every))
    assert keeps_all == {True, False}


def _mixed_inputs(rng):
    """A random point set whose coordinates are given as ints, Fractions,
    strings and floats, at random."""
    ground, points = _random_points(rng)
    forms = (lambda c: c, Fraction, str, float)
    return ground, [tuple(rng.choice(forms)(c) for c in p) for p in points]


def test_integer_normal_form_matches_the_fraction_route():
    rng = random.Random(2009)
    cases = [_mixed_inputs(rng) for _ in range(200)]
    cases += [(("a", "b"), [(0.5, "1/3"), (Fraction(1, 2), Fraction(2, 6)), ("-0", 2.25)]),
              (("a",), [(0.1,), (True,), (False,), ("3",)]),
              (tuple("abcd"), list(FRACTIONAL_POINTS))]
    for ground, points in cases:
        h = PointCollection(ground, tuple(points))
        assert (h.points, h.integer_points) == fraction_normal_form(len(ground), points)
        assert all(type(c) is Fraction for p in h.points for c in p)
        assert all(type(c) is int for p in h.integer_points for c in p)


def _outcome(read, *args):
    try:
        return "read", read(*args)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError, DomainError) as exc:
        return "refused", type(exc), str(exc)


@pytest.mark.parametrize("points", [
    [], [("x",)], [(None,)], [(1, 2)], [(1,), (1, 2)], [(float("nan"),)],
    [(float("inf"),)], [("1/0",)], [(0,), ([1],)]])
def test_integer_normal_form_refuses_as_the_fraction_route(points):
    assert _outcome(PointCollection, ("a",), tuple(points)) == _outcome(
        fraction_normal_form, 1, points)


LONG_INTEGERS = ("7" * 4300, "7" * 4301, "-" + "7" * 4299, "-" + "7" * 4300,
                 "+" + "7" * 4299, "+" + "7" * 4300)


@pytest.mark.parametrize("text", [
    "+5", "007", "-0", " 5", "1_000", "٣", "12", "-12", "0", "1/2", "-3/6",
    "0.25", "1e3", "-2E-1", "x", "", "-", "--1", "1-", "5 ", "\n5", "1__0"] + list(LONG_INTEGERS),
    ids=lambda t: t if len(t) < 20 else "%s%d" % (t[0], len(t)))
def test_coordinate_reads_as_fraction(text):
    """The same value as Fraction(text), or the same refusal text."""
    assert _outcome(jobio._coordinate, text) == _outcome(Fraction, text)


def test_plain_integer_texts_of_up_to_4300_characters_are_read_as_ints():
    """Only a text of 4301 digits is refused; the signed text of 4301
    characters and the texts with a plus sign are read by Fraction."""
    reads = [_outcome(jobio._coordinate, t) for t in LONG_INTEGERS]
    assert [r[0] for r in reads] == ["read", "refused", "read", "read", "read", "read"]
    assert [type(r[1]) for r in reads if r[0] == "read"] == [int, int, Fraction, Fraction, Fraction]
    assert all(type(jobio._coordinate(t)) is int for t in ("007", "-0", "12", "-12", "0"))


def loday_vertices(n):
    """The vertices of loday_associahedron(n), by Postnikov's rule
    ("Permutohedra, associahedra, and beyond", IMRN 2009): under a
    weighting with distinct values the maximizer of a Minkowski sum is
    the sum of its summands' maximizers, and the simplex on an interval
    is maximized at e_k for the interval's argmax k.  Every vertex is
    the only maximizer of some such weighting."""
    vertices = set()
    for w in permutations(range(n)):
        v = [0] * n
        for i in range(n):
            for j in range(i, n):
                v[max(range(i, j + 1), key=w.__getitem__)] += 1
        vertices.add(tuple(v))
    return vertices


@pytest.mark.parametrize("n, catalan", [(1, 1), (2, 2), (3, 5), (4, 14), (5, 42)])
def test_associahedron_psi_equals_psi_on_its_vertices(n, catalan):
    """Exactly one maximizer gets the same answer on the points as on the
    vertices of their hull (loday_associahedron's docstring), so a job
    may list the vertices alone; checked under the reversal."""
    h = loday_associahedron(n)
    vertices = loday_vertices(n)
    assert len(vertices) == catalan and vertices <= set(h.integer_points)
    group = PermGroup([Permutation(h.ground, tuple(reversed(h.ground)))])
    assert psi(PointCollection(h.ground, tuple(vertices)), VG, group) == psi(h, VG, group)


def test_one_fraction_is_built_per_distinct_value(monkeypatch):
    """loday_associahedron(5) stores 567 integer points of five
    coordinates with 9 distinct values; its Fraction points take one
    Fraction each, not one per coordinate."""
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(structures, "Fraction", counted)
    h = loday_associahedron(5)
    values = {v for p in h.integer_points for v in p}
    assert (len(h.integer_points), len(values), len(built)) == (567, 9, 9)
    assert h.points == tuple(tuple(map(Fraction, p)) for p in h.integer_points)
