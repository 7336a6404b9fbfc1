"""The former point-collection routes, kept as references for the
integer ones that replaced them (tests/test_points.py).

points_filter scores whole compositions after the walk: for every
composition it sums each point's coordinate sums over the k suffix
unions B_j | ... | B_k, where chromatic._scored_walk carries the score
down the walk and adds each remainder's sums once per prefix.
fraction_normal_form turns every coordinate into a Fraction,
deduplicates and sorts the Fraction tuples, and only then scales them to
integers by the lcm of their denominators, where
PointCollection.__post_init__ scales first and sorts the integer tuples."""

from fractions import Fraction
from math import lcm

from hopfchrom.errors import DomainError
from hopfchrom.structures import _one_best


def points_filter(h, found):
    """Yield the compositions whose block-index weighting (a label in
    the j-th block weighs j) has a unique maximizing point, the rule of
    the vertex_generic character, scored on the integer points of
    PointCollection.integer_points.  A label in the
    j-th block (counting from 1) lies in exactly j of the suffix unions
    B_i | ... | B_k, so a point scores the sum of its coordinate sums over
    those unions."""
    n = len(h.ground)
    points = h.integer_points
    # sums[m]: the coordinate sum over the bits of m, one entry per point
    sums = [[0] * len(points)]
    for m in range(1, 1 << n):
        low = m & -m
        i = low.bit_length() - 1
        sums.append([s + p[i] for s, p in zip(sums[m ^ low], points)])
    for c in found:
        suffixes, acc = [], 0
        for S in reversed(c):
            acc |= S
            suffixes.append(sums[acc])
        if _one_best(list(map(sum, zip(*suffixes)))):
            yield c


def fraction_normal_form(dimension, points):
    """(points, integer_points) of a PointCollection whose ground has
    `dimension` labels, by the Fraction route."""
    pts = set()
    for p in points:
        if len(p) != dimension:
            raise DomainError("point %r has wrong dimension" % (p,))
        pts.add(tuple(Fraction(c) for c in p))
    if not pts:
        raise DomainError("need at least one point")
    fractions = tuple(sorted(pts))
    scale = lcm(*(c.denominator for p in fractions for c in p))
    return fractions, tuple(tuple(c.numerator * (scale // c.denominator) for c in p)
                            for p in fractions)
